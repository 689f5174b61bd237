"""Workloads: the inputs a seed generates, and the stages of one round.

Every workload runs the whole user pipeline each round: train with
`at_decorr` and `trades_decorr`, `evaluate` under four threat models, then
Laplace and sampling statistics, the `neyshabur` and `xiao` bounds and both
simulation families. Each workload reports every end-to-end metric, so no
stage may be left out; the workloads differ in the shape of their inputs
and in which stages are sized to take most of the round.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import clock
import numpy as np

from advlab.attacks import AttackSpec
from advlab.bounds import BoundInputs, evaluate_bound
from advlab.data import Dataset, load_idx, split_blobs, write_idx_images, write_idx_labels
from advlab.network import Network, load_checkpoint
from advlab.train import RunConfig, evaluate, train, write_evaluation_csv
from advlab.weight_stats import (
    SamplingConfig,
    check_perturbation_bound,
    corr_from_laplace,
    corr_from_samples,
    sample_weight_perturbations,
    simulate_correlation_study,
)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int  # 32: synthetic blobs; 784: 28x28 images written and read as IDX files
    train_per_class: int  # the set-up checkpoint's training split, also the sampling split
    test_per_class: int  # the Laplace split; evaluate attacks a subset of it
    evaluate_rows: int
    sampling_samples: int
    calls: dict  # stage -> calls a round; a train call is one per decorr method


# why each workload is there: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train",
            dim=32, train_per_class=60, test_per_class=80, evaluate_rows=800,
            sampling_samples=50,
            calls={"train": 2, "evaluate": 2, "laplace": 6, "sampling": 2, "bound": 1,
                   "simulate": 1},
        ),
        Workload(
            "attack",
            dim=784, train_per_class=30, test_per_class=100, evaluate_rows=1000,
            sampling_samples=50,
            calls={"train": 1, "evaluate": 2, "laplace": 6, "sampling": 2, "bound": 1,
                   "simulate": 1},
        ),
        Workload(
            "analyze",
            dim=32, train_per_class=60, test_per_class=6000, evaluate_rows=200,
            sampling_samples=100,
            calls={"train": 1, "evaluate": 2, "laplace": 2, "sampling": 2, "bound": 2,
                   "simulate": 1},
        ),
    )
}

NUM_CLASSES = 10
SPREAD = 0.25
HIDDEN = (96, 96)
SETUP_EPOCHS = 5
# A small step: at lr 0.1 the 784-wide IDX net of some seeds stalls near
# chance within SETUP_EPOCHS.
SETUP_BATCH = 50
SETUP_LR = 0.02
# Short train() calls: each call's times are scaled by the clock probes around
# it, and the machine's speed drifts within seconds.
TRAIN_EPOCHS = 4
# Power iteration for the spectral norm takes as many steps as the spectral
# gap asks, which varies twofold between trained nets of different seeds. So
# the bounds are timed on nets with the spectra of one fixed He-initialised
# net, rotated by seeded orthogonal matrices: the seed picks the inputs, not
# the amount of work.
BOUND_NETS = 10
EPSILON = 0.15
CLEAN_FLOOR = 0.5  # chance is 0.1
TRAIN = {
    "hidden": list(HIDDEN), "batch_size": 100, "lr": 0.1, "momentum": 0.9,
    "weight_decay": 0.0005, "eval_subset": 600,
    "attack_train": {"epsilon": EPSILON, "step_size": 0.0375, "steps": 10, "random_start": True},
    "attack_eval": {"epsilon": EPSILON, "step_size": 0.0375, "steps": 20},
    "penalty": {"alpha": 0.3, "damping": 5.0},
}
# the threat models of configs/evaluate.json, with a random start for l2
ATTACKS = (
    AttackSpec(EPSILON, EPSILON, 1),
    AttackSpec(EPSILON, 0.0375, 20),
    AttackSpec(EPSILON, 0.0375, 20, loss="cw_margin"),
    AttackSpec(0.75, 0.1875, 20, norm="l2", random_start=True),
)
ATTACK_STEPS = sum(spec.steps for spec in ATTACKS)
BOUND_KINDS = ("neyshabur", "xiao")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def blob_spec(train_per_class: int, test_per_class: int, dim: int, seed: int) -> dict:
    return {"kind": "synthetic", "num_classes": NUM_CLASSES, "per_class": train_per_class,
            "dim": dim, "spread": SPREAD, "seed": seed, "test_per_class": test_per_class}


def derive(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Inputs:
    net: object  # network loaded from the checkpoint made in set-up
    train: Dataset
    test: Dataset
    attacked: Dataset  # the evaluate split
    bound_nets: list
    input_bound: float
    checkpoint_sha256: str
    clean_test: float  # the set-up checkpoint's, checked against CLEAN_FLOOR


def prepare(w: Workload, seed: int, out: Path) -> Inputs:
    """Generate the inputs, train the set-up checkpoint and load it."""
    out.mkdir(parents=True)
    data_seed = derive(seed, 0)
    train_ds, test_ds = split_blobs(
        NUM_CLASSES, w.train_per_class, w.test_per_class, w.dim, SPREAD, data_seed
    )
    if w.dim == 784:
        spec = {"kind": "idx"}
        for split, ds in (("train", train_ds), ("test", test_ds)):
            images, labels = out / f"{split}-images.idx", out / f"{split}-labels.idx"
            write_idx_images(images, np.rint(ds.inputs * 255).reshape(-1, 28, 28))
            write_idx_labels(labels, ds.labels)
            spec |= {f"{split}_images": str(images), f"{split}_labels": str(labels)}
        train_ds = load_idx(spec["train_images"], spec["train_labels"])
        test_ds = load_idx(spec["test_images"], spec["test_labels"])
    else:
        spec = blob_spec(w.train_per_class, w.test_per_class, w.dim, data_seed)
    config = RunConfig(dataset=spec, hidden=HIDDEN, method="standard", epochs=SETUP_EPOCHS,
                       batch_size=SETUP_BATCH, lr=SETUP_LR, seed=derive(seed, 1),
                       eval_subset=600)
    record = train(config, out / "checkpoint")
    net = load_checkpoint(record.checkpoint_path)
    rows = np.random.default_rng(derive(seed, 2)).permutation(len(test_ds))[: w.evaluate_rows]
    attacked = Dataset(test_ds.inputs[rows], test_ds.labels[rows], NUM_CLASSES, "attacked")
    return Inputs(
        net, train_ds, test_ds, attacked, rotated_nets(net, derive(seed, 7)),
        input_bound=float(np.linalg.norm(train_ds.inputs, axis=1).max()),
        checkpoint_sha256=sha256(Path(record.checkpoint_path)),
        clean_test=record.final["clean_test"],
    )


def rotated_nets(net, seed: int) -> list:
    """BOUND_NETS nets shaped like `net` with the layer spectra of a fixed He init."""
    reference = Network.he_init([net.input_dim, *(l.out_dim for l in net.layers)], seed=0)
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(BOUND_NETS):
        weights = []
        for w in reference.weights:
            spectrum = np.linalg.svd(w, compute_uv=False)
            left, _ = np.linalg.qr(rng.standard_normal((w.shape[0], len(spectrum))))
            right, _ = np.linalg.qr(rng.standard_normal((w.shape[1], len(spectrum))))
            weights.append((left * spectrum) @ right.T)
        nets.append(reference.with_weights(weights))
    return nets


class Bench:
    """Runs rounds of one workload and keeps samples, op counts and digests.

    An operation is a training epoch, an evaluate() call or an analysis
    call; it fails when it raises or an output check fails. Every artifact
    is hashed, and a hash that differs from the first one seen for the same
    artifact fails the operation: the same inputs must give the same bytes.
    With `calibrated`, each timed call is bracketed by `clock.probe()` and
    `samples` holds the scaled times; `raw` always holds the measured ones.
    """

    def __init__(self, w: Workload, seed: int, inputs: Inputs, out: Path, calibrated: bool):
        self.w, self.seed, self.inputs, self.out = w, seed, inputs, out
        self.calibrated = calibrated
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.plan = (
            (lambda: self.train_stage("at_decorr"), w.calls["train"], TRAIN_EPOCHS),
            (lambda: self.train_stage("trades_decorr"), w.calls["train"], TRAIN_EPOCHS),
            (self.evaluate_stage, w.calls["evaluate"], 1),
            (self.laplace_stage, w.calls["laplace"], 1),
            (self.sampling_stage, w.calls["sampling"], 1),
            (self.bound_stage, w.calls["bound"], BOUND_NETS),
            (self.simulate_stage, w.calls["simulate"], 1),
        )

    def clear_samples(self):
        self.samples.clear()
        self.raw.clear()
        self.probes.clear()

    def round(self):
        for stage, calls, ops in self.plan:
            for _ in range(calls):
                self.attempted += ops
                try:
                    stage()
                except Exception:  # a failed operation is counted, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    self.failed += ops

    def _timed(self, work):
        """`work()`, its wall time, and the clock factor measured around it."""
        before = clock.probe() if self.calibrated else None
        t0 = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - t0
        if not self.calibrated:
            return result, elapsed, 1.0
        after = clock.probe()
        self.probes += [before, after]
        return result, elapsed, clock.factor(before, after)

    def _record(self, metric: str, raw: list[float], scale: float):
        self.raw[metric] += raw
        self.samples[metric] += [value * scale for value in raw]

    def _keep(self, out: Path, names):
        for name in names:
            key = f"{out.name}/{name}"
            digest = sha256(out / name)
            check(self.digests.setdefault(key, digest) == digest, f"{key} changed between repeats")

    def _dir(self, name: str) -> Path:
        path = self.out / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def train_stage(self, method: str):
        out = self.out / method
        config = RunConfig.from_dict(
            TRAIN | {"dataset": blob_spec(60, 80, 32, derive(self.seed, 0)), "method": method,
                     "epochs": TRAIN_EPOCHS, "seed": derive(self.seed, 3)}
        )
        record, _, scale = self._timed(lambda: train(config, out))
        check(len(record.wall_train_s) == TRAIN_EPOCHS, f"{method} stopped early")
        final = record.final
        check(final["clean_test"] >= CLEAN_FLOOR, f"{method} clean_test near chance")
        check(final["pgd_test"] <= final["clean_test"], f"{method} pgd_test above clean_test")
        check(all(math.isfinite(row["penalty"]) for row in record.metrics), "non-finite penalty")
        self._record(f"{method}_epoch_s", record.wall_train_s, scale)
        self._record("eval_epoch_s", record.wall_eval_s, scale)
        self._keep(out, ("metrics.csv", "checkpoint.json", "run.json"))

    def evaluate_stage(self):
        out = self._dir("evaluate")
        ds = self.inputs.attacked

        def work():
            rows = evaluate(self.inputs.net, ds, list(ATTACKS), seed=derive(self.seed, 4))
            write_evaluation_csv(out / "evaluate.csv", rows)
            return rows

        rows, elapsed, scale = self._timed(work)
        check(len(rows) == 1 + len(ATTACKS), "evaluate lost a threat model")
        check(all(0.0 <= row["accuracy"] <= 1.0 for row in rows), "accuracy outside [0, 1]")
        rate = len(ds) * ATTACK_STEPS / elapsed
        self.raw["attack_row_steps_per_s"].append(rate)
        self.samples["attack_row_steps_per_s"].append(rate / scale)
        self._keep(out, ("evaluate.csv",))

    def _stats(self, metric: str, name: str, compute):
        out = self._dir(name)

        def work():
            stats = compute()
            stats.write_csv(out / "stats.csv")
            return stats

        stats, elapsed, scale = self._timed(work)
        self._record(metric, [elapsed], scale)
        summary = (stats.lam_max, stats.lam_min, stats.lamc_max, stats.lamr_max,
                   stats.det_lb, stats.frob_sq)
        check(all(math.isfinite(v) for v in summary), f"non-finite {name} summary")
        # logdet is -inf only for a rank-deficient estimate, whose det_lb is then 0
        check(math.isfinite(stats.logdet) or stats.det_lb == 0.0, f"non-finite {name} logdet")
        self._keep(out, ("stats.csv",))

    def laplace_stage(self):
        net = self.inputs.net
        self._stats("stats_laplace_s", "laplace",
                    lambda: corr_from_laplace(net, self.inputs.test, len(net.layers), damping=1e-3))

    def sampling_stage(self):
        net = self.inputs.net
        layer = len(net.layers)
        config = SamplingConfig(num_samples=self.w.sampling_samples, layers=(layer,),
                                seed=derive(self.seed, 5))
        self._stats(
            "stats_sampling_s", "sampling",
            lambda: corr_from_samples(
                sample_weight_perturbations(net, self.inputs.train, config), layer
            ),
        )

    def bound_stage(self):
        """One sample per net: both bound kinds with their JSON and CSV."""
        inputs = BoundInputs(gamma=1.0, delta=0.05, m=len(self.inputs.train),
                             input_bound=self.inputs.input_bound, epsilon=EPSILON)
        for i, net in enumerate(self.inputs.bound_nets):
            out = self._dir(f"bound{i}")

            def work():
                reports = [evaluate_bound(net, inputs, kind) for kind in BOUND_KINDS]
                for r in reports:
                    (out / f"{r.kind}.json").write_text(r.to_json_text(), encoding="utf-8")
                    r.write_csv(out / f"{r.kind}.csv")
                return reports

            reports, elapsed, scale = self._timed(work)
            self._record("bound_s", [elapsed], scale)
            for r in reports:
                terms = (r.phi, r.phi_term, r.logdet_term, r.log_term, r.kl_proxy, r.numerator,
                         r.complexity_term)
                check(all(math.isfinite(v) for v in terms), f"non-finite {r.kind} bound term")
            self._keep(out, [f"{kind}.{ext}" for kind in BOUND_KINDS for ext in ("json", "csv")])

    def simulate_stage(self):
        """The demo configs: dim 9 x 10k random correlations, h 64 x 200 Gaussian matrices."""
        out = self._dir("simulate")
        seed = derive(self.seed, 6)

        def work():
            study = simulate_correlation_study(9, 10_000, "random", seed=seed)
            study.write_csv(out / "simulate_random.csv")
            report = check_perturbation_bound(64, 1.0, 200, seed=seed)
            report.write_csv(out / "simulate_perturbation.csv")
            summary = {"rho_frob_lam": study.rho_frob_lam, "rho_frob_det": study.rho_frob_det,
                       "median": report.median, "p95": report.p95}
            (out / "simulate_summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                                        encoding="utf-8")
            return summary

        summary, elapsed, scale = self._timed(work)
        self._record("simulate_s", [elapsed], scale)
        check(all(math.isfinite(v) for v in summary.values()), "non-finite simulation summary")
        self._keep(out, ("simulate_random.csv", "simulate_perturbation.csv",
                         "simulate_summary.json"))
