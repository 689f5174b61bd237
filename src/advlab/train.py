"""Training and evaluation harness.

Five training methods: plain cross-entropy ("standard"), adversarial
training on attacked minibatches ("at"), the clean+KL trade-off objective
("trades"), and each of the last two augmented with the weight-
decorrelation penalty ("at_decorr", "trades_decorr").

All randomness flows from one master seed through named sub-streams
(init / shuffle / attack / eval), so a rerun with the same config is
bit-identical, including every emitted CSV/JSON byte. Wall-clock numbers
are written to a separate timing file that is explicitly outside the
determinism contract.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attacks import NEVER, AttackSpec, first_flips, pgd
from .bounds import BoundInputs
from .data import Dataset, batches, epoch_seed_from, idx_num_classes, load_idx, split_blobs
from .decorr import DecorrConfig, penalty_and_grad, penalty_dacts
from .io import write_csv, write_json
from .linalg import NotPositiveDefinite
from .network import (
    Network,
    _cross_entropy_and_kl,
    accuracy,
    backward,
    cross_entropy,
    forward,
    loss_logit_grad,
    save_checkpoint,
)
from .weight_stats import SamplingConfig

TRAIN_METHODS = ("standard", "at", "trades", "at_decorr", "trades_decorr")

# named sub-streams of the master seed
_INIT, _SHUFFLE, _ATTACK, _EVAL = 0, 1, 2, 3

METRICS_HEADER = ("epoch", "train_loss", "clean_train", "clean_test", "pgd_train", "pgd_test", "penalty")


class DivergedTraining(RuntimeError):
    """Training hit a non-finite loss or logit; the last good checkpoint was kept."""


def build_config(cls, doc, what: str, path: str = "", seed: int | None = None):
    """The dataclass `cls` built from the JSON object `doc`; ValueError otherwise.

    Values are checked against the field annotations, never coerced: a bool is no number, a
    number is finite, an int in a float field stays an int, `tuple[...]` takes a JSON list, a
    nested dataclass is built by a recursive call, a `dict` is taken as it is, and a `seed` is
    a non-negative int. A given `seed` (the CLI's --seed) replaces the document's, or is refused
    if `cls` has none. Messages name the command `what` and the field's dotted path (at `path`).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path or 'config'} {doc!r} is not an object")
    fields, hints = dataclasses.fields(cls), typing.get_type_hints(cls)
    if seed is not None and "seed" not in hints:
        raise ValueError(f"{what} takes no --seed: this config draws no random numbers")
    doc = doc if seed is None else doc | {"seed": seed}
    where = f"{path}." if path else ""
    unknown = sorted(doc.keys() - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{what} config has unknown field '{where}{unknown[0]}'")
    missing = [f.name for f in fields if f.name not in doc
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{what} config lacks '{where}{missing[0]}'")
    kw = {name: _checked(hints[name], value, what, where + name) for name, value in doc.items()}
    try:
        return cls(**kw)
    except ValueError as exc:  # a range check of the dataclass itself
        raise ValueError(f"{what} {path}: {exc}" if path else f"{what}: {exc}") from exc


def build_variant(configs: dict, key: str, doc, what: str, seed: int | None = None):
    """build_config of the class `configs[doc[key]]`: a field of another variant is unknown."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} config {doc!r} is not an object")
    if key not in doc:
        raise ValueError(f"{what} config lacks '{key}'")
    if type(doc[key]) is not str or doc[key] not in configs:  # the type first: a list is unhashable
        raise ValueError(f"unknown {what} {key} {doc[key]!r}")
    return build_config(configs[doc[key]], doc, what, seed=seed)


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean", dict: "an object"}


def _checked(hint, value, what: str, path: str):
    """`value` if it fits the annotation `hint` (a JSON list made a tuple); see build_config."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _checked(args[0], value, what, path)
    if dataclasses.is_dataclass(hint):
        return build_config(hint, value, what, path)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        items = args[:1] * len(value) if variadic and isinstance(value, list) else args
        if not isinstance(value, list) or len(value) != len(items):
            size = "" if variadic else f" of {len(args)}"
            raise ValueError(f"{what} {path} {value!r} is not a list{size}")
        return tuple(_checked(h, v, what, f"{path}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    seed = path.rsplit(".", 1)[-1] == "seed"
    if hint is float:  # finite: JSON has no infinity, yet 1e400 parses as one
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is hint and not (seed and value < 0)
    if not ok:
        kind = "a non-negative integer" if seed else _KINDS[hint]
        raise ValueError(f"{what} {path} {value!r} is not {kind}")
    return value


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    num_classes: int
    per_class: int
    dim: int
    spread: float
    seed: int
    test_per_class: int | None = None  # per_class


@dataclass(frozen=True)
class IdxSpec:
    kind: str
    train_labels: str
    test_labels: str
    train_images: str | None = None  # needed when the split is read
    test_images: str | None = None


def dataset_from_spec(spec: dict, *splits: str) -> tuple[Dataset, ...]:
    """The named "train"/"test" splits of a "synthetic" (SyntheticSpec) or "idx" (IdxSpec) dataset spec.

    Blob splits share their class centers and come from one generation. An
    IDX split's num_classes comes from both label files, so a split lacking
    the top class agrees; each file is read once.
    """
    s = build_variant({"synthetic": SyntheticSpec, "idx": IdxSpec}, "kind", spec, "dataset")
    for split in splits:
        if split not in ("train", "test"):
            raise ValueError(f"dataset split {split!r} is not 'train' or 'test'")
    if s.kind == "synthetic":
        test_per_class = s.per_class if s.test_per_class is None else s.test_per_class
        try:
            train_ds, test_ds = split_blobs(
                s.num_classes, s.per_class, test_per_class, s.dim, s.spread, s.seed)
        except ValueError as exc:
            raise ValueError(f"synthetic dataset spec: {exc}") from exc
        return tuple(test_ds if split == "test" else train_ds for split in splits)
    loaded = {}
    for split in splits:
        if getattr(s, f"{split}_images") is None:
            raise ValueError(f"dataset config lacks '{split}_images'")
        loaded[split] = load_idx(getattr(s, f"{split}_images"), getattr(s, f"{split}_labels"))
        if not len(loaded[split]):
            raise ValueError(f"dataset split {split!r} has no rows")
    classes = [ds.num_classes for ds in loaded.values()]
    unread = [getattr(s, f"{split}_labels") for split in ("train", "test") if split not in loaded]
    if unread:
        classes.append(idx_num_classes(*unread))
    for ds in loaded.values():
        ds.num_classes = max(classes)
    return tuple(loaded[split] for split in splits)


@dataclass(frozen=True)
class RunConfig:
    dataset: dict
    hidden: tuple[int, ...] = (256, 256)
    method: str = "at"
    epochs: int = 30
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    attack_train: AttackSpec | None = None
    attack_eval: AttackSpec | None = None
    penalty: DecorrConfig = field(default_factory=DecorrConfig)
    trades_lambda: float = 1.0 / 6.0
    eval_subset: int = 1024

    def __post_init__(self):
        if self.method not in TRAIN_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.epochs < 0 or not self.lr > 0 or min(self.batch_size, self.eval_subset, *self.hidden) < 1:
            raise ValueError("epochs must be >= 0, lr > 0, batch_size, eval_subset, hidden >= 1")
        if not 0 <= self.momentum < 1 or not self.weight_decay >= 0:  # NaN fails these checks
            raise ValueError("momentum in [0,1), weight_decay >= 0")
        if self.method != "standard" and self.attack_train is None:
            raise ValueError(f"method {self.method!r} needs attack_train")
        if self.method.startswith("trades") and not self.trades_lambda > 0:
            raise ValueError("trades methods need trades_lambda > 0")
        if self.method.endswith("_decorr") and self.penalty.alpha <= 0:
            raise ValueError("decorr methods need penalty.alpha > 0")

    @classmethod
    def from_dict(cls, doc: dict, seed: int | None = None) -> "RunConfig":
        """The `train` command's config from its JSON object `doc` (see build_config)."""
        return build_config(cls, doc, "train", seed=seed)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvaluateConfig:
    checkpoint: str
    dataset: dict
    split: str = "test"
    attacks: tuple[AttackSpec, ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class StatsConfig:  # the fields of every method; STATS_CONFIGS adds each method's own
    checkpoint: str
    method: str
    dataset: dict
    split: str = "train"
    layer: int | None = None  # the output layer
    attack: AttackSpec | None = None
    seed: int = 0


@dataclass(frozen=True)
class LaplaceStatsConfig(StatsConfig):
    damping: float = 1e-3

    def __post_init__(self):
        if self.damping <= 0:
            raise ValueError(f"damping {self.damping!r} is not a finite number > 0")


@dataclass(frozen=True)
class SamplingStatsConfig(StatsConfig):
    sampling: SamplingConfig = field(default_factory=SamplingConfig)  # its seed is the run's


STATS_CONFIGS = {"laplace": LaplaceStatsConfig, "sampling": SamplingStatsConfig}


@dataclass(frozen=True)
class BoundConfig:
    checkpoint: str
    kind: str
    inputs: BoundInputs
    stats: tuple[str, ...] = ()  # stats CSVs, as `stats` writes them


@dataclass(frozen=True)
class RandomStudyConfig:
    family: str
    dim: int = 9
    n_samples: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class EquicorrelationStudyConfig:  # the closed forms draw nothing: no seed
    family: str
    dim: int = 9
    n_samples: int = 10_000
    r_range: tuple[float, float] = (0.0, 0.9)


@dataclass(frozen=True)
class PerturbationConfig:  # no sigma: the reported ratios are scale-free
    family: str
    h: int = 64
    trials: int = 200
    seed: int = 0


SIMULATE_CONFIGS = {"random": RandomStudyConfig, "equicorrelation": EquicorrelationStudyConfig,
                    "perturbation": PerturbationConfig}


@dataclass
class RunRecord:
    config: dict
    metrics: list[dict]
    checkpoint_path: str
    wall_train_s: list[float]
    wall_eval_s: list[float]

    @property
    def final(self) -> dict:
        return self.metrics[-1] if self.metrics else {}


def _lr_at(config: RunConfig, epoch: int) -> float:
    """Piecewise-constant schedule: /10 at 50% and again at 75% of epochs."""
    lr = config.lr
    if epoch >= config.epochs // 2:
        lr /= 10.0
    if epoch >= (3 * config.epochs) // 4:
        lr /= 10.0
    return lr


def _step_gradients(net, xb, yb, config: RunConfig, attack_seed: int):
    """Loss value and weight gradients for one minibatch under the method."""
    method = config.method
    penalty = config.penalty if method.endswith("_decorr") else None
    spec = config.attack_train
    if method.startswith("trades"):  # clean CE plus KL to the attacked input, both sides live
        tape_clean = forward(net, xb)
        kl_spec = dataclasses.replace(spec, loss="kl", random_start=True)  # KL gradient vanishes at x
        x_adv = pgd(net, xb, None, kl_spec, ref_logits=tape_clean.logits, seed=attack_seed)
        return trades_gradients(net, tape_clean, forward(net, x_adv), yb, config.trades_lambda, penalty)

    # cross-entropy on the attacked batch, or on the clean one for standard
    tape = forward(net, xb if method == "standard" else pgd(net, xb, yb, spec, seed=attack_seed))
    loss = cross_entropy(tape.logits, yb)
    dlogits = loss_logit_grad("cross_entropy", tape.logits, yb)
    if penalty is None:
        return loss, backward(net, tape, dlogits)
    # the clean tape enters through the penalty alone: zero logit gradient
    return loss, _tape_pair_gradients(net, forward(net, xb), np.zeros_like(dlogits), tape, dlogits, penalty)


def trades_gradients(net, tape_clean, tape_adv, labels, trades_lambda: float, penalty=None):
    """Value and exact weight gradients of the clean+KL objective.

    The tapes hold the clean and the (fixed) adversarial forward passes;
    the gradient flows through both. With a `penalty` DecorrConfig the
    gradient also holds alpha times `decorr_penalty` of the two tapes; the
    value stays the clean+KL objective. Each tape's log-softmax is formed
    once (`network._cross_entropy_and_kl`).
    """
    ce, kl, d_ce, d_kl_clean, d_kl_adv = _cross_entropy_and_kl(tape_clean.logits, tape_adv.logits, labels)
    inv_lambda = 1.0 / trades_lambda
    loss = ce + inv_lambda * kl
    d_clean = d_ce + inv_lambda * d_kl_clean
    d_adv = inv_lambda * d_kl_adv
    return loss, _tape_pair_gradients(net, tape_clean, d_clean, tape_adv, d_adv, penalty)


def _tape_pair_gradients(net, tape_clean, d_clean, tape_adv, d_adv, penalty):
    """Summed weight gradients of one reverse pass per tape.

    With a `penalty` config each pass also carries its tape's alpha-scaled
    penalty activation gradients.
    """
    tapes = ((tape_clean, d_clean), (tape_adv, d_adv))
    # both penalties before both passes: each kind of small kernel runs back to back
    dacts = [None if penalty is None else penalty_dacts(tape, penalty) for tape, _ in tapes]
    clean, adv = (backward(net, tape, dlogits, d) for (tape, dlogits), d in zip(tapes, dacts))
    return [g1 + g2 for g1, g2 in zip(clean, adv)]


def _eval_rows(ds: Dataset, cap: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The inputs and labels every epoch's eval scores: all rows, or `cap` drawn without replacement."""
    if len(ds) <= cap:
        return ds.inputs, ds.labels
    idx = np.random.default_rng(seed).choice(len(ds), size=cap, replace=False)
    return ds.inputs[idx], ds.labels[idx]


def _accuracies(net, x, y, clean_logits, attacks, seeds, compact) -> list[float]:
    """Clean accuracy from `clean_logits`, then each attack's robust accuracy:
    the share of rows that are right on the clean input and on every
    iterate (`first_flips`), in `accuracy`'s arithmetic."""
    records = (first_flips(net, x, y, spec, seed, clean_logits, compact) for spec, seed in zip(attacks, seeds))
    return [accuracy(clean_logits, y), *(1.0 - float(np.mean(r != NEVER)) for r in records)]


def _epoch_metrics(net, eval_rows: dict, config: RunConfig, master: int):
    """Clean and robust accuracy on the "train" and "test" `(x, y)` of `eval_rows`, and the penalty."""
    rows = {}
    attacks = () if config.attack_eval is None else (config.attack_eval,)
    eval_seed = epoch_seed_from(master, _EVAL, 1)
    tapes = {}
    for tag, (x, y) in eval_rows.items():
        tapes[tag] = forward(net, x)
        clean, *robust = _accuracies(net, x, y, tapes[tag].logits, attacks, (eval_seed,), compact=True)
        rows[f"clean_{tag}"], rows[f"pgd_{tag}"] = clean, robust[0] if robust else clean
    # clean-side penalty of the last layer, comparable across methods
    try:
        rows["penalty"] = penalty_and_grad(tapes["train"].activations[-2], config.penalty)[0]
    except NotPositiveDefinite:
        rows["penalty"] = float("nan")  # degenerate activations: metric undefined
    return rows


def train(config: RunConfig, out_dir) -> RunRecord:
    """Run one training job and write its artifacts into out_dir.

    Writes metrics.csv, checkpoint.json, run.json (all deterministic given
    the config) and timing.csv (wall-clock, not deterministic), one row per
    epoch in each CSV. Every epoch ends with an eval on the same rows,
    drawn once. A zero-epoch run is one pass without steps: the He init's
    eval, written as epoch 0 with a NaN train_loss and a wall_train_s of
    0.0. A non-finite loss, or non-finite logits (FloatingPointError), in
    an epoch's steps or eval drops that epoch: the last epoch-end
    checkpoint is kept and DivergedTraining is raised after the artifacts
    are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    master = config.seed
    train_ds, test_ds = dataset_from_spec(config.dataset, "train", "test")
    dims = [train_ds.dim, *config.hidden, train_ds.num_classes]
    net = Network.he_init(dims, seed=epoch_seed_from(master, _INIT))
    velocity = [np.zeros_like(w) for w in net.weights]
    eval_rows = {tag: _eval_rows(ds, config.eval_subset, epoch_seed_from(master, _EVAL, 0))
                 for tag, ds in (("train", train_ds), ("test", test_ds))}

    metrics: list[dict] = []
    wall_train: list[float] = []
    wall_eval: list[float] = []
    checkpoint_path = out / "checkpoint.json"
    good_net, diverged = net, False
    trained = config.epochs > 0  # else one pass without steps, numbered 0
    for epoch in range(config.epochs or 1):
        lr = _lr_at(config, epoch)
        losses = []
        try:
            t0 = time.perf_counter()
            shuffled = batches(train_ds, config.batch_size, epoch_seed_from(master, _SHUFFLE, epoch))
            for step, (xb, yb) in enumerate(shuffled if trained else ()):
                loss, grads = _step_gradients(net, xb, yb, config, epoch_seed_from(master, _ATTACK, epoch, step))
                if not np.isfinite(loss):
                    raise FloatingPointError("non-finite loss")
                losses.append(loss)
                new_weights = []
                for w, g, v in zip(net.weights, grads, velocity):
                    v[...] = config.momentum * v + g + config.weight_decay * w
                    new_weights.append(w - lr * v)
                net = net.with_weights(new_weights)
            t1 = time.perf_counter()
            row = {"epoch": epoch + trained, "train_loss": float(np.mean(losses)) if trained else float("nan")}
            row |= _epoch_metrics(net, eval_rows, config, master)
        except FloatingPointError:  # forward's on non-finite logits, or the loss check's
            diverged = True
            break
        wall_train.append(t1 - t0 if trained else 0.0)
        wall_eval.append(time.perf_counter() - t1)
        metrics.append(row)
        good_net = net

    save_checkpoint(good_net, checkpoint_path)
    write_csv(out / "metrics.csv", METRICS_HEADER, ([r[k] for k in METRICS_HEADER] for r in metrics))
    write_json(out / "run.json", {"config": config.to_dict(), "epochs_completed": len(metrics),
                                  "final_metrics": metrics[-1] if metrics else None})
    # wall-clock is environment noise: kept out of the deterministic set
    write_csv(out / "timing.csv", ("epoch", "wall_train_s", "wall_eval_s"),
              ((r["epoch"], f"{a:.6f}", f"{b:.6f}") for r, a, b in zip(metrics, wall_train, wall_eval)))
    if diverged:
        raise DivergedTraining(f"non-finite loss or logits; last good checkpoint kept at {checkpoint_path}")
    return RunRecord(config.to_dict(), metrics, str(checkpoint_path), wall_train, wall_eval)


def evaluate(net: Network, ds: Dataset, attacks: list[AttackSpec], seed: int = 0) -> list[dict]:
    """Clean accuracy plus robust accuracy under each attack spec.

    A row counts as robust to an attack only if it is right on the clean
    input and on every iterate (`first_flips`). Every row takes every step
    (no compaction), so a call costs the same whatever the net's
    robustness. Attack i starts from the eval sub-stream (seed, _EVAL, i),
    so random-start attacks listed more than once are independent restarts.
    """
    seeds = [epoch_seed_from(seed, _EVAL, i) for i in range(len(attacks))]
    clean, *robust = _accuracies(net, ds.inputs, ds.labels, forward(net, ds.inputs).logits, attacks, seeds,
                                 compact=False)
    rows = [{
        "attack": "clean", "norm": "", "epsilon": 0.0, "steps": 0, "step_size": 0.0,
        "loss": "", "accuracy": clean,
    }]
    for spec, acc in zip(attacks, robust):
        rows.append({
            "attack": "pgd" if spec.loss == "cross_entropy" else spec.loss,
            "norm": spec.norm, "epsilon": spec.epsilon, "steps": spec.steps,
            "step_size": spec.step_size, "loss": spec.loss, "accuracy": acc,
        })
    return rows


EVALUATE_HEADER = ("attack", "norm", "epsilon", "steps", "step_size", "loss", "accuracy")


def write_evaluation_csv(path, rows):
    write_csv(path, EVALUATE_HEADER, ([row[k] for k in EVALUATE_HEADER] for row in rows))
