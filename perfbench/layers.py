"""The traced run: per-layer metrics from the spans of `spans.Tracer`.

Values are for one traced set-up plus one round, the mean of the traced
rounds. Counts of calls and work do not depend on the seed or the machine,
and every traced round must give the same ones.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import advlab
import advlab.network as network
import spans
import workloads

UNCOVERED_LIMIT = 0.10  # share of traced wall time outside every span


def _gemm(net, rows: int, layers=None) -> int:
    """Flops of the forward GEMMs through the first `layers` layers."""
    return 2 * rows * sum((l.in_dim + 1) * l.out_dim for l in net.layers[:layers])


# span -> (name of its work count, (bound args, result) -> (work, computed GEMM flops));
# a reverse pass forms the weight and the input gradient of every layer it crosses
COUNTERS = {
    "network.forward": ("rows", lambda a, _: (len(a["batch"]), _gemm(a["net"], len(a["batch"])))),
    "network.backward": ("rows", lambda a, _: (
        a["tape"].batch_size, 2 * _gemm(a["net"], a["tape"].batch_size))),
    "network.input_gradient": ("rows", lambda a, _: (
        len(a["batch"]), 3 * _gemm(a["net"], len(a["batch"])))),
    "network.backward_from_activation": ("rows", lambda a, _: (
        a["tape"].batch_size, 2 * _gemm(a["net"], a["tape"].batch_size, a["act_index"]))),
    "attacks.pgd": ("row_steps", lambda a, _: (len(a["batch"]) * a["spec"].steps, 0)),
    "decorr.hessian_kron_factors": ("rows", lambda a, _: (a["tape"].batch_size, 0)),
    "data.load_idx": ("bytes", lambda a, _: (
        os.path.getsize(a["images_path"]) + os.path.getsize(a["labels_path"]), 0)),
    "weight_stats.sample_weight_perturbations": ("accepted", lambda a, deltas: (len(deltas), 0)),
}
GENERATOR_WORK = "count"  # items a traced generator yielded
WORK_NAMES = {name for name, _ in COUNTERS.values()} | {GENERATOR_WORK}

PER_LAYER = (
    ("network.forward.calls", "count"),
    ("network.forward.rows", "count"),
    ("network.forward.self_s", "s"),
    ("network.backward.calls", "count"),
    ("network.backward.self_s", "s"),
    ("network.input_gradient.calls", "count"),
    ("network.input_gradient.self_s", "s"),
    ("network.backward_from_activation.calls", "count"),
    ("network.backward_from_activation.self_s", "s"),
    ("network.gemm_gflop", "GFLOP-computed"),
    ("network.save_checkpoint.s", "s"),
    ("network.load_checkpoint.s", "s"),
    ("attacks.pgd.calls", "count"),
    ("attacks.pgd.row_steps", "count"),
    ("attacks.pgd.self_s", "s"),
    ("attacks.pgd.success_ratio", "ratio"),
    ("decorr.calls", "count"),
    ("decorr.self_s", "s"),
    ("decorr.hessian_kron_factors.calls", "count"),
    ("decorr.hessian_kron_factors.rows", "count"),
    ("decorr.hessian_kron_factors.self_s", "s"),
    ("linalg.inverse_psd.calls", "count"),
    ("linalg.inverse_psd.s", "s"),
    ("linalg.logdet_psd.calls", "count"),
    ("linalg.spectral_norm.calls", "count"),
    ("linalg.spectral_norm.s", "s"),
    ("linalg.normalize_to_correlation.calls", "count"),
    ("linalg.normalize_to_correlation.s", "s"),
    ("linalg.random_correlation.calls", "count"),
    ("linalg.random_correlation.s", "s"),
    ("weight_stats.corr_from_laplace.self_s", "s"),
    ("weight_stats.laplace_stats_from_factors.s", "s"),
    ("weight_stats.sample_weight_perturbations.self_s", "s"),
    ("weight_stats.sampling.forward_per_accept", "ratio"),
    ("weight_stats.corr_from_samples.s", "s"),
    ("weight_stats.simulate_correlation_study.self_s", "s"),
    ("weight_stats.check_perturbation_bound.self_s", "s"),
    ("bounds.evaluate_bound.calls", "count"),
    ("bounds.evaluate_bound.self_s", "s"),
    ("train.train.self_s", "s"),
    ("train.trades_gradients.calls", "count"),
    ("train.trades_gradients.self_s", "s"),
    ("train.evaluate.self_s", "s"),
    ("data.split_blobs.s", "s"),
    ("data.load_idx.s", "s"),
    ("data.load_idx.bytes", "B"),
    ("data.batches.count", "count"),
    ("other.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def tracer(tally=None) -> spans.Tracer:
    """Spans on every advlab module and on `workloads`, with the attack checks.

    Every adversarial batch is checked against its epsilon ball and the
    [0, 1] box. With a `tally`, the rows attacked and the rows the attack
    turned (misclassified; for the KL attack, prediction changed) are added.
    """

    def pgd_check(args, adv):
        spec, origin = args["spec"], np.asarray(args["batch"], dtype=float)
        delta = adv - origin
        if spec.norm == "linf":
            inside = np.abs(delta).max(initial=0.0) <= spec.epsilon * (1 + 1e-12)
        else:
            inside = np.linalg.norm(delta, axis=1).max(initial=0.0) <= spec.epsilon * (1 + 1e-9)
        workloads.check(bool(inside), "adversarial batch leaves its epsilon ball")
        workloads.check(adv.min(initial=0.0) >= 0.0 and adv.max(initial=0.0) <= 1.0,
                        "adversarial batch leaves the [0, 1] box")
        if tally is None:
            return
        net, labels = args["net"], args.get("labels")
        if labels is None:
            ref = args.get("ref_logits")
            labels = (network.forward(net, origin).logits if ref is None else ref).argmax(axis=1)
        predicted = network.forward(net, adv).logits.argmax(axis=1)
        tally["attacked"] += len(origin)
        tally["turned"] += int((predicted != np.asarray(labels)).sum())

    result = spans.Tracer(counters={name: count for name, (_, count) in COUNTERS.items()},
                          checks={"attacks.pgd": pgd_check})
    result.install([*spans.advlab_modules(advlab), workloads])
    return result


def totals(tracer: spans.Tracer) -> dict:
    """Calls, self time, inclusive time and work per span name, plus derived sums."""
    out = defaultdict(float)
    in_sampling = []
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        inside = s.name == "weight_stats.sample_weight_perturbations" or (
            s.parent >= 0 and in_sampling[s.parent])
        in_sampling.append(inside)
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.s"] += s.end - s.start
        if s.work:
            out[f"{s.name}.{COUNTERS.get(s.name, (GENERATOR_WORK,))[0]}"] += s.work
        out["network.gemm_gflop"] += s.flops / 1e9
        if s.name.startswith("decorr.") and s.caller == "train":
            out["decorr.calls"] += 1
            out["decorr.self_s"] += self_s
        if inside and s.name == "network.forward":
            out["weight_stats.sampling.forwards"] += 1
    return out


def exact(table: dict) -> dict:
    """The counts in a totals table: they must repeat exactly."""
    return {k: v for k, v in table.items()
            if k.rsplit(".", 1)[-1] in WORK_NAMES | {"calls"} or k == "network.gemm_gflop"}


def trace_run(bench, w, seed: int, seconds: float) -> dict:
    """Trace one set-up and pairs of untraced and traced rounds; per-layer metrics.

    Adds two operations to `bench`: the counters repeat exactly between
    traced rounds, and the time outside every span stays under
    UNCOVERED_LIMIT of the traced wall time.
    """
    tally = defaultdict(int)
    with tracer(tally) as setup:
        t0 = time.perf_counter()
        workloads.prepare(w, seed, Path("setup-traced"))
        setup_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    bench.round()
    plain = [time.perf_counter() - t0]
    traced, rounds = [], []
    for i in range(max(2, int(seconds / (2 * plain[0])))):
        if i:
            t0 = time.perf_counter()
            bench.round()
            plain.append(time.perf_counter() - t0)
        with tracer(tally) as round_tracer:
            t0 = time.perf_counter()
            bench.round()
            traced.append(time.perf_counter() - t0)
        rounds.append(round_tracer)

    tables = [totals(t) for t in rounds]
    counts = [exact(t) for t in tables]
    bench.attempted += 2
    if any(c != counts[0] for c in counts):
        print("counters differ between identical traced rounds", file=sys.stderr)
        bench.failed += 1
    other = setup_wall - setup.covered() + statistics.mean(
        wall - r.covered() for wall, r in zip(traced, rounds))
    wall = setup_wall + statistics.mean(traced)
    if other > UNCOVERED_LIMIT * wall:
        print(f"time outside spans is {other / wall:.3f} of the traced wall time, "
              f"over {UNCOVERED_LIMIT}", file=sys.stderr)
        bench.failed += 1

    table = totals(setup)
    for t in tables:
        for name, value in t.items():
            table[name] += value / len(tables)
    accepted = table["weight_stats.sample_weight_perturbations.accepted"]
    table["weight_stats.sampling.forward_per_accept"] = (
        table["weight_stats.sampling.forwards"] / accepted if accepted else 0.0)
    table["attacks.pgd.success_ratio"] = tally["turned"] / max(tally["attacked"], 1)
    table["other.self_s"] = other
    table["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    print_detail = {"traced_rounds": len(rounds), "counts": counts[0], "traced_s": traced,
                    "untraced_s": plain, "uncovered_share": other / wall}
    return {"metrics": {name: {"value": table.get(name, 0.0), "unit": unit}
                        for name, unit in PER_LAYER},
            "detail": print_detail}
