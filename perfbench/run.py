"""advlab benchmark.

    python3 perfbench/run.py --workload {train,attack,analyze} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: advlab is imported from `src/`, a
single BLAS thread is forced, inputs are generated from the seed, and every
artifact goes to a scratch directory under `perfbench/.work/` that is
removed at exit. The last line of standard output is the result JSON:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
See perfbench/README.md for the workloads and metrics.
"""

import time

import clock

_START_PROBE = clock.probe()
_START = time.perf_counter()

import os  # noqa: E402

# before numpy loads: advlab's runtime fallback needs threadpoolctl, which may be absent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3
MIN_ROUNDS = 2

END_TO_END = (
    ("at_decorr_epoch_s", "s"),
    ("trades_decorr_epoch_s", "s"),
    ("eval_epoch_s", "s"),
    ("attack_row_steps_per_s", "rowsteps/s"),
    ("stats_laplace_s", "s"),
    ("stats_sampling_s", "s"),
    ("bound_s", "s"),
    ("simulate_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_advlab():
    """Import advlab from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import advlab
    except ImportError as exc:
        sys.exit(f"cannot import advlab from {SRC}: {exc}")
    if not Path(advlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"advlab was imported from {advlab.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    for pct in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            break
    return out


def timed_rounds(bench, seconds: float) -> int:
    """Run rounds while the next one is expected to end within `seconds`."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        bench.round()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def end_to_end(bench, seconds: float, import_s: float, setups: list[float]) -> dict:
    rounds = timed_rounds(bench, seconds)
    # a metric whose every operation failed has no samples and is left out
    stats = {name: summary(bench.samples[name]) for name, _ in END_TO_END if bench.samples[name]}
    metrics = {
        "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "unit": "MB",
        },
    }
    for name, unit in END_TO_END:
        if name in stats:
            metrics[name] = {"value": stats[name]["median"], "unit": unit}
    print(json.dumps({"detail": {
        "rounds": rounds, "import_s": import_s, "setup_repeats_s": setups, **stats,
        "unscaled_medians": {name: statistics.median(bench.raw[name]) for name in stats},
        "probe_median_s": statistics.median(bench.probes),
    }}))
    return metrics


def measure(args, w, import_s: float) -> dict:
    import layers
    import workloads

    setups, inputs = [], []
    for i in range(SETUP_REPEATS):
        before = clock.probe()
        t0 = time.perf_counter()
        inputs.append(workloads.prepare(w, args.seed, Path(f"setup{i}")))
        setups.append((time.perf_counter() - t0) * clock.factor(before, clock.probe()))
    checkpoints = {i.checkpoint_sha256 for i in inputs}
    bench = workloads.Bench(w, args.seed, inputs[-1], Path("rounds"), calibrated=not args.trace)
    # a set-up fails when its checkpoint is near chance or differs from another set-up's
    for i in inputs:
        bench.attempted += 1
        if len(checkpoints) > 1 or i.clean_test < workloads.CLEAN_FLOOR:
            print(f"set-up checkpoint: clean_test {i.clean_test}, {len(checkpoints)} digests",
                  file=sys.stderr)
            bench.failed += 1

    # not timed: fills caches and checks every adversarial batch, which needs the spans
    with layers.tracer():
        bench.round()
    bench.clear_samples()

    if args.trace:
        traced = layers.trace_run(bench, w, args.seed, args.seconds)
        print(json.dumps({"detail": traced["detail"]}))
        metrics = traced["metrics"]
    else:
        metrics = end_to_end(bench, args.seconds, import_s, setups)
    print(json.dumps({"digests": {"setup/checkpoint.json": sorted(checkpoints),
                                  **bench.digests}}))
    return {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_advlab()
    import_s = (time.perf_counter() - _START) * clock.factor(_START_PROBE, clock.probe())
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"env": environment(args.seed)}))
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    home = Path.cwd()
    os.chdir(work)  # artifacts name their inputs by relative path, the same on every run
    try:
        result = measure(args, workloads.WORKLOADS[args.workload], import_s)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
