"""The benchmark's own code, run once at a small size.

`perfbench/` drives the public API with its own checks on every output;
this runs its set-up, one round and one traced round on a small workload,
so a change that breaks what the benchmark calls fails here.
"""

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Workload(
    "smoke", dim=32, train_per_class=20, test_per_class=20, evaluate_rows=50, sampling_samples=10,
    calls={stage: 1 for stage in ("train", "evaluate", "laplace", "sampling", "bound", "simulate")},
)


def test_a_round_and_a_traced_round_fail_no_operation(tmp_path):
    inputs = workloads.prepare(SMALL, 0, tmp_path / "setup")
    bench = workloads.Bench(SMALL, 0, inputs, tmp_path / "rounds", calibrated=False)
    bench.round()
    tally = defaultdict(int)
    with layers.tracer(tally):
        bench.round()
    assert bench.attempted > 0
    assert bench.failed == 0, f"{bench.failed} of {bench.attempted} operations failed: see stderr"
    assert tally["attacked"] > 0  # the traced round ran its attack checks
