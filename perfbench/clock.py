"""Speed calibration for timings taken on a machine whose speed drifts.

On a shared virtual machine the CPU speed can drift by a fifth within
seconds, and that drift, not the program, dominates the spread between
runs. It slows a fixed pure-Python loop as much as it slows advlab's numpy
code. So the benchmark times the loop right before and right after each
timed operation and scales the operation's time by NOMINAL_S over the
loop's mean time: timings read as seconds on a machine where the loop takes
NOMINAL_S. The loop needs nothing but the interpreter, so it also brackets
the import of numpy and advlab.
"""

import time

LOOP = 30_000
NOMINAL_S = 1.7e-3  # the loop's time on the 2-vCPU x86-64 VM the bounds were set on


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


def probe() -> float:
    """Best of three timings of the loop, so an interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probes."""
    return NOMINAL_S / ((before + after) / 2)
