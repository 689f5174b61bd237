"""Compare two git revisions on the benchmark, in alternating pairs of runs.

    python3 scripts/ab_bench.py PARENT CHANGE --workloads attack train --pairs 10 --seed 501 \
        [--json BENCH_<n>.json]

Each revision is exported with `git archive` into a temporary directory, and
the command in `BENCHMARK.json` (`perfbench/run.py`) runs from each export:
for every workload, `--pairs` pairs of one parent run and one change run on
the same seed (`--seed` plus the pair index), the side that goes first
alternating from pair to pair. Runs are sequential, and each lasts the
`run_seconds` of `BENCHMARK.json`.

For each workload and each end-to-end metric of `BENCHMARK.json` it prints
both medians, the relative change of the medians, the parent's quartile
spread (IQR) as a share of its median, how many pairs the change won
(ties count for neither side) and the exact two-sided sign-test p-value of
those wins against the losses, tied pairs dropped: the chance of a split at
least that uneven if either side were equally likely to win a pair. It also
says in how many pairs the `digests` lines, the hashes of every deterministic
artifact, were equal.

A run is malformed when it exits non-zero, or its last stdout line is not a
JSON result with `failed` 0 and every end-to-end metric present with a finite
value. The script exits 1 when any run was malformed, after printing the rest.

`--json PATH` also writes the report as JSON: both revisions (as given and
as commits), per workload and metric the medians, the change, the parent's
IQR, the win count and the sign-test p-value, the number of pairs whose
digests were equal and the names that differed, the count of malformed runs,
and the `env` line of the first well-formed run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Malformed(ValueError):
    """A benchmark run did not end with a well-formed, failure-free result."""


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(line: str):
    """`json.loads` that rejects the NaN, Infinity and -Infinity it accepts by default."""
    return json.loads(line, parse_constant=_reject_constant)


def parse_run(stdout: str, metric_names) -> tuple[dict, dict | None, dict | None]:
    """The end-to-end metric values, the digests and the env of one run's standard output.

    Raises `Malformed` unless the last line is a JSON result object with
    `failed` 0 and every name of `metric_names` in its `metrics` with a
    finite numeric value. A missing digests or env line gives None.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise Malformed("no output")
    try:
        result = strict_json(lines[-1])
    except ValueError as exc:
        raise Malformed(f"last line is not a JSON result: {exc}: {lines[-1][:120]!r}") from exc
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise Malformed(f"last line is not a result object: {lines[-1][:120]!r}")
    if result.get("failed") != 0:
        raise Malformed(f"failed is {result.get('failed')!r}, not 0")
    values = {}
    for name in metric_names:
        entry = result["metrics"].get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise Malformed(f"metric {name} is missing or not finite: {entry!r}")
        values[name] = float(value)
    found = {"digests": None, "env": None}
    for line in lines[:-1]:
        try:
            doc = strict_json(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            found.update({key: doc[key] for key in found if key in doc})
    return values, found["digests"], found["env"]


def export(rev: str, dest: Path) -> Path:
    """Extract the tree of git revision `rev` into `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
             metric_names) -> tuple[dict, dict | None, dict | None]:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise Malformed(f"exit code {proc.returncode}: {tail[0][:200]}")
    return parse_run(proc.stdout, metric_names)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of `wins` against `losses`; 1 when both are 0."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def summarize(metrics: list[dict], pairs: list[dict], digests_moved: list[set]) -> dict:
    """One workload's comparison over the pairs in which both runs were well formed."""
    table = {}
    for metric in metrics if pairs else ():
        name = metric["name"]
        before = [p["parent"][name] for p in pairs]
        after = [p["change"][name] for p in pairs]
        mb, ma = statistics.median(before), statistics.median(after)
        q1, q3 = quartiles(before)
        sign = -1.0 if metric["better"] == "lower" else 1.0
        gains = [sign * (a - b) for a, b in zip(after, before)]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)  # ties count for neither
        table[name] = {
            "parent_median": mb, "change_median": ma, "change_pct": 100 * (ma - mb) / mb,
            "parent_iqr_pct": 100 * (q3 - q1) / abs(mb),
            "wins": wins, "sign_p": sign_test_p(wins, losses),
        }
    return {"pairs": len(pairs), "metrics": table,
            "digests_equal_pairs": sum(not m for m in digests_moved),
            "digests_differing": sorted(set().union(*digests_moved))}


def report(workload: str, summary: dict) -> list[str]:
    """The printed table of one workload's `summarize` record."""
    n = summary["pairs"]
    out = [f"== {workload}: {n} pairs"]
    if not n:
        return out
    out.append(f"{'metric':24} {'parent':>12} {'change':>12} {'change%':>8} {'IQR%':>6} wins  sign-p")
    for name, m in summary["metrics"].items():
        out.append(f"{name:24} {m['parent_median']:12.6g} {m['change_median']:12.6g} "
                   f"{m['change_pct']:+7.1f}% {m['parent_iqr_pct']:5.1f}% {m['wins']}/{n} "
                   f"p={m['sign_p']:.3g}")
    moved = summary["digests_differing"]
    out.append(f"digests equal in {summary['digests_equal_pairs']}/{n} pairs"
               + (f"; differing: {', '.join(moved)}" if moved else ""))
    return out


def moved_digests(parent: dict | None, change: dict | None) -> set:
    """Names of the artifacts whose digests differ, or {'<no digests line>'} when one is missing."""
    if parent is None or change is None:
        return {"<no digests line>"}
    return {k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k)}


def resolve(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the baseline")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--json", type=Path, help="also write the report to this JSON file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]
    doc = {"parent": {"rev": args.parent, "commit": resolve(args.parent)},
           "change": {"rev": args.change, "commit": resolve(args.change)},
           "seed": args.seed, "run_seconds": bench["run_seconds"], "env": None,
           "malformed": 0, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {side: export(rev, Path(tmp) / side)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        for workload in args.workloads:
            pairs, digests_moved = [], []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                values, digests = {}, {}
                for side in order:
                    try:
                        values[side], digests[side], env = run_once(
                            trees[side], bench["command"], workload, seed, bench["run_seconds"], names)
                    except Malformed as exc:
                        doc["malformed"] += 1
                        print(f"MALFORMED {workload} {side} seed {seed}: {exc}", flush=True)
                        continue
                    doc["env"] = doc["env"] or env
                    print(f"{workload} {side} seed {seed}: {json.dumps(values[side])}", flush=True)
                if len(values) == 2:
                    pairs.append(values)
                    digests_moved.append(moved_digests(digests["parent"], digests["change"]))
            doc["workloads"][workload] = summarize(metrics, pairs, digests_moved)
            print("\n".join(report(workload, doc["workloads"][workload])), flush=True)
    if args.json:
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if doc["malformed"]:
        print(f"{doc['malformed']} malformed runs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
