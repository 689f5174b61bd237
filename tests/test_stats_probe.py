"""Every numeric field of a stats CSV, set to values no estimate can write.

`advlab bound` with the `corr` and `corr_mixed` kinds reads the stats CSVs
that `advlab stats` writes. The files here are the Laplace stats (clean and
adversarial) of a tiny trained checkpoint's output layer, plus an
identity-correlation record for its hidden layer. Each run replaces one
field of one Laplace file. The run must exit 0, 2 or 4 with no exception
or warning escaping `main`; a failure prints exactly one stderr line and
writes no `bound.json`, and exit 0 needs a finite `complexity_term`.
"""

import json
import math

import pytest

from advlab.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

DATASET = {
    "kind": "synthetic", "num_classes": 3, "per_class": 10, "dim": 5,
    "spread": 0.08, "seed": 2, "test_per_class": 5,
}
ATTACK = {"epsilon": 0.08, "step_size": 0.02, "steps": 3}
TRAIN = {
    "dataset": DATASET, "hidden": [3], "method": "at", "epochs": 2, "batch_size": 10,
    "lr": 0.05, "seed": 4, "attack_train": ATTACK, "eval_subset": 30,
}
INPUTS = {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0, "epsilon": 0.08}
NUMERIC = ("layer", "dim", "sample_count", "lam_max", "lam_min", "lamc_max", "lamr_max",
           "det_lb", "logdet", "frob_sq")
PROBES = ("nan", "inf", "-inf", "-1", "0", "0.5", "2", "1e300")
KINDS = ("corr", "corr_mixed")


@pytest.fixture(scope="module")
def stats_files(tmp_path_factory):
    """(checkpoint, [hidden-layer file, clean output file, adversarial output file])."""
    root = tmp_path_factory.mktemp("stats-probe")
    assert run(root, "train", TRAIN, root / "run") == EXIT_OK
    checkpoint = str(root / "run" / "checkpoint.json")
    stats = {"checkpoint": checkpoint, "dataset": DATASET, "method": "laplace", "attack": ATTACK}
    assert run(root, "stats", stats, root / "stats") == EXIT_OK
    laplace = [root / "stats" / f"stats_2_laplace_{tag}.csv" for tag in ("clean", "adversarial")]
    identity = {name: "1" for name in ("layer", "lam_max", "lam_min", "lamc_max", "lamr_max", "det_lb")}
    hidden = replaced(laplace[0], root / "stats" / "stats_1_identity.csv",
                      **identity, dim="18", frob_sq="18", logdet="0")
    return checkpoint, [hidden, *laplace]


def run(root, command, doc, out) -> int:
    path = root / f"{command}.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path), "--out", str(out)])


def replaced(src, dst, **changes):
    """Write `src` to `dst` with cells of its single row replaced."""
    header, row = src.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(","))) | changes
    dst.write_text(f"{header}\n{','.join(cells.values())}\n")
    return dst


def bound(tmp_path, checkpoint, kind, paths, out):
    """(exit code, bound.json or None) of one `bound` run; an exception escaping main propagates."""
    doc = {"checkpoint": checkpoint, "kind": kind, "inputs": INPUTS, "stats": [str(p) for p in paths]}
    code = run(tmp_path, "bound", doc, out)
    report = out / "bound.json"
    return code, json.loads(report.read_text()) if report.exists() else None


def probe_values(field, cells):
    if field in ("layer", "dim"):
        return PROBES + (str(int(cells[field]) - 1), str(int(cells[field]) + 1))
    return PROBES


@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line
@pytest.mark.parametrize("kind", KINDS)
def test_no_stats_value_escapes_bound(tmp_path, capsys, stats_files, kind):
    checkpoint, files = stats_files
    assert bound(tmp_path, checkpoint, kind, files, tmp_path / "base")[0] == EXIT_OK
    failures, runs = [], 0
    for target in (1, 2):
        header, row = files[target].read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        for field in NUMERIC:
            for value in probe_values(field, cells):
                runs += 1
                paths = list(files)
                paths[target] = replaced(files[target], tmp_path / "probe.csv", **{field: value})
                capsys.readouterr()
                case = f"{files[target].name} {field}={value}"
                try:
                    code, report = bound(tmp_path, checkpoint, kind, paths, tmp_path / f"out{runs}")
                except Exception as exc:  # an exception escaping main is the finding
                    failures.append(f"{case}: {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                if code == EXIT_OK:
                    if report is None or not math.isfinite(report["complexity_term"]):
                        failures.append(f"{case}: exit 0, complexity_term "
                                        f"{report and report['complexity_term']}")
                elif code not in (EXIT_CONFIG, EXIT_IO) or err.count("\n") != 1 or report:
                    failures.append(f"{case}: exit {code}, stderr {err!r}, bound.json {bool(report)}")
    assert runs == 2 * (len(NUMERIC) * len(PROBES) + 4)
    assert not failures, "\n".join(failures)


UNDERFLOW = {"lam_min": "0.5", "logdet": "-1e308", "det_lb": "0"}


@pytest.mark.parametrize("kind, edits, code, message", [
    ("corr", {1: {"lamc_max": "nan"}}, EXIT_IO, "lamc_max nan outside"),
    ("corr_mixed", {1: {"lamc_max": "nan"}}, EXIT_IO, "lamc_max nan outside"),
    ("corr", {1: {"logdet": "50"}}, EXIT_IO, "logdet 50.0 outside"),
    ("corr_mixed", {2: {"lam_max": "0.95"}}, EXIT_IO, "lam_max 0.95 outside"),
    ("corr", {1: {"layer": "3"}}, EXIT_CONFIG, "statistics cover layers [1, 2, 3], not 1..2"),
    # an identity record of the wrong size: consistent in itself, wrong for the checkpoint
    ("corr", {0: {"dim": "999", "frob_sq": "999"}}, EXIT_CONFIG, "has dim 999; layer 1 has 18 weights"),
    # two layers' -logdet of 1e308 each would sum to an infinite complexity term
    ("corr", {0: UNDERFLOW, 1: UNDERFLOW}, EXIT_IO, "logdet -1e+308 outside"),
], ids=["nan-lamc-corr", "nan-lamc-corr-mixed", "positive-logdet", "lam-max-below-one",
        "layer-beyond-depth", "dim-mismatch", "logdet-below-dim-log-lam-min"])
def test_stats_no_estimate_writes_are_rejected(tmp_path, capsys, stats_files, kind, edits, code,
                                               message):
    checkpoint, files = stats_files
    paths = list(files)
    for target, changes in edits.items():
        paths[target] = replaced(files[target], tmp_path / f"probe{target}.csv", **changes)
    capsys.readouterr()
    assert bound(tmp_path, checkpoint, kind, paths, tmp_path / "out") == (code, None)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
