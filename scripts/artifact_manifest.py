"""Print a sha256 manifest of the artifacts the eight demo configs write, or check it.

Runs the README demo (the `configs/*.json` commands) through
`advlab.cli.main` in a temporary directory, with the advlab of this
checkout's `src/`, and prints the environment as `# <field> <value>`
lines (python, numpy, scipy and numpy's BLAS), then one
`<sha256>  <run dir>/<file>` line per artifact. `timing.csv` holds
wall-clock times and is left out. Equal manifests from two checkouts mean
byte-identical artifacts:

    python3 scripts/artifact_manifest.py > before.txt   # in one checkout
    python3 scripts/artifact_manifest.py > after.txt    # in the other
    diff before.txt after.txt

`scripts/demo_manifest.txt` is this checkout's manifest. A change that
moves artifact bytes writes it anew in the same commit:

    python3 scripts/artifact_manifest.py > scripts/demo_manifest.txt

`--check` compares the artifacts with it: exit 0 when every line is
equal, 1 (printing each differing line) when not, and 2 when this
environment differs from the recorded one, naming the field, because
another numpy, scipy or BLAS may round differently.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from advlab.cli import main  # noqa: E402

MANIFEST = ROOT / "scripts" / "demo_manifest.txt"

# the README demo in order: the later commands read runs/demo/checkpoint.json
DEMO = (
    ("train", "train_at_decorr.json", "demo"),
    ("evaluate", "evaluate.json", "demo-eval"),
    ("stats", "stats_laplace.json", "demo-stats"),
    ("stats", "stats_sampling.json", "demo-stats"),
    ("bound", "bound_xiao.json", "demo-bound"),
    ("simulate", "simulate_random.json", "demo-sim"),
    ("simulate", "simulate_perturbation.json", "demo-sim-perturbation"),
    ("simulate", "simulate_equicorrelation.json", "demo-sim-equicorrelation"),
)
SKIPPED = {"timing.csv"}


def manifest() -> list[str]:
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the configs name the checkpoint relative to the working directory
        try:
            for command, config, out in DEMO:
                args = [command, "--config", str(ROOT / "configs" / config), "--out", f"runs/{out}"]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(args)
                if code != 0:
                    raise SystemExit(f"advlab {command} with configs/{config} exited {code}")
            for path in sorted(Path("runs").rglob("*")):
                if path.is_file() and path.name not in SKIPPED:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.relative_to('runs')}")
        finally:
            os.chdir(cwd)
    return lines


def environment() -> dict[str, str]:
    """The fields a manifest is recorded with: the interpreter, numpy, scipy and numpy's BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def read(path: Path = MANIFEST) -> tuple[dict[str, str], list[str]]:
    """A manifest file's environment fields and its artifact lines."""
    env, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            field, _, value = line[2:].partition(" ")
            env[field] = value
        elif line:
            lines.append(line)
    return env, lines


def environment_difference(recorded: dict[str, str]) -> str | None:
    """Why this environment cannot reproduce a manifest recorded in `recorded`, or None."""
    here = environment()
    for field in sorted(here.keys() | recorded.keys()):
        if here.get(field) != recorded.get(field):
            return f"{field} is {here.get(field)!r} here but {recorded.get(field)!r} in {MANIFEST.name}"
    return None


def differences(recorded: list[str], current: list[str]) -> list[str]:
    """`-` recorded and `+` current lines of the artifacts whose digests differ or that only one has."""
    old = {line.split("  ", 1)[1]: line for line in recorded}
    new = {line.split("  ", 1)[1]: line for line in current}
    return [f"{sign} {lines[name]}" for name in sorted(old.keys() | new.keys())
            for sign, lines in (("-", old), ("+", new)) if name in lines and old.get(name) != new.get(name)]


def check() -> int:
    env, recorded = read()
    reason = environment_difference(env)
    if reason:
        print(f"cannot check {MANIFEST.name}: {reason}")
        return 2
    moved = differences(recorded, manifest())
    print("\n".join(moved) if moved else f"{len(recorded)} artifacts match {MANIFEST.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help=f"compare with scripts/{MANIFEST.name}")
    if parser.parse_args().check:
        sys.exit(check())
    print("\n".join([f"# {field} {value}" for field, value in environment().items()] + manifest()))
