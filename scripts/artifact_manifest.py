"""Print a sha256 manifest of the artifacts the eight demo configs write.

Runs the README demo (the `configs/*.json` commands) through
`advlab.cli.main` in a temporary directory, with the advlab of this
checkout's `src/`, and prints one `<sha256>  <run dir>/<file>` line per
artifact. `timing.csv` holds wall-clock times and is left out. Equal
manifests from two checkouts mean byte-identical artifacts:

    python3 scripts/artifact_manifest.py > before.txt   # in one checkout
    python3 scripts/artifact_manifest.py > after.txt    # in the other
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from advlab.cli import main  # noqa: E402

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


if __name__ == "__main__":
    print("\n".join(manifest()))
