"""The demo artifacts are byte-identical to the committed manifest, scripts/demo_manifest.txt."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_manifest.py"
spec = importlib.util.spec_from_file_location("artifact_manifest", SCRIPT)
artifact_manifest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_manifest)


def test_demo_artifacts_match_the_committed_manifest():
    result = subprocess.run([sys.executable, str(SCRIPT), "--check"], capture_output=True, text=True)
    if result.returncode == 2:  # another numpy, scipy or BLAS may round differently
        pytest.skip(result.stdout.strip())
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip() == "15 artifacts match demo_manifest.txt"


def test_another_environment_is_named():
    env, lines = artifact_manifest.read()
    assert set(env) == {"python", "numpy", "scipy", "blas"} and len(lines) == 15
    assert artifact_manifest.environment_difference(artifact_manifest.environment()) is None
    reason = artifact_manifest.environment_difference(env | {"numpy": "1.26.4"})
    assert reason.startswith("numpy is ") and reason.endswith(" but '1.26.4' in demo_manifest.txt")


def test_differences_name_each_moved_or_missing_artifact():
    recorded = ["aa  demo/metrics.csv", "bb  demo/run.json", "cc  demo-eval/evaluate.csv"]
    current = ["aa  demo/metrics.csv", "bd  demo/run.json", "dd  demo-sim/simulate.csv"]
    assert artifact_manifest.differences(recorded, current) == [
        "- cc  demo-eval/evaluate.csv", "+ dd  demo-sim/simulate.csv", "- bb  demo/run.json", "+ bd  demo/run.json"]
    assert artifact_manifest.differences(recorded, recorded) == []
