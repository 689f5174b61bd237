import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

NAMES = ["setup_s", "attack_row_steps_per_s"]
DIGESTS = {"digests": {"evaluate.csv": ["ab12"]}}


def run_output(result, digests=DIGESTS):
    """Standard output shaped like perfbench's: env, digests, then the result line."""
    last = result if isinstance(result, str) else json.dumps(result)
    return "\n".join([json.dumps({"env": {}}), json.dumps(digests), last]) + "\n"


def result(failed=0, **metrics):
    values = {"setup_s": 1.25, "attack_row_steps_per_s": 5.0e4, **metrics}
    return {"correct": failed == 0, "attempted": 9, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items() if v is not None}}


class TestParseRun:
    def test_good_line(self):
        values, digests = ab_bench.parse_run(run_output(result()), NAMES)
        assert values == {"setup_s": 1.25, "attack_row_steps_per_s": 5.0e4}
        assert digests == DIGESTS["digests"]

    @pytest.mark.parametrize("last", [
        "", "Traceback (most recent call last):", '{"detail": {"rounds": 3}}',
        '{"correct": true, "failed": 0, "metrics": {"setup_s": {"value": 1.0}',
        "[1, 2]",
    ], ids=["empty", "text", "no-metrics", "truncated", "not-an-object"])
    def test_malformed_last_line(self, last):
        with pytest.raises(ab_bench.Malformed):
            ab_bench.parse_run(run_output(last), NAMES)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_metric(self, constant):
        line = json.dumps(result()).replace("50000.0", constant)
        assert constant in line
        with pytest.raises(ab_bench.Malformed, match="not a JSON result"):
            ab_bench.parse_run(run_output(line), NAMES)

    @pytest.mark.parametrize("value", [None, "fast", True])
    def test_missing_or_non_numeric_metric(self, value):
        with pytest.raises(ab_bench.Malformed, match="attack_row_steps_per_s"):
            ab_bench.parse_run(run_output(result(attack_row_steps_per_s=value)), NAMES)

    def test_failed_operations(self):
        with pytest.raises(ab_bench.Malformed, match="failed"):
            ab_bench.parse_run(run_output(result(failed=1)), NAMES)

    def test_no_output(self):
        with pytest.raises(ab_bench.Malformed, match="no output"):
            ab_bench.parse_run("", NAMES)

    def test_missing_digests_line_is_reported(self):
        values, digests = ab_bench.parse_run(run_output(result(), {"env": {}}), NAMES)
        assert digests is None
        assert ab_bench.moved_digests(None, {"a": 1}) == {"<no digests line>"}


class TestReport:
    def test_medians_spread_and_wins(self):
        metrics = [{"name": "attack_row_steps_per_s", "better": "higher"},
                   {"name": "setup_s", "better": "lower"}]
        pairs = [{"parent": {"attack_row_steps_per_s": p, "setup_s": 1.0},
                  "change": {"attack_row_steps_per_s": c, "setup_s": 1.0}}
                 for p, c in ((100.0, 130.0), (110.0, 125.0), (120.0, 115.0), (100.0, 120.0))]
        lines = ab_bench.report("attack", metrics, pairs, [set(), {"x.csv"}, set(), set()])
        rows = {line.split()[0]: line.split() for line in lines[2:-1]}
        assert rows["attack_row_steps_per_s"][1:] == ["105", "122.5", "+16.7%", "11.9%", "3/4"]  # IQR 112.5 - 100
        assert rows["setup_s"][-1] == "0/4"  # ties count for neither side
        assert lines[-1] == "digests equal in 3/4 pairs; differing: x.csv"
