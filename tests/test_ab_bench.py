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
ENV = {"env": {"numpy": "2.4"}}


def run_output(result, digests=DIGESTS):
    """Standard output shaped like perfbench's: env, digests, then the result line."""
    last = result if isinstance(result, str) else json.dumps(result)
    return "\n".join([json.dumps(ENV), json.dumps(digests), last]) + "\n"


def result(failed=0, **metrics):
    values = {"setup_s": 1.25, "attack_row_steps_per_s": 5.0e4, **metrics}
    return {"correct": failed == 0, "attempted": 9, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items() if v is not None}}


class TestParseRun:
    def test_good_line(self):
        values, digests, env = ab_bench.parse_run(run_output(result()), NAMES)
        assert values == {"setup_s": 1.25, "attack_row_steps_per_s": 5.0e4}
        assert digests == DIGESTS["digests"]
        assert env == {"numpy": "2.4"}

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
        values, digests, env = ab_bench.parse_run(run_output(result(), {"other": {}}), NAMES)
        assert digests is None
        assert ab_bench.moved_digests(None, {"a": 1}) == {"<no digests line>"}


class TestReport:
    def test_medians_spread_and_wins(self):
        metrics = [{"name": "attack_row_steps_per_s", "better": "higher"},
                   {"name": "setup_s", "better": "lower"}]
        pairs = [{"parent": {"attack_row_steps_per_s": p, "setup_s": 1.0},
                  "change": {"attack_row_steps_per_s": c, "setup_s": 1.0}}
                 for p, c in ((100.0, 130.0), (110.0, 125.0), (120.0, 115.0), (100.0, 120.0))]
        summary = ab_bench.summarize(metrics, pairs, [set(), {"x.csv"}, set(), set()])
        lines = ab_bench.report("attack", summary)
        rows = {line.split()[0]: line.split() for line in lines[2:-1]}
        assert rows["attack_row_steps_per_s"][1:] == ["105", "122.5", "+16.7%", "11.9%", "3/4",
                                                      "p=0.625"]  # IQR 112.5 - 100; 2*(1+4)/16
        assert rows["setup_s"][-2:] == ["0/4", "p=1"]  # ties count for neither side
        assert lines[-1] == "digests equal in 3/4 pairs; differing: x.csv"


class TestSignTest:
    @pytest.mark.parametrize("wins, losses, p", [
        (7, 3, 2 * (1 + 10 + 45 + 120) / 1024),  # 7/10 wins reads p = 0.34
        (3, 7, 2 * (1 + 10 + 45 + 120) / 1024),  # two-sided: symmetric
        (9, 1, 2 * 11 / 1024),
        (10, 0, 2 / 1024),
        (5, 5, 1.0),  # capped at 1
        (0, 0, 1.0),  # every pair tied
        (1, 0, 1.0),
    ])
    def test_exact_binomial_tails(self, wins, losses, p):
        assert ab_bench.sign_test_p(wins, losses) == pytest.approx(p, rel=1e-15)

    def test_tied_pairs_are_dropped(self):
        metrics = [{"name": "setup_s", "better": "lower"}]
        pairs = [{"parent": {"setup_s": 1.0}, "change": {"setup_s": c}}
                 for c in (0.5, 0.5, 0.5, 1.0, 1.0, 1.0)]  # three wins, three ties
        m = ab_bench.summarize(metrics, pairs, [set()] * 6)["metrics"]["setup_s"]
        assert (m["wins"], m["sign_p"]) == (3, 0.25)  # 2 / 2**3, not the 6-pair tail


class TestJsonReport:
    def test_main_writes_the_printed_report(self, tmp_path, monkeypatch, capsys):
        runs = []

        def fake_run(tree, command, workload, seed, seconds, names):
            runs.append((tree.name, workload, seed))
            if (tree.name, seed) == ("parent", 3):
                raise ab_bench.Malformed("exit code 1: boom")
            rate = {"parent": 100.0, "change": 120.0}[tree.name] + seed
            digests = {"a.csv": [tree.name]} if seed == 2 else {"a.csv": ["same"]}
            env = {"side": tree.name, "seed": seed}
            return {n: rate if n == "attack_row_steps_per_s" else 1.0 for n in names}, digests, env

        monkeypatch.setattr(ab_bench, "export", lambda rev, dest: dest)
        monkeypatch.setattr(ab_bench, "resolve", lambda rev: f"sha-{rev}")
        monkeypatch.setattr(ab_bench, "run_once", fake_run)
        path = tmp_path / "BENCH.json"
        code = ab_bench.main(["p", "c", "--workloads", "attack", "--pairs", "4", "--seed", "1",
                              "--json", str(path)])
        assert code == 1  # one malformed run
        assert [r[0] for r in runs] == ["parent", "change", "change", "parent"] * 2  # alternating
        doc = json.loads(path.read_text())
        assert doc["parent"] == {"rev": "p", "commit": "sha-p"}
        assert doc["change"] == {"rev": "c", "commit": "sha-c"}
        assert doc["env"] == {"side": "parent", "seed": 1}
        assert doc["malformed"] == 1
        attack = doc["workloads"]["attack"]
        assert attack["pairs"] == 3  # the pair with a malformed run is left out
        assert attack["digests_equal_pairs"] == 2 and attack["digests_differing"] == ["a.csv"]
        rate = attack["metrics"]["attack_row_steps_per_s"]
        assert (rate["parent_median"], rate["change_median"], rate["wins"]) == (102.0, 122.0, 3)
        assert rate["sign_p"] == 0.25  # three wins, no losses
        assert (attack["metrics"]["setup_s"]["wins"], attack["metrics"]["setup_s"]["sign_p"]) == (0, 1.0)
        printed = capsys.readouterr().out.splitlines()
        table = printed[printed.index("== attack: 3 pairs"):]
        assert table == ab_bench.report("attack", attack)
