"""Tests for the pairing script's seed parsing, run order, summary and run records."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(run_s: float, acq_per_s: float) -> dict:
    return {
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "acq_per_s": {"value": acq_per_s, "unit": "1/s"},
        },
    }


BETTER = {"run_s": "lower", "acq_per_s": "higher"}


class TestParseSeeds:
    def test_ranges_and_singles(self):
        assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
        assert bench_pairs.parse_seeds("1000") == [1000]
        assert bench_pairs.parse_seeds("1-3, 1000") == [1, 2, 3, 1000]

    @pytest.mark.parametrize("text", ["", "a", "3-1", "1-2,2", "-1"])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(text)


def test_parent_runs_first_on_odd_seeds():
    assert bench_pairs.run_order(1) == ("parent", "change")
    assert bench_pairs.run_order(2) == ("change", "parent")
    assert bench_pairs.run_order(1000) == ("change", "parent")


class TestSummarise:
    def pairs(self):
        parent = [1.0, 1.2, 0.9, 1.1, 1.0]
        change = [0.8, 0.9, 0.95, 0.7, 1.0]
        return [
            {"parent": result_line(p, 1.0 / p), "change": result_line(c, 1.0 / c)}
            for p, c in zip(parent, change)
        ]

    def test_medians_quartiles_and_wins(self):
        got = bench_pairs.summarise(self.pairs(), BETTER)["run_s"]
        assert got["pairs"] == 5
        assert got["parent"] == pytest.approx({"median": 1.0, "q1": 1.0, "q3": 1.1})
        assert got["change"] == pytest.approx({"median": 0.9, "q1": 0.8, "q3": 0.95})
        # 0.95 > 0.9 loses and 1.0 == 1.0 ties, so three wins of five
        assert got["change_wins"] == 3
        assert not got["gain_rule_met"]

    def test_higher_is_better_counts_the_other_way(self):
        got = bench_pairs.summarise(self.pairs(), BETTER)["acq_per_s"]
        assert got["better"] == "higher"
        assert got["change_wins"] == 3

    def test_gain_rule(self):
        pairs = [
            {"parent": result_line(1.0 + 0.01 * i, 1.0), "change": result_line(0.8, 1.0)}
            for i in range(10)
        ]
        got = bench_pairs.summarise(pairs, BETTER)
        assert got["run_s"]["change_wins"] == 10
        assert got["run_s"]["gain_rule_met"]
        # all ties: no wins, no gain
        assert got["acq_per_s"]["change_wins"] == 0
        assert not got["acq_per_s"]["gain_rule_met"]

    def test_gap_inside_the_parent_spread_is_no_gain(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        pairs = [
            {"parent": result_line(p, 1.0), "change": result_line(p - 0.1, 1.0)}
            for p in parent
        ]
        got = bench_pairs.summarise(pairs, BETTER)["run_s"]
        assert got["change_wins"] == 10
        assert not got["gain_rule_met"]

    def test_pairs_with_a_missing_run_are_left_out(self):
        pairs = self.pairs() + [{"parent": None, "change": result_line(0.1, 10.0)}]
        assert bench_pairs.summarise(pairs, BETTER)["run_s"]["pairs"] == 5

    def test_metrics_without_a_direction_are_skipped(self):
        assert set(bench_pairs.summarise(self.pairs(), {"run_s": "lower"})) == {"run_s"}


def pairs_of(parent: list[float], change: list[float]) -> list[dict]:
    return [
        {"parent": result_line(p, 1.0 / p), "change": result_line(c, 1.0 / c)}
        for p, c in zip(parent, change)
    ]


class TestVerdict:
    """The no-regression verdict of each bounded metric, on synthetic result lines."""

    BOUNDS = {"run_s": 0.25, "acq_per_s": 0.25}

    def verdicts(self, parent, change):
        got = bench_pairs.summarise(pairs_of(parent, change), BETTER, self.BOUNDS)
        return got["run_s"]["verdict"], got["acq_per_s"]["verdict"]

    def test_a_median_worse_by_more_than_the_bound_is_worse(self):
        parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        # run_s 1.3x is worse; acq_per_s 1/1.3x = 0.77x falls by 23%, inside the bound
        assert self.verdicts(parent, [1.3 * p for p in parent]) == ("worse", "within bound")
        # acq_per_s 0.7x falls by 30%
        assert self.verdicts(parent, [p / 0.7 for p in parent]) == ("worse", "worse")

    def test_a_median_worse_by_less_than_the_bound_is_within_it(self):
        parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        assert self.verdicts(parent, [1.2 * p for p in parent]) == ("within bound", "within bound")
        assert self.verdicts(parent, [0.5 * p for p in parent]) == ("within bound", "within bound")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 1.0, 1.0]
        assert self.verdicts(parent, parent) == ("unresolved", "unresolved")

    def test_a_change_that_beats_every_parent_run_is_resolved(self):
        parent = [0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 1.0, 1.0]
        change = [0.5, 0.55, 0.5, 0.45, 0.5, 0.5, 0.59, 0.5, 0.5, 0.5]
        assert self.verdicts(parent, change) == ("within bound", "within bound")
        # one change run no better than the parent's best leaves it unresolved
        assert self.verdicts(parent, change[:-1] + [0.6])[0] == "unresolved"

    def test_worse_is_decided_before_the_spread(self):
        parent = [0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 1.0, 1.0]
        assert self.verdicts(parent, [2.0 * p for p in parent])[0] == "worse"

    def test_only_bounded_metrics_get_a_verdict(self):
        got = bench_pairs.summarise(pairs_of([1.0], [1.0]), BETTER, {"run_s": 0.1})
        assert got["run_s"]["verdict"] == "within bound" and got["run_s"]["bound"] == 0.1
        assert "verdict" not in got["acq_per_s"]
        assert "verdict" not in bench_pairs.summarise(pairs_of([1.0], [1.0]), BETTER)["run_s"]


class TestOperations:
    def test_sums_failed_and_attempted_over_the_result_lines(self):
        lines = [dict(result_line(1.0, 1.0), attempted=10, failed=1),
                 dict(result_line(1.0, 1.0), attempted=30, failed=0), None]
        assert bench_pairs.operations(lines) == {
            "failed": 1, "attempted": 40, "failed_share": 0.025,
        }

    def test_no_attempt_has_no_share(self):
        assert bench_pairs.operations([None]) == {
            "failed": 0, "attempted": 0, "failed_share": None,
        }


class FakeProc:
    def __init__(self, returncode, stdout, stderr):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


class TestRunRecords:
    """``run_once`` and ``main`` with ``subprocess.run`` stubbed out."""

    def stub(self, monkeypatch, procs):
        calls = []

        def fake_run(cmd, cwd, capture_output, text):
            calls.append(cwd)
            return procs[len(calls) - 1] if isinstance(procs, list) else procs

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        return calls

    def test_a_failed_run_keeps_its_last_stderr_lines(self, monkeypatch, capsys):
        stderr = "\n".join(f"line {i}" for i in range(30)) + "\n"
        self.stub(monkeypatch, FakeProc(2, "", stderr))
        run = bench_pairs.run_once("ckout", "p2-rls-baselines", 1, 20, 0)
        assert run["returncode"] == 2 and run["result"] is None
        assert run["stderr_tail"] == [f"line {i}" for i in range(10, 30)]
        echoed = capsys.readouterr().err.splitlines()
        assert echoed == [f"  ckout: line {i}" for i in range(10, 30)]

    def test_a_run_without_a_result_line_keeps_stderr(self, monkeypatch):
        self.stub(monkeypatch, FakeProc(0, "not json\n", "Traceback\nValueError: x\n"))
        run = bench_pairs.run_once("ckout", "w", 1, 20, 0)
        assert run["result"] is None
        assert run["stderr_tail"] == ["Traceback", "ValueError: x"]

    def test_a_good_run_keeps_no_stderr(self, monkeypatch, capsys):
        line = json.dumps(result_line(0.5, 2.0))
        stdout = f'  samples {{"speed_factor_setup": 1.1}}\nrun_info {{"cpus": 2}}\n{line}\n'
        self.stub(monkeypatch, FakeProc(0, stdout, "noise\n"))
        run = bench_pairs.run_once("ckout", "w", 1, 20, 0)
        assert run["result"]["metrics"]["run_s"]["value"] == 0.5
        assert run["run_info"] == {"cpus": 2}
        assert run["samples"] == {"speed_factor_setup": 1.1}
        assert "stderr_tail" not in run
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "change, status",
        [
            ({"correct": True, "code": 0}, 0),
            ({"correct": False, "code": 1}, 1),
            ({"correct": False, "code": 0}, 1),
            ({"correct": True, "code": 2}, 1),
        ],
    )
    def test_main_fails_on_an_incorrect_or_failed_run(self, monkeypatch, tmp_path, change, status):
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        (tmp_path / "change" / "BENCHMARK.json").write_text(
            json.dumps(
                {
                    "run_seconds": 20,
                    "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}],
                    "per_layer": [],
                }
            )
        )
        good = json.dumps(result_line(0.5, 2.0))
        bad = dict(result_line(0.4, 2.5), correct=change["correct"])
        self.stub(
            monkeypatch,
            # seed 1: the parent runs first
            [FakeProc(0, good + "\n", ""), FakeProc(change["code"], json.dumps(bad) + "\n", "")],
        )
        out = tmp_path / "out.json"
        got = bench_pairs.main(
            [
                "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--workload", "w", "--seeds", "1", "--out", str(out),
            ]
        )
        assert got == status
        group = json.loads(out.read_text())["groups"][0]
        assert group["correct_runs"] == {"parent": 1, "change": int(change["correct"])}
        assert group["operations"]["parent"] == {"failed": 0, "attempted": 4, "failed_share": 0.0}
        assert group["summary"]["run_s"]["verdict"] == "within bound"
