"""End-to-end tests of the command line front end (in process)."""

import re

import numpy as np
import pytest

from kfunmix.cli import main
from kfunmix.datamodel import load_dataset
from kfunmix.kalman import NumericalError, kf_update
from kfunmix.metrics import read_trace_csv
from kfunmix.protocols import load_order_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset, p2 order, and traces produced by one CLI round trip."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert main([
        "synth", "--out", str(ds), "--n-spectra", "80", "--n-channels", "40",
        "--n-endmembers", "2", "--seed", "0",
    ]) == 0
    order = root / "ord.csv"
    assert main([
        "order", "--data", str(ds), "--protocol", "p2", "--n-clusters", "10",
        "--n-essential", "40", "--out", str(order), "--seed", "1",
    ]) == 0
    trace = root / "trace.csv"
    assert main([
        "run", "--data", str(ds), "--order", str(order), "--out", str(trace),
        "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6",
        "--eval-stride", "16", "--baselines", "vca",
    ]) == 0
    return root


class TestSynth:
    def test_writes_a_loadable_dataset(self, workspace, capsys):
        bundle = load_dataset(workspace / "ds")
        assert bundle.spectra.values.shape == (80, 40)
        assert bundle.endmembers is not None
        assert bundle.concentrations is not None

    def test_reports_what_it_wrote(self, tmp_path, capsys):
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "12",
            "--n-channels", "40", "--n-endmembers", "2",
        ])
        assert rc == 0
        assert "wrote 12x40 dataset" in capsys.readouterr().out

    def test_alpha_accepts_a_comma_list(self, tmp_path):
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "12",
            "--n-channels", "40", "--n-endmembers", "2", "--alpha", "2.0,3.0",
        ])
        assert rc == 0

    def test_empty_alpha_is_a_config_error(self, tmp_path, capsys):
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "12",
            "--n-channels", "40", "--n-endmembers", "2", "--alpha", ",",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_size_is_a_config_error(self, tmp_path, capsys):
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "0",
            "--n-channels", "40", "--n-endmembers", "2",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestOrder:
    def test_p1_native_is_the_identity(self, workspace, tmp_path):
        out = tmp_path / "p1.csv"
        rc = main([
            "order", "--data", str(workspace / "ds"), "--protocol", "p1",
            "--out", str(out),
        ])
        assert rc == 0
        order = load_order_csv(out)
        assert order.indices == tuple(range(80))

    def test_p1_shuffle_permutes(self, workspace, tmp_path):
        out = tmp_path / "p1s.csv"
        rc = main([
            "order", "--data", str(workspace / "ds"), "--protocol", "p1",
            "--shuffle", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        order = load_order_csv(out)
        assert sorted(order.indices) == list(range(80))
        assert order.indices != tuple(range(80))

    def test_p2_order_is_a_valid_prefix(self, workspace):
        order = load_order_csv(workspace / "ord.csv")
        assert len(order.indices) == 40
        assert len(set(order.indices)) == 40
        assert all(0 <= i < 80 for i in order.indices)

    def test_p2_without_clusters_is_a_config_error(self, workspace, tmp_path, capsys):
        rc = main([
            "order", "--data", str(workspace / "ds"), "--protocol", "p2",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "--n-clusters is required" in capsys.readouterr().err

    def test_missing_dataset_is_an_input_error(self, tmp_path, capsys):
        rc = main([
            "order", "--data", str(tmp_path / "nope"), "--protocol", "p1",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2


class TestRun:
    def test_trace_covers_the_ordered_stream(self, workspace):
        records, comments = read_trace_csv(workspace / "trace.csv")
        assert [rec.t for rec in records] == [11, 27, 40]
        assert comments["n_stream"] == "40"
        assert comments["updater"] == "kalman"
        assert records[-1].asad_deg is not None

    def test_baseline_trace_lands_next_to_the_main_one(self, workspace):
        path = workspace / "trace.vca.csv"
        assert path.exists()
        records, comments = read_trace_csv(path)
        assert comments["baseline"] == "vca"
        assert len(records) >= 2

    def test_prints_the_final_metrics(self, workspace, tmp_path, capsys):
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
            "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6",
            "--eval-stride", "32",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"final asad_deg=\d", out)

    def test_default_order_streams_the_whole_dataset(self, workspace, tmp_path):
        out = tmp_path / "t.csv"
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(out),
            "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6",
            "--eval-stride", "32", "--abundance-stride", "0",
        ])
        assert rc == 0
        records, comments = read_trace_csv(out)
        assert records[-1].t == 80
        assert comments["abundance_stride"] == "0"
        assert all(rec.rmse is None for rec in records)

    def test_unknown_baseline_is_a_config_error(self, workspace, tmp_path, capsys):
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
            "--n-endmembers", "2", "--n-init", "10", "--baselines", "pls",
        ])
        assert rc == 2
        assert "unknown baseline" in capsys.readouterr().err

    def test_numerical_failure_exits_3_and_flushes(self, workspace, tmp_path,
                                                   monkeypatch, capsys):
        calls = {"n": 0}

        def failing_update(state, concentration, observed, noise):
            calls["n"] += 1
            if calls["n"] >= 4:
                raise NumericalError("innovation covariance is not invertible")
            return kf_update(state, concentration, observed, noise)

        monkeypatch.setattr("kfunmix.pipeline.kf_update", failing_update)
        out = tmp_path / "partial.csv"
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(out),
            "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6",
        ])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        records, _ = read_trace_csv(out)
        assert [rec.t for rec in records] == [11, 12, 13]

    def test_argparse_errors_exit_2(self, capsys):
        assert main(["run", "--out", "t.csv", "--n-endmembers", "2"]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_removed_regression_flags_exit_2(self, workspace, tmp_path, capsys):
        """The regression budget and step are constants; old scripts that
        still pass them fail loudly instead of being ignored."""
        for flag, value in (("--admm-iters", "30"), ("--rho", "1.0")):
            assert main([
                "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
                "--n-endmembers", "2", "--n-init", "10", flag, value,
            ]) == 2
            assert flag in capsys.readouterr().err


class TestEval:
    def test_summary_header_and_grouping(self, workspace, tmp_path):
        out = tmp_path / "summary.csv"
        rc = main([
            "eval", "--traces", str(workspace / "trace.csv"),
            str(workspace / "trace.vca.csv"), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "t,n_traces,asad_deg_mean,asad_deg_std,rmse_mean,rmse_std,"
            "re_mean,re_std,wall_ms_mean,wall_ms_std"
        )
        first = lines[1].split(",")
        assert first[0] == "11"
        assert first[1] == "2"
        assert float(first[2]) > 0.0

    def test_writes_to_stdout_without_out(self, workspace, capsys):
        rc = main(["eval", "--traces", str(workspace / "trace.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("t,n_traces,")
        assert len(out.splitlines()) == 4

    def test_missing_fields_become_nan(self, workspace, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(trace),
            "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6",
            "--eval-stride", "32", "--abundance-stride", "0",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["eval", "--traces", str(trace)])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert ",nan,nan," in row

    def test_missing_trace_is_an_input_error(self, tmp_path, capsys):
        rc = main(["eval", "--traces", str(tmp_path / "nope.csv")])
        assert rc == 2

