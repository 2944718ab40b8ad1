"""End-to-end tests of the command line front end (in process)."""

import argparse
import hashlib
import inspect
import re
from dataclasses import fields

import numpy as np
import pytest

from kfunmix.cli import build_parser, main
from kfunmix.datamodel import NumericalError, load_dataset
from kfunmix.kalman import kf_update
from kfunmix.metrics import read_trace_csv
from kfunmix.pipeline import PipelineConfig, run_experiment
from kfunmix.protocols import load_order_csv, protocol_p1
from kfunmix.synthdata import SynthConfig


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


def subcommand_parsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    def test_synth_and_run_options_hold_no_library_default(self):
        """Every option that sets a SynthConfig or PipelineConfig field or a
        run_experiment keyword is required or suppressed when omitted.
        ``--baselines`` is exempt: it is a comma list the CLI parses."""
        library = {f.name for f in fields(SynthConfig) + fields(PipelineConfig)}
        library |= {
            name for name, param in inspect.signature(run_experiment).parameters.items()
            if param.kind is param.KEYWORD_ONLY and name != "baselines"
        }
        parsers = subcommand_parsers()
        optional = []
        for command in ("synth", "run"):
            for action in parsers[command]._actions:
                if action.dest in library and not action.required:
                    assert action.default is argparse.SUPPRESS, (command, action.dest)
                    optional.append(action.dest)
        assert len(optional) == 14

    def test_help_lists_every_option(self, capsys):
        for command, parser in subcommand_parsers().items():
            assert main([command, "--help"]) == 0
            out = capsys.readouterr().out
            for action in parser._actions:
                assert all(flag in out for flag in action.option_strings)


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

    def test_omitted_settings_take_the_config_defaults(self, tmp_path, monkeypatch, capsys):
        configs = []

        def fake(config):
            configs.append(config)
            raise ValueError("stop")

        monkeypatch.setattr("kfunmix.cli.generate_dataset", fake)
        base = ["synth", "--out", str(tmp_path / "d"), "--n-spectra", "12",
                "--n-channels", "40", "--n-endmembers", "2"]
        assert main(base) == 2
        assert main([*base, "--snr-db", "30", "--alpha", "2,3", "--purity-cap", "0.8",
                     "--seed", "4"]) == 2
        capsys.readouterr()
        assert configs == [
            SynthConfig(n_spectra=12, n_channels=40, n_endmembers=2),
            SynthConfig(n_spectra=12, n_channels=40, n_endmembers=2, snr_db=30.0,
                        alpha=(2.0, 3.0), purity_cap=0.8, seed=4),
        ]

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
        assert capsys.readouterr().err == "error: --alpha: no number given\n"

    def test_non_numeric_alpha_names_the_option_and_token(self, tmp_path, capsys):
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "12",
            "--n-channels", "40", "--n-endmembers", "2", "--alpha", "2,x",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: --alpha: 'x' is not a number\n"
        assert not (tmp_path / "d").exists()

    def test_invalid_size_is_a_config_error(self, tmp_path, capsys):
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "0",
            "--n-channels", "40", "--n-endmembers", "2",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unreachable_purity_cap_is_a_config_error(self, tmp_path, capsys):
        """Three abundances summing to 1 almost never all stay below 0.334,
        so the generator gives up on its draw budget."""
        rc = main([
            "synth", "--out", str(tmp_path / "d"), "--n-spectra", "1000",
            "--n-channels", "40", "--n-endmembers", "3", "--purity-cap", "0.334",
        ])
        assert rc == 2
        assert "error: purity cap 0.334 rejected too many draws" in capsys.readouterr().err


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

    def test_p2_without_n_essential_orders_every_spectrum(self, workspace, tmp_path):
        """The order the CLI gave when it filled in the dataset size itself."""
        out = tmp_path / "p2.csv"
        rc = main([
            "order", "--data", str(workspace / "ds"), "--protocol", "p2",
            "--n-clusters", "10", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        order = load_order_csv(out)
        digest = hashlib.sha256(",".join(map(str, order.indices)).encode()).hexdigest()
        assert order.indices[:8] == (45, 65, 31, 52, 37, 1, 26, 3)
        assert digest == "f073ff3e467a34bc2c357d36dab682fd5c705a3bd6411d16bb0508a69825853e"

    def test_missing_dataset_is_an_input_error(self, tmp_path, capsys):
        rc = main([
            "order", "--data", str(tmp_path / "nope"), "--protocol", "p1",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2


    @pytest.mark.parametrize(
        "flags, out, message",
        [
            (["--protocol", "p2"], "o.csv", "--n-clusters is required"),
            (["--protocol", "p2", "--n-clusters", "0"], "o.csv", "n_clusters must be in"),
            (["--protocol", "p2", "--n-clusters", "2", "--n-essential", "0"], "o.csv",
             "n_essential must be >= 1"),
            (["--protocol", "p2", "--n-clusters", "5", "--n-essential", "3"], "o.csv",
             "n_clusters must be in"),
            (["--protocol", "p1"], ".", "Is a directory"),
            (["--protocol", "p2", "--n-clusters", "2"], "missing/o.csv", "No such file"),
        ],
    )
    def test_bad_arguments_fail_before_reading(self, workspace, tmp_path, monkeypatch,
                                               capsys, flags, out, message):
        def fail(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr("kfunmix.cli.load_dataset", fail)
        rc = main(["order", "--data", str(workspace / "ds"), "--out", str(tmp_path / out),
                   *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == []


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

    def test_dl_updater_runs_end_to_end(self, workspace, tmp_path):
        """The dl trace's final record is run_experiment's for the same config."""
        out = tmp_path / "dl.csv"
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(out), "--updater", "dl",
            "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6", "--eval-stride", "16",
        ])
        assert rc == 0
        records, comments = read_trace_csv(out)
        assert comments["updater"] == "dl"
        bundle = load_dataset(workspace / "ds")
        config = PipelineConfig(n_endmembers=2, n_init=10, n_harmonics=6, updater="dl")
        order = protocol_p1(bundle.spectra.n_spectra)
        expected = run_experiment(bundle, order, config, eval_stride=16).trace.records[-1]
        last = records[-1]
        assert last.t == 80
        assert (last.t, last.asad_deg, last.rmse, last.re) == (
            expected.t, expected.asad_deg, expected.rmse, expected.re
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "holds no index lines"),
            ("\n", "holds no index lines"),
            ("# only a comment\n\n# and another\n", "holds no index lines"),
            ("1\n1\n", "order contains duplicate indices"),
            ("-1\n", "order contains negative indices"),
        ],
    )
    def test_bad_order_file_is_an_input_error_naming_it(self, workspace, tmp_path,
                                                        capsys, text, message):
        order = tmp_path / "bad.csv"
        order.write_text(text)
        rc = main([
            "run", "--data", str(workspace / "ds"), "--order", str(order),
            "--out", str(tmp_path / "t.csv"), "--n-endmembers", "2",
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {order}: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_out_is_a_directory_is_an_input_error(self, workspace, tmp_path,
                                                  monkeypatch, capsys):
        """An unwritable output is found before the stream runs."""
        calls = []
        monkeypatch.setattr("kfunmix.cli.run_experiment", lambda *a, **k: calls.append(a))
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path),
            "--n-endmembers", "2", "--n-init", "10", "--n-harmonics", "6",
            "--eval-stride", "32", "--abundance-stride", "0",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []

    def test_non_finite_sigma_v2_fails_before_reading(self, workspace, tmp_path,
                                                      monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("kfunmix.cli.load_dataset", lambda *a: calls.append(a))
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
            "--n-endmembers", "2", "--sigma-v2", "nan",
        ])
        assert rc == 2
        assert "sigma_v2" in capsys.readouterr().err
        assert calls == []

    def test_unwritable_baseline_output_fails_before_reading(self, workspace, tmp_path,
                                                             monkeypatch, capsys):
        (tmp_path / "t.vca.csv").mkdir()
        calls = []
        monkeypatch.setattr("kfunmix.cli.load_dataset", lambda *a: calls.append(a))
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
            "--n-endmembers", "2", "--baselines", "vca",
        ])
        assert rc == 2
        assert "t.vca.csv" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-endmembers", "2", "--eta", "0"], "eta"),
            (["--n-endmembers", "3", "--n-init", "2"], "n_init"),
            (["--n-endmembers", "2", "--updater", "rls", "--sigma-v2", "0"], "sigma_v2 > 0"),
            (["--n-endmembers", "2", "--updater", "dl", "--sigma-v2", "0.1"],
             "the dl updater does not read sigma_v2"),
            (["--n-endmembers", "2", "--eval-stride", "0"], "eval_stride must be >= 1"),
            (["--n-endmembers", "2", "--abundance-stride", "-1"],
             "abundance_stride must be >= 0"),
            (["--n-endmembers", "2", "--baseline-stride", "0"], "baseline_stride must be >= 1"),
            (["--n-endmembers", "2", "--baselines", "pls"], "unknown baseline 'pls'"),
            (["--n-endmembers", "2", "--n-harmonics", "1"],
             "n_harmonics must be >= 2 for n_endmembers = 2"),
        ],
    )
    def test_bad_config_fails_before_reading(self, workspace, tmp_path, monkeypatch,
                                             capsys, flags, message):
        def fail(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr("kfunmix.cli.load_dataset", fail)
        rc = main(["run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
                   *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def captured_call(workspace, tmp_path, monkeypatch, flags):
        """The config and keywords ``kfunmix run`` hands to run_experiment."""
        calls = []

        def fake(dataset, order, config, **keywords):
            calls.append((config, keywords))
            raise ValueError("stop")

        monkeypatch.setattr("kfunmix.cli.run_experiment", fake)
        out = tmp_path / "t.csv"
        assert main(["run", "--data", str(workspace / "ds"), "--out", str(out), *flags]) == 2
        [(config, keywords)] = calls
        assert keywords.pop("flush_path") == str(out)
        return config, keywords

    def test_omitted_settings_take_the_library_defaults(self, workspace, tmp_path,
                                                        monkeypatch, capsys):
        config, keywords = self.captured_call(
            workspace, tmp_path, monkeypatch, ["--n-endmembers", "3"]
        )
        capsys.readouterr()
        assert config == PipelineConfig(n_endmembers=3)
        assert keywords == {"baselines": ()}

    def test_given_settings_pass_through(self, workspace, tmp_path, monkeypatch, capsys):
        config, keywords = self.captured_call(workspace, tmp_path, monkeypatch, [
            "--n-endmembers", "2", "--n-init", "12", "--eta", "90", "--n-harmonics", "5",
            "--sigma-v2", "0.5", "--updater", "rls", "--rls-forgetting", "0.9",
            "--seed", "3", "--eval-stride", "4", "--abundance-stride", "0",
            "--baselines", "vca,mcr-als", "--baseline-stride", "7",
        ])
        capsys.readouterr()
        assert config == PipelineConfig(
            n_endmembers=2, n_init=12, eta=90.0, n_harmonics=5, sigma_v2=0.5,
            updater="rls", rls_forgetting=0.9, seed=3,
        )
        assert keywords == {"baselines": ("vca", "mcr-als"), "eval_stride": 4,
                            "abundance_stride": 0, "baseline_stride": 7}

    def test_output_check_leaves_no_file_behind(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main([
            "run", "--data", str(tmp_path / "missing"), "--out", str(out),
            "--n-endmembers", "2", "--baselines", "vca",
        ])
        assert rc == 2
        assert "missing spectra file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_baseline_is_a_config_error(self, workspace, tmp_path, capsys):
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
            "--n-endmembers", "2", "--n-init", "10", "--baselines", "pls",
        ])
        assert rc == 2
        assert "unknown baseline" in capsys.readouterr().err

    def test_repeated_baseline_is_an_error_before_the_run(self, workspace, tmp_path,
                                                          monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("kfunmix.cli.run_experiment", lambda *a, **k: calls.append(a))
        rc = main([
            "run", "--data", str(workspace / "ds"), "--out", str(tmp_path / "t.csv"),
            "--n-endmembers", "2", "--n-init", "10", "--baselines", "vca,vca",
        ])
        assert rc == 2
        assert "more than once" in capsys.readouterr().err
        assert calls == []

    def test_numerical_failure_exits_3_and_flushes(self, workspace, tmp_path,
                                                   monkeypatch, capsys):
        calls = {"n": 0}

        def failing_update(state, concentration, observed, sigma_v2, sigma_e2):
            calls["n"] += 1
            if calls["n"] >= 4:
                raise NumericalError("innovation covariance is not invertible")
            return kf_update(state, concentration, observed, sigma_v2, sigma_e2)

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

    @pytest.mark.parametrize("text", ["", "# seed=0\n"], ids=["empty", "comments-only"])
    def test_headerless_trace_is_an_input_error(self, tmp_path, capsys, text):
        trace = tmp_path / "t.csv"
        trace.write_text(text)
        rc = main(["eval", "--traces", str(trace)])
        assert rc == 2
        assert f"{trace}: missing header" in capsys.readouterr().err

