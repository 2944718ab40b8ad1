"""Tests of the per-layer cost script: a tiny full run and traced rounds."""

import importlib.util
import json
import pathlib

import pytest

from kfunmix import pipeline
from kfunmix.kalman import NumericalError
from kfunmix.pipeline import PipelineConfig
from kfunmix.synthdata import SynthConfig, generate_dataset

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "layer_costs.py"
spec = importlib.util.spec_from_file_location("layer_costs", SCRIPT)
layer_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_costs)

from tracer import TraceError  # noqa: E402  (on the path once the script is loaded)

STEPS = 4


def test_prints_median_and_p95_for_every_layer_and_k(capsys):
    assert layer_costs.main(["--rounds", "1", "--steps", "2", "--calls", "2", "--max-k", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rounds"] == 1 and report["steps_per_round"] == 2
    assert set(report["step_us"]) == {name for name, *_ in layer_costs.OPERATING_POINTS}
    setup = report["setup_us"]
    assert set(setup["init_pipeline"]) == set(report["step_us"])
    assert set(setup) == {"import_kfunmix", "load_dataset", "protocol_p2", "init_pipeline"}
    figures = [report["host_ref_us"], setup["import_kfunmix"], setup["load_dataset"],
               setup["protocol_p2"]]
    figures.extend(setup["init_pipeline"].values())
    for per_layer in report["step_us"].values():
        assert tuple(per_layer) == layer_costs.LAYERS
        figures.extend(per_layer.values())
    for key in ("fcls_one_us", f"fcls_batch{layer_costs.BATCH_ROWS}_us"):
        assert set(report[key]) == {"2", "3"}
        figures.extend(report[key].values())
    for figure in figures:
        assert 0.0 < figure["median"] <= figure["p95"]


@pytest.mark.parametrize("args", [["--rounds", "0"], ["--max-k", "13"], ["--max-k", "1"]])
def test_rejects_empty_or_unsupported_sizes(args):
    with pytest.raises(SystemExit) as exc:
        layer_costs.main(args)
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def data():
    return generate_dataset(
        SynthConfig(n_spectra=layer_costs.N_INIT + STEPS, n_channels=64, n_endmembers=3, seed=1)
    )


def traced_names():
    return {name: getattr(pipeline, name) for name in layer_costs.TRACED}


def empty_samples():
    return {layer: [] for layer in layer_costs.LAYERS}


def test_main_restores_every_traced_name(capsys):
    before = traced_names()
    assert layer_costs.main(["--rounds", "1", "--steps", "1", "--calls", "1", "--max-k", "2"]) == 0
    capsys.readouterr()
    after = traced_names()
    assert all(after[name] is before[name] for name in before)


def test_a_step_that_raises_restores_every_traced_name(data, monkeypatch):
    def failing_regression(*args):
        raise NumericalError("regression failed")

    monkeypatch.setattr(pipeline, "solve_regression", failing_regression)
    before = traced_names()
    with pytest.raises(NumericalError, match="regression failed"):
        layer_costs.stream_round(
            data, PipelineConfig(n_endmembers=3, n_harmonics=6), STEPS, empty_samples()
        )
    after = traced_names()
    assert all(after[name] is before[name] for name in before)


@pytest.mark.parametrize("updater", pipeline.UPDATERS)
def test_one_sample_per_step_and_layer(data, updater):
    samples = empty_samples()
    config = PipelineConfig(n_endmembers=3, n_harmonics=6, updater=updater)
    init_s = layer_costs.stream_round(data, config, STEPS, samples)
    assert init_s > 0.0
    assert all(len(v) == STEPS for v in samples.values())
    for i, step in enumerate(samples["step"]):
        layers = [samples[layer][i] for layer in layer_costs.LAYERS if layer != "step"]
        assert min(layers) > 0.0
        assert step >= sum(layers)


def test_rounds_append_to_the_samples(data):
    samples = empty_samples()
    config = PipelineConfig(n_endmembers=3, n_harmonics=6)
    for _ in range(2):
        layer_costs.stream_round(data, config, STEPS, samples)
    assert all(len(v) == 2 * STEPS for v in samples.values())


def test_missing_target_raises_trace_error(data, monkeypatch):
    monkeypatch.delattr(pipeline, "rls_update")
    with pytest.raises(TraceError, match=r"kfunmix\.pipeline\.rls_update"):
        layer_costs.stream_round(
            data, PipelineConfig(n_endmembers=3, n_harmonics=6), STEPS, empty_samples()
        )
