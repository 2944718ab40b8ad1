"""Tests of the per-layer cost script: a tiny full run and traced rounds."""

import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from kfunmix import abundance, pipeline
from kfunmix.datamodel import NumericalError, SpectraMatrix, memo_key
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
    assert set(report["blas_threads"]) == set(layer_costs.THREAD_ENV)
    assert all(value for value in report["blas_threads"].values())
    assert set(report["step_us"]) == {name for name, *_ in layer_costs.OPERATING_POINTS}
    setup = report["setup_us"]
    assert set(setup["init_pipeline"]) == set(report["step_us"])
    assert set(setup) == {"import_kfunmix", "load_dataset", "protocol_p2", "init_pipeline"}
    if os.path.exists("/proc/self/status"):
        assert 0.0 < report["import_rss_mb"] < 1024.0
    else:
        assert report["import_rss_mb"] is None
    figures = [report["host_ref_us"], setup["import_kfunmix"], setup["load_dataset"],
               setup["protocol_p2"]]
    figures.extend(setup["init_pipeline"].values())
    for per_layer in report["step_us"].values():
        assert tuple(per_layer) == layer_costs.LAYERS
        figures.extend(per_layer.values())
    assert set(report["eval_us"]) == {str(t) for t in layer_costs.EVAL_ROWS}
    for per_layer in report["eval_us"].values():
        assert tuple(per_layer) == layer_costs.EVAL_LAYERS
        figures.extend(per_layer.values())
    for key in ("fcls_one_us", f"fcls_batch{layer_costs.BATCH_ROWS}_us"):
        assert set(report[key]) == {"2", "3"}
        figures.extend(report[key].values())
    p2_cases = {f"p2_{t}" for t in layer_costs.VCA_P2_PREFIXES}
    assert set(report["vca_us"]) == p2_cases | {"init_L400K5M16", "L400K5_N340"}
    for name, case in report["vca_us"].items():
        # The P2 prefixes are clean and certified; the K5 cases are noisy.
        assert case["certified"] is (name in p2_cases)
        figures.extend([case, case["certificate"]])
    for figure in figures:
        assert 0.0 < figure["median"] <= figure["p95"]


@pytest.fixture(scope="module")
def eval_estimates():
    data = generate_dataset(
        SynthConfig(n_spectra=max(layer_costs.EVAL_ROWS), n_channels=64, n_endmembers=3, seed=1)
    )
    return data, layer_costs.stream_estimates(data, PipelineConfig(n_endmembers=3))


@pytest.fixture
def eval_case(eval_estimates):
    data, estimates = eval_estimates
    return data, itertools.cycle(estimates)


def test_stream_estimates_are_the_successive_estimates_of_one_stream(eval_estimates):
    data, estimates = eval_estimates
    assert len(estimates) == max(layer_costs.EVAL_ROWS) - layer_costs.N_INIT
    rows = data.spectra.values
    state = pipeline.init_pipeline(rows[: layer_costs.N_INIT], PipelineConfig(n_endmembers=3))
    for spectrum, estimate in zip(rows[layer_costs.N_INIT :][:3], estimates):
        state, _ = pipeline.pipeline_step(state, spectrum)
        np.testing.assert_array_equal(state.endmembers.full.values, estimate)
    assert all((a != b).any() for a, b in zip(estimates, estimates[1:]))


def empty_eval_samples():
    return {t: {layer: [] for layer in layer_costs.EVAL_LAYERS} for t in layer_costs.EVAL_ROWS}


def test_eval_round_times_each_call_of_the_real_evaluation(eval_case, monkeypatch):
    evaluate, calls = pipeline._evaluate, []

    def counting(acquired, *args):
        assert isinstance(acquired, SpectraMatrix)  # a checked prefix, as in a run
        calls.append(acquired.n_spectra)
        return evaluate(acquired, *args)

    monkeypatch.setattr(pipeline, "_evaluate", counting)
    out = empty_eval_samples()
    for _ in range(2):
        layer_costs.eval_round(*eval_case, 3, out)
    assert calls == 2 * [t for t in layer_costs.EVAL_ROWS for _ in range(3)]
    for per_layer in out.values():
        assert all(len(v) == 6 and min(v) > 0.0 for v in per_layer.values())


def test_each_evaluation_scores_another_estimate_in_a_fresh_wrapper(eval_case, monkeypatch):
    """No call can find a screen or an angle matrix that an earlier call
    formed: FCLS's memo holds another estimate's key on every call."""
    evaluate, scored = pipeline._evaluate, []

    def recording(acquired, endmembers, *args):
        last = abundance._last_screen
        assert last is None or last[0] != memo_key(endmembers.values)
        scored.append(endmembers)
        return evaluate(acquired, endmembers, *args)

    monkeypatch.setattr(pipeline, "_evaluate", recording)
    layer_costs.eval_round(*eval_case, 4, empty_eval_samples())
    assert len(scored) == 4 * len(layer_costs.EVAL_ROWS)
    assert all((a.values != b.values).any() for a, b in zip(scored, scored[1:]))


def test_the_record_span_holds_its_five_layers(eval_case):
    out = empty_eval_samples()
    layer_costs.eval_round(*eval_case, 2, out)
    assert layer_costs.EVAL_LAYERS[-1] == "record"
    for per_layer in out.values():
        for i, record in enumerate(per_layer["record"]):
            assert record >= sum(per_layer[layer][i] for layer in layer_costs.EVAL_LAYERS[:-1])


def test_eval_round_restores_every_traced_name_and_names_a_missing_one(eval_case, monkeypatch):
    before = {name: getattr(pipeline, name) for name in layer_costs.EVAL_TRACED}
    layer_costs.eval_round(*eval_case, 1, empty_eval_samples())
    assert all(getattr(pipeline, name) is fn for name, fn in before.items())
    monkeypatch.delattr(pipeline, "align_components")
    with pytest.raises(TraceError, match=r"kfunmix\.pipeline\.align_components"):
        layer_costs.eval_round(*eval_case, 1, empty_eval_samples())


def test_vca_round_reports_no_certificate_for_a_checkout_without_one(monkeypatch):
    import kfunmix
    from kfunmix.vca import vca

    # A kfunmix.vca module that offers vca alone, as before the certificate.
    monkeypatch.setattr(kfunmix, "vca", types.SimpleNamespace(__name__="kfunmix.vca", vca=vca))
    rows = generate_dataset(SynthConfig(n_spectra=40, n_channels=30, n_endmembers=3, seed=2))
    out = {"case": {"vca": [], "certificate": [], "certified": []}}
    layer_costs.vca_round({"case": (rows.spectra.values, 3)}, 2, out)
    assert len(out["case"]["vca"]) == 2
    assert out["case"]["certificate"] == [] and out["case"]["certified"] == []


def test_pins_blas_threads_unless_the_caller_set_them():
    env = {k: v for k, v in os.environ.items() if k not in layer_costs.THREAD_ENV}
    env["OMP_NUM_THREADS"] = "2"
    code = (
        "import os, runpy, sys; runpy.run_path(sys.argv[1]); "
        "print(','.join(os.environ[name] for name in sys.argv[2:]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SCRIPT), *layer_costs.THREAD_ENV],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    expected = ["2" if name == "OMP_NUM_THREADS" else "1" for name in layer_costs.THREAD_ENV]
    assert out.split() == [",".join(expected)]


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


def test_each_timed_fcls_call_screens_its_matrix_afresh(monkeypatch):
    """The per-K calls reuse one endmember matrix per K, yet each forms its
    screen, so every figure includes it."""
    rng = np.random.default_rng(0)
    cases = {k: (rng.uniform(size=(40, k)), rng.uniform(size=(9, 40))) for k in (2, 3)}
    one, batch = {2: [], 3: []}, {2: [], 3: []}
    counts = {"eigvalsh": 0}
    eigvalsh = np.linalg.eigvalsh

    def counting(*args):
        counts["eigvalsh"] += 1
        return eigvalsh(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    layer_costs.fcls_round(cases, 3, one, batch)
    assert counts["eigvalsh"] == 2 * (3 + 1)  # per K: three single-spectrum calls, one batch
    assert [len(v) for v in one.values()] == [3, 3]
    assert [len(v) for v in batch.values()] == [1, 1]


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


def test_traces_the_step_and_its_three_layers():
    """The step makes no Fourier product, so no reduce span is traced."""
    assert layer_costs.LAYERS == ("fcls_one", "update", "regression", "step")
    assert set(layer_costs.TRACED.values()) == set(layer_costs.LAYERS)


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
