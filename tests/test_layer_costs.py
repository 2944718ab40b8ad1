"""Smoke test of the per-layer cost script at a tiny size."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "layer_costs.py"
spec = importlib.util.spec_from_file_location("layer_costs", SCRIPT)
layer_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_costs)


def test_prints_median_and_p95_for_every_layer_and_k(capsys):
    assert layer_costs.main(["--rounds", "1", "--steps", "2", "--calls", "2", "--max-k", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rounds"] == 1 and report["steps_per_round"] == 2
    assert set(report["step_us"]) == {name for name, *_ in layer_costs.OPERATING_POINTS}
    setup = report["setup_us"]
    assert set(setup["init_pipeline"]) == set(report["step_us"])
    figures = [report["host_ref_us"], setup["load_dataset"], setup["protocol_p2"]]
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
