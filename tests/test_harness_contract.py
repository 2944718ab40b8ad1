"""The names and shapes the benchmark harness in ``perfbench/`` reads from kfunmix.

A traced benchmark run patches every (module, attribute) pair of
``worker.trace_targets`` and its hooks read fields of the results; a name
that moves breaks the benchmark, not the test suite.  These tests import
the harness as it is and check that contract, then run one miniature
traced round of each workload through the harness's own driver and checks.
"""

import dataclasses
import pathlib
import sys
import warnings

import numpy as np
import pytest

from kfunmix.abundance import FclsConfig
from kfunmix.datamodel import EndmemberMatrix
from kfunmix.mcrals import McrConfig
from kfunmix.pipeline import PipelineConfig, init_pipeline, pipeline_step
from kfunmix.regression import RegressorSet, solve_regression
from kfunmix.synthdata import SynthConfig, generate_dataset

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import worker  # noqa: E402  (perfbench/ is not a package)

HOOK_NAMES = ("step", "fcls_one", "fcls_batch", "kalman", "regression")


def small_state(updater="kalman"):
    data = generate_dataset(
        SynthConfig(n_spectra=40, n_channels=60, n_endmembers=3, snr_db=20.0, seed=2)
    )
    config = PipelineConfig(n_endmembers=3, n_init=10, n_harmonics=6, updater=updater)
    rows = data.spectra.values
    return init_pipeline(rows[:10], config), rows


def test_every_traced_name_is_callable():
    targets = worker.trace_targets({name: None for name in HOOK_NAMES})
    assert len(targets) == 31
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
        assert span.split(".")[0] in {
            "pipeline", "abundance", "fourier", "kalman", "regression", "synthdata",
            "vca", "mcrals", "metrics", "protocols", "datamodel",
        }


def test_config_fields_the_harness_reads():
    config = PipelineConfig(n_endmembers=3, n_harmonics=None, updater="rls", seed=4)
    assert isinstance(config.fcls, FclsConfig)
    init = EndmemberMatrix(np.eye(4)[:, :2] + 0.1)
    assert McrConfig(init=init, fcls=config.fcls).fcls is config.fcls


def test_step_result_shape():
    state, rows = small_state()
    result = pipeline_step(state, rows[10])
    assert isinstance(result, tuple) and len(result) == 2
    values = result[0].endmembers.full.values
    assert values.shape == (60, 3)


def test_regression_fields_the_hooks_read():
    state, _ = small_state()
    regressors = state.regressors
    assert isinstance(regressors, RegressorSet)
    result = solve_regression(regressors, state.estimator.mean.T)
    counts = worker.LayerCounts(worker.Checks())
    counts.hooks()["regression"]((regressors,), {}, result)
    full, coeff, u = counts.regression_exits[0]
    assert full is regressors.full_space
    assert coeff.shape == (regressors.full_space.shape[1], 3)
    assert u.shape == (60, 3)
    assert np.isfinite(counts.exit_primal_residual_p50())


MINIATURES = {
    "stream-L400K5M16": dict(n_spectra=70, n_channels=100),
    "experiment-L200K3-eval": dict(n_spectra=60, n_channels=80),
    "p2-rls-baselines": dict(n_spectra=150, n_channels=80, p2_essential=80, p2_clusters=10),
}


@pytest.mark.parametrize("name", sorted(MINIATURES))
def test_miniature_traced_round_passes_its_checks(name, tmp_path):
    """One traced round over a one-dataset panel: every required layer is
    recorded, and the harness's output checks (trace CSV round trip, final
    ASAD and RMSE recomputed, abundances on the simplex) find no failure."""
    workload = dataclasses.replace(worker.WORKLOADS[name], panel=1, **MINIATURES[name])
    work_dir = str(tmp_path)
    worker.generate(workload, 1, work_dir)
    checks = worker.Checks()
    with warnings.catch_warnings():
        # counted as the harness counts them, not printed
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = worker.WarningCounter()
        per_layer, summary, _ = worker.traced_pass(
            workload, worker.dataset_seeds(workload, 1), work_dir, 1.0, checks,
            warnings.showwarning,
        )
    assert checks.failed == 0, checks.messages
    assert all(summary[span]["calls"] > 0 for span in workload.required_spans)
    n_stream = workload.p2_essential if workload.protocol == "p2" else workload.n_spectra
    assert per_layer["pipeline.step.calls"] == n_stream - 30
