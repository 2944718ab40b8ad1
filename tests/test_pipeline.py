"""Tests for the streaming pipeline and the experiment runner."""

import itertools
import os
import pathlib
import subprocess
import sys
import time
import warnings

from dataclasses import fields, replace

import numpy as np
import pytest

import dl_reference
import evaluation_reference
import reduced_step_reference
from kfunmix.abundance import estimate_concentration, estimate_concentrations
from kfunmix.datamodel import RIDGE, DatasetBundle, EndmemberMatrix, NumericalError, SpectraMatrix
from kfunmix.fourier import reduce_columns, select_num_harmonics
from kfunmix.kalman import FilterState, kf_update
from kfunmix.metrics import RE_IDENTITY_SHARE, read_trace_csv, sad
from kfunmix.pipeline import (
    BASELINES,
    STRIDES,
    UPDATERS,
    PipelineConfig,
    check_experiment_options,
    init_pipeline,
    pipeline_step,
    run_experiment,
)
from kfunmix.fourier import build_basis
from kfunmix.protocols import AcquisitionOrder, P2Config, protocol_p1, protocol_p2
from kfunmix.regression import solve_regression
from kfunmix.synthdata import SynthConfig, generate_dataset
from kfunmix.vca import vca


def two_gaussian_endmembers(n_channels: int = 64) -> np.ndarray:
    grid = np.arange(n_channels, dtype=float)
    e1 = np.exp(-0.5 * ((grid - 20.0) / 4.0) ** 2) + 0.05
    e2 = np.exp(-0.5 * ((grid - 44.0) / 6.0) ** 2) + 0.05
    return np.column_stack([e1, e2])


def jittered_mixture_rows(truth: np.ndarray, n_rows: int, seed: int) -> np.ndarray:
    # small jitter keeps the cached regression Gram nonsingular even
    # though the clean mixtures span only rank K
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(truth.shape[1]), size=n_rows)
    rows = weights @ truth.T + rng.uniform(0.0, 1e-3, size=(n_rows, truth.shape[0]))
    return np.abs(rows)


def small_stream_setup(sigma_v2: float = 1.0, updater: str = "kalman"):
    truth = two_gaussian_endmembers()
    init_rows = jittered_mixture_rows(truth, 8, seed=4)
    config = PipelineConfig(
        n_endmembers=2,
        n_init=8,
        n_harmonics=6,
        sigma_v2=sigma_v2,
        updater=updater,
        init_endmembers=EndmemberMatrix(truth),
    )
    return truth, init_rows, init_pipeline(init_rows, config)


class TestInitPipeline:
    def test_explicit_harmonic_count_wins(self):
        _, init_rows, _ = small_stream_setup()
        config = PipelineConfig(n_endmembers=2, n_init=8, n_harmonics=5)
        state = init_pipeline(init_rows, config)
        assert state.n_harmonics == 5

    def test_eta_path_uses_energy_selector(self):
        data = generate_dataset(
            SynthConfig(n_spectra=60, n_channels=200, n_endmembers=3, snr_db=20.0, seed=0)
        )
        rows = data.spectra.values[:30]
        state = init_pipeline(rows, PipelineConfig(n_endmembers=3, n_init=30))
        assert state.n_harmonics == select_num_harmonics(rows, 87.0)
        assert state.n_harmonics == 7

    def test_noise_floor_on_smooth_rows(self):
        # cubic rows leave no smoothing residual, so the estimate hits the floor
        n = np.arange(50, dtype=float)
        rows = np.abs(
            np.stack(
                [
                    1.0 + 0.02 * n + 0.001 * n**2 - 1e-5 * n**3,
                    2.0 - 0.01 * n + 0.0005 * n**2,
                    0.5 + 0.03 * n - 0.0002 * n**2 + 2e-6 * n**3,
                    1.5 + 0.005 * n + 0.0008 * n**2 - 5e-6 * n**3,
                ]
            )
        )
        init = EndmemberMatrix(np.column_stack([rows[0], rows[1]]))
        config = PipelineConfig(
            n_endmembers=2, n_init=4, n_harmonics=2, init_endmembers=init
        )
        state = init_pipeline(rows, config)
        assert state.sigma_e2 == 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eta_choice_is_floored_at_what_the_endmembers_need(self, seed):
        """eta keeps one harmonic of these 90 x 40 K2 sets, whose two reduced
        coordinates (one of them the zero DC sine) cannot hold two endmembers
        apart: the estimate collapsed to cond ~1e15 and FCLS warned at every
        step.  The floor M = 2 keeps them apart, with no warning."""
        data = generate_dataset(
            SynthConfig(n_spectra=90, n_channels=40, n_endmembers=2, snr_db=20.0, seed=seed)
        )
        rows = data.spectra.values
        assert select_num_harmonics(rows[:10], 87.0) == 1
        config = PipelineConfig(n_endmembers=2, n_init=10)
        assert init_pipeline(rows[:10], config).n_harmonics == 2
        result = run_experiment(data, protocol_p1(90), config, eval_stride=10, abundance_stride=0)
        assert np.linalg.cond(result.trace.final_endmembers.values) < 10.0

    def test_noisy_rows_estimate_a_positive_floor(self):
        data = generate_dataset(
            SynthConfig(n_spectra=60, n_channels=200, n_endmembers=3, snr_db=20.0, seed=0)
        )
        state = init_pipeline(
            data.spectra.values[:30], PipelineConfig(n_endmembers=3, n_init=30)
        )
        assert state.sigma_e2 > 1e-12

    def test_starting_state_is_anchored_on_the_init_endmembers(self):
        truth, _, state = small_stream_setup()
        np.testing.assert_array_equal(state.endmembers.full.values, truth)
        np.testing.assert_array_equal(state.estimator.mean, truth)

    def test_kalman_covariance_is_scaled_identity(self):
        _, _, state = small_stream_setup(sigma_v2=0.25)
        np.testing.assert_array_equal(state.estimator.matrix, 0.25 * np.eye(2))

    def test_accepts_spectra_matrix(self):
        _, init_rows, _ = small_stream_setup()
        config = PipelineConfig(n_endmembers=2, n_init=8, n_harmonics=4)
        state = init_pipeline(SpectraMatrix(init_rows), config)
        assert state.regressors.full_space.shape == (64, 8)

    def test_rejects_wrong_row_count(self):
        _, init_rows, _ = small_stream_setup()
        config = PipelineConfig(n_endmembers=2, n_init=10, n_harmonics=4)
        with pytest.raises(ValueError, match="expected 10 initialization spectra, got 8"):
            init_pipeline(init_rows, config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_init_spectrum(self, bad):
        _, init_rows, _ = small_stream_setup()
        init_rows[5, 10] = bad
        init_rows[6, 0] = bad
        config = PipelineConfig(n_endmembers=2, n_init=8)
        with pytest.raises(ValueError, match="spectra row 5 is not finite"):
            init_pipeline(init_rows, config)

    def test_rejects_one_dimensional_input(self):
        config = PipelineConfig(n_endmembers=1, n_init=1, n_harmonics=2)
        with pytest.raises(ValueError, match="spectra must be 2-dimensional, got ndim=1"):
            init_pipeline(np.ones(16), config)

    def test_rejects_init_endmember_channel_mismatch(self):
        _, init_rows, _ = small_stream_setup()
        bad = EndmemberMatrix(np.ones((32, 2)))
        config = PipelineConfig(
            n_endmembers=2, n_init=8, n_harmonics=4, init_endmembers=bad
        )
        with pytest.raises(ValueError, match="channel count"):
            init_pipeline(init_rows, config)

    def test_rejects_init_endmember_count_mismatch(self):
        _, init_rows, _ = small_stream_setup()
        bad = EndmemberMatrix(np.ones((64, 3)))
        config = PipelineConfig(
            n_endmembers=2, n_init=8, n_harmonics=4, init_endmembers=bad
        )
        with pytest.raises(ValueError, match="n_endmembers"):
            init_pipeline(init_rows, config)

    def test_rls_needs_positive_process_noise(self):
        with pytest.raises(ValueError, match="sigma_v2 > 0"):
            PipelineConfig(
                n_endmembers=2, n_init=8, n_harmonics=4, updater="rls", sigma_v2=0.0
            )

    def test_dl_starts_from_the_inverse_init_gram(self):
        truth, init_rows, state = small_stream_setup(updater="dl")
        conc = estimate_concentrations(init_rows, EndmemberMatrix(truth))
        np.testing.assert_allclose(state.estimator.matrix @ (conc.T @ conc), np.eye(2), atol=1e-10)
        np.testing.assert_array_equal(state.estimator.matrix, state.estimator.matrix.T)

    def test_dl_ridges_a_singular_init_gram(self, monkeypatch):
        """A component no init spectrum holds leaves C_0^T C_0 singular, so
        RIDGE I is added before the inverse."""
        conc = np.column_stack([np.ones(8), np.zeros(8)])
        monkeypatch.setattr("kfunmix.pipeline.estimate_concentrations", lambda rows, s: conc)
        _, _, state = small_stream_setup(updater="dl")
        expected = np.linalg.inv(np.diag([8.0, 0.0]) + RIDGE * np.eye(2))
        np.testing.assert_allclose(state.estimator.matrix, expected, rtol=1e-12)


class TestPipelineConfigValidation:
    def test_rejects_init_smaller_than_endmember_count(self):
        with pytest.raises(ValueError, match="n_init"):
            PipelineConfig(n_endmembers=3, n_init=2)

    @pytest.mark.parametrize("eta", [0.0, -1.0, 100.5])
    def test_rejects_eta_outside_range(self, eta):
        with pytest.raises(ValueError, match="eta"):
            PipelineConfig(n_endmembers=2, eta=eta)

    def test_rejects_bad_harmonic_override(self):
        with pytest.raises(ValueError, match="n_harmonics"):
            PipelineConfig(n_endmembers=2, n_harmonics=0)

    @pytest.mark.parametrize("k, least", [(1, 1), (2, 2), (3, 2), (4, 3), (12, 7)])
    def test_rejects_harmonics_too_few_for_the_endmembers(self, k, least):
        """2M reduced coordinates, the DC sine one always zero, span at most
        2M - 1 directions: K endmembers need 2M - 1 >= K."""
        PipelineConfig(n_endmembers=k, n_init=12, n_harmonics=least)
        message = f"n_harmonics must be >= {least} for n_endmembers = {k}"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(n_endmembers=k, n_init=12, n_harmonics=least - 1)

    def test_rejects_negative_process_noise(self):
        with pytest.raises(ValueError, match="sigma_v2"):
            PipelineConfig(n_endmembers=2, sigma_v2=-0.1)

    @pytest.mark.parametrize("sigma_v2", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_process_noise(self, sigma_v2):
        with pytest.raises(ValueError, match="sigma_v2 must be finite and >= 0"):
            PipelineConfig(n_endmembers=2, sigma_v2=sigma_v2)

    def test_rejects_unknown_updater(self):
        with pytest.raises(ValueError, match="updater"):
            PipelineConfig(n_endmembers=2, updater="sgd")

    @pytest.mark.parametrize("lam", [0.0, 1.2])
    def test_rejects_bad_forgetting_factor(self, lam):
        with pytest.raises(ValueError, match="rls_forgetting"):
            PipelineConfig(n_endmembers=2, rls_forgetting=lam)

    @pytest.mark.parametrize(
        "updater, setting, value",
        [
            ("kalman", "rls_forgetting", 0.9),
            ("dl", "rls_forgetting", 0.9),
            ("dl", "sigma_v2", 0.1),
            ("dl", "sigma_v2", 0.0),
        ],
    )
    def test_rejects_a_setting_the_updater_never_reads(self, updater, setting, value):
        with pytest.raises(ValueError, match=f"the {updater} updater does not read {setting}"):
            PipelineConfig(n_endmembers=2, updater=updater, **{setting: value})

    def test_accepts_the_settings_each_updater_reads(self):
        """Each updater takes the settings it reads, and any setting at its
        default; an explicit n_harmonics still overrides eta."""
        PipelineConfig(n_endmembers=2, updater="kalman", sigma_v2=0.1)
        PipelineConfig(n_endmembers=2, updater="rls", sigma_v2=0.1, rls_forgetting=0.9)
        for updater in UPDATERS:
            config = PipelineConfig(
                n_endmembers=2, updater=updater, sigma_v2=1.0, rls_forgetting=1.0,
                eta=90.0, n_harmonics=4,
            )
            assert (config.sigma_v2, config.rls_forgetting) == (1.0, 1.0)


class TestPipelineStep:
    def test_carries_the_setup_and_returns_walltime(self):
        truth, _, state = small_stream_setup()
        rng = np.random.default_rng(1)
        mix = rng.dirichlet(np.ones(2)) @ truth.T
        new_state, wall_ms = pipeline_step(state, mix)
        for name in ("config", "n_harmonics", "regressors", "sigma_e2"):
            assert getattr(new_state, name) is getattr(state, name)
        assert wall_ms > 0.0

    def test_state_stores_each_quantity_once(self):
        truth, _, state = small_stream_setup()
        new_state, _ = pipeline_step(state, truth @ np.array([0.3, 0.7]))
        for s in (state, new_state):
            names = [field.name for field in fields(s)]
            assert names == [
                "config", "n_harmonics", "regressors", "sigma_e2", "covariance", "endmembers"
            ]
            assert isinstance(s.estimator, FilterState)
            assert s.estimator.mean is s.endmembers.full.values
            np.testing.assert_array_equal(s.estimator.matrix, s.covariance)
        with pytest.raises(TypeError, match="estimator"):
            replace(state, estimator=state.estimator)

    def test_step_makes_no_fourier_product(self, monkeypatch):
        """The regression takes the posterior mean in channels, and its target
        map carries the Fourier operator from set-up: across a stream of
        steps no reduce runs, through this module or the regression's."""
        truth, _, state = small_stream_setup()
        posteriors, targets, reduced = [], [], []

        def updating(*args):
            posteriors.append(kf_update(*args))
            return posteriors[-1]

        def regressing(regressors, target):
            targets.append(target)
            return solve_regression(regressors, target)

        def counting(name):
            module, _, attr = name.rpartition(".")
            real = getattr(sys.modules[module], attr)

            def wrapper(*args):
                reduced.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr("kfunmix.pipeline.kf_update", updating)
        monkeypatch.setattr("kfunmix.pipeline.solve_regression", regressing)
        for name in ("kfunmix.pipeline.reduce_columns", "kfunmix.pipeline.reduce_spectrum",
                     "kfunmix.regression.reduce_columns"):
            monkeypatch.setattr(name, counting(name))
        rng = np.random.default_rng(6)
        for weights in rng.dirichlet(np.ones(2), size=5):
            state, _ = pipeline_step(state, truth @ weights)
        assert reduced == []
        assert len(targets) == len(posteriors) == 5
        for target, posterior in zip(targets, posteriors):
            # The posterior state itself, whose mean it has checked.
            assert target is posterior
            assert target.mean.shape == (64, 2)

    def test_next_prior_mean_is_the_constrained_estimate(self):
        truth, _, state = small_stream_setup()
        rng = np.random.default_rng(2)
        mix = rng.dirichlet(np.ones(2)) @ truth.T
        new_state, _ = pipeline_step(state, mix)
        np.testing.assert_array_equal(new_state.estimator.mean, new_state.endmembers.full.values)

    def test_covariance_matches_a_bare_filter_update(self):
        # the regression step must not touch the covariance
        truth, _, state = small_stream_setup()
        rng = np.random.default_rng(3)
        mix = rng.dirichlet(np.ones(2)) @ truth.T
        new_state, _ = pipeline_step(state, mix)
        conc = estimate_concentration(mix, state.endmembers.full)
        bare = kf_update(state.estimator, conc, mix, state.config.sigma_v2, state.sigma_e2)
        np.testing.assert_array_equal(new_state.estimator.matrix, bare.matrix)

    def test_full_estimate_stays_nonnegative(self):
        truth, _, state = small_stream_setup()
        rng = np.random.default_rng(5)
        for _ in range(4):
            mix = rng.dirichlet(np.ones(2)) @ truth.T
            state, _ = pipeline_step(state, mix)
        assert state.endmembers.full.values.min() >= 0.0

    def test_consistent_observations_keep_the_estimate_near_truth(self):
        truth, _, state = small_stream_setup()
        rng = np.random.default_rng(4)
        mix = rng.dirichlet(np.ones(2), size=5) @ truth.T
        basis = build_basis(64, state.n_harmonics)
        red0 = reduce_columns(state.endmembers.full.values, basis)
        full0 = state.endmembers.full.values.copy()
        for row in mix:
            state, _ = pipeline_step(state, row)
        red = reduce_columns(state.endmembers.full.values, basis)
        assert np.abs(red - red0).max() <= 1e-2
        assert np.abs(state.endmembers.full.values - full0).max() <= 0.05

    def test_zero_process_noise_freezes_the_covariance(self):
        truth, _, state = small_stream_setup(sigma_v2=0.0)
        rng = np.random.default_rng(4)
        wild = rng.dirichlet(np.ones(2), size=5) @ truth.T * 1.4 + 0.02
        mean0 = state.estimator.mean.copy()
        for row in wild:
            state, _ = pipeline_step(state, row)
        np.testing.assert_array_equal(state.estimator.matrix, 0.0)
        frozen_drift = np.abs(state.estimator.mean - mean0).max()
        assert frozen_drift <= 1e-2

        # same stream with live process noise moves the state far more
        _, _, live = small_stream_setup(sigma_v2=1.0)
        mean1 = live.estimator.mean.copy()
        for row in wild:
            live, _ = pipeline_step(live, row)
        live_drift = np.abs(live.estimator.mean - mean1).max()
        assert frozen_drift < 0.1 * live_drift

    def test_step_is_deterministic(self):
        truth, _, first = small_stream_setup()
        _, _, second = small_stream_setup()
        rng = np.random.default_rng(6)
        mix = rng.dirichlet(np.ones(2)) @ truth.T
        a, _ = pipeline_step(first, mix)
        b, _ = pipeline_step(second, mix)
        np.testing.assert_array_equal(
            a.endmembers.full.values, b.endmembers.full.values
        )
        np.testing.assert_array_equal(a.estimator.mean, b.estimator.mean)

    @pytest.mark.parametrize("updater", ["rls", "dl"])
    def test_alternative_updaters_run(self, updater):
        truth, _, start = small_stream_setup(updater=updater)
        rng = np.random.default_rng(7)
        state = start
        for _ in range(3):
            mix = rng.dirichlet(np.ones(2)) @ truth.T
            state, _ = pipeline_step(state, mix)
        assert not np.array_equal(state.estimator.matrix, start.estimator.matrix)
        assert np.all(np.isfinite(state.estimator.mean))
        assert state.endmembers.full.values.min() >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("updater", ["kalman", "rls", "dl"])
    def test_non_finite_spectrum_raises_numerical_error(self, updater, bad):
        truth, _, state = small_stream_setup(updater=updater)
        spectrum = truth @ np.array([0.5, 0.5])
        spectrum[10] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="not finite"):
                pipeline_step(state, spectrum)

    def test_dl_covariance_shrinks(self):
        truth, _, state = small_stream_setup(updater="dl")
        trace0 = np.trace(state.estimator.matrix)
        rng = np.random.default_rng(8)
        mix = rng.dirichlet(np.ones(2)) @ truth.T
        state, _ = pipeline_step(state, mix)
        assert np.trace(state.estimator.matrix) < trace0


class TestDlMatchesReference:
    """A DL stream against the Gram-form rule it replaced, started from A_0 = C_0^T C_0."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_channels, k, m", [(400, 5, 16), (200, 3, 8), (200, 5, 8)])
    def test_thousand_steps_agree_within_rounding(self, monkeypatch, n_channels, k, m, seed):
        data = generate_dataset(
            SynthConfig(n_spectra=1030, n_channels=n_channels, n_endmembers=k, snr_db=20.0, seed=seed)
        )
        rows = data.spectra.values
        config = PipelineConfig(n_endmembers=k, n_harmonics=m, updater="dl", seed=seed)
        state = init_pipeline(rows[:30], config)
        conc = estimate_concentrations(rows[:30], state.endmembers.full)
        ref = replace(state, covariance=conc.T @ conc)
        for y in rows[30:]:
            state, _ = pipeline_step(state, y)
        monkeypatch.setattr("kfunmix.pipeline.dl_update", dl_reference.dl_update)
        for y in rows[30:]:
            ref, _ = pipeline_step(ref, y)

        def assert_close(actual, desired):
            assert np.abs(actual - desired).max() <= 1e-10 * np.abs(desired).max()

        assert_close(state.endmembers.full.values, ref.endmembers.full.values)
        assert_close(state.estimator.mean, ref.estimator.mean)
        assert_close(state.estimator.matrix, np.linalg.inv(ref.estimator.matrix))


class TestMatchesTheReducedStep:
    """The channel-space step against the reduced-domain step it replaced
    (``tests/reduced_step_reference.py``), from the same start."""

    @pytest.mark.parametrize(
        "n_channels, k, m, updater", [(400, 5, 16, "kalman"), (200, 3, None, "rls"), (200, 3, 8, "dl")]
    )
    def test_three_hundred_steps_agree_within_rounding(self, n_channels, k, m, updater):
        data = generate_dataset(
            SynthConfig(n_spectra=330, n_channels=n_channels, n_endmembers=k, snr_db=20.0, seed=1)
        )
        rows = data.spectra.values
        config = PipelineConfig(n_endmembers=k, n_harmonics=m, updater=updater, seed=1)
        state = ref = init_pipeline(rows[:30], config)
        for y in rows[30:]:
            state, _ = pipeline_step(state, y)
            ref = reduced_step_reference.reduced_step(ref, y)

        def assert_close(actual, desired):
            assert np.abs(actual - desired).max() <= 1e-10 * np.abs(desired).max()

        assert_close(state.endmembers.full.values, ref.endmembers.full.values)
        assert_close(state.covariance.values, ref.covariance.values)


def stream_dataset(seed: int = 7) -> DatasetBundle:
    return generate_dataset(
        SynthConfig(n_spectra=60, n_channels=40, n_endmembers=2, snr_db=20.0, seed=seed)
    )


def stream_config(**overrides) -> PipelineConfig:
    base = dict(n_endmembers=2, n_init=10, n_harmonics=6, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


class TestRunExperiment:
    def test_record_cadence_includes_first_and_final(self):
        data = stream_dataset()
        order = protocol_p1(60)
        result = run_experiment(data, order, stream_config(), eval_stride=8)
        ts = [rec.t for rec in result.trace.records]
        assert ts == [11, 19, 27, 35, 43, 51, 59, 60]

    def test_stride_one_records_every_step(self):
        data = stream_dataset()
        order = protocol_p1(60)
        result = run_experiment(data, order, stream_config(), eval_stride=1)
        ts = [rec.t for rec in result.trace.records]
        assert ts == list(range(11, 61))
        assert all(rec.asad_deg is not None for rec in result.trace.records)

    def test_abundance_cadence_gates_rmse_and_re(self):
        data = stream_dataset()
        order = protocol_p1(60)
        result = run_experiment(
            data, order, stream_config(), eval_stride=8, abundance_stride=16
        )
        with_ab = [rec.t for rec in result.trace.records if rec.rmse is not None]
        assert with_ab == [11, 27, 43, 59, 60]
        for rec in result.trace.records:
            assert (rec.rmse is None) == (rec.re is None)

    def test_every_record_matches_an_independent_recomputation(self):
        """Replays the stream and recomputes each record without the metrics layer."""
        k = 3
        data = generate_dataset(
            SynthConfig(n_spectra=60, n_channels=40, n_endmembers=k, snr_db=20.0, seed=5)
        )
        order = protocol_p1(60)
        config = stream_config(n_endmembers=k)
        result = run_experiment(data, order, config, eval_stride=1, abundance_stride=1)

        stream = data.spectra.values[list(order.indices)]
        truth_s = data.endmembers.values
        truth_c = data.concentrations.values[list(order.indices)]
        perms = list(itertools.permutations(range(k)))
        state = init_pipeline(stream[: config.n_init], config)
        records = result.trace.records
        assert [rec.t for rec in records] == list(range(config.n_init + 1, 61))
        for rec in records:
            state, _ = pipeline_step(state, stream[rec.t - 1])
            est = state.endmembers.full.values
            totals = [sum(sad(est[:, p[i]], truth_s[:, i]) for i in range(k)) for p in perms]
            best = perms[int(np.argmin(totals))]
            acquired = stream[: rec.t]
            conc = estimate_concentrations(acquired, est)
            rmse = np.sqrt(np.mean((truth_c[: rec.t] - conc[:, best]) ** 2))
            re = np.linalg.norm(acquired - conc @ est.T) / np.linalg.norm(acquired)
            assert abs(rec.asad_deg - min(totals) / k) < 1e-10
            assert abs(rec.rmse - rmse) < 1e-10
            assert abs(rec.re - re) < 1e-10

    def test_zero_abundance_stride_disables_those_metrics(self):
        data = stream_dataset()
        order = protocol_p1(60)
        result = run_experiment(
            data, order, stream_config(), eval_stride=16, abundance_stride=0
        )
        assert all(rec.rmse is None and rec.re is None for rec in result.trace.records)
        assert all(rec.asad_deg is not None for rec in result.trace.records)

    def test_missing_truth_leaves_asad_and_rmse_unset(self):
        data = stream_dataset()
        blind = DatasetBundle(
            spectra=data.spectra,
            concentrations=None,
            endmembers=None,
            noise_variance_true=data.noise_variance_true,
            seed=data.seed,
        )
        order = protocol_p1(60)
        result = run_experiment(blind, order, stream_config(), eval_stride=16)
        for rec in result.trace.records:
            assert rec.asad_deg is None
            assert rec.rmse is None
            assert rec.re is not None

    def test_baseline_trace_cadence_and_snapshot(self):
        data = stream_dataset()
        order = protocol_p1(60)
        result = run_experiment(
            data,
            order,
            stream_config(),
            eval_stride=16,
            baselines=("vca",),
            baseline_stride=25,
        )
        assert set(result.baselines) == {"vca"}
        ref = result.baselines["vca"]
        assert [rec.t for rec in ref.records] == [11, 36, 60]
        assert all(rec.rmse is not None and rec.re is not None for rec in ref.records)
        assert ref.config_snapshot["baseline"] == "vca"
        assert ref.config_snapshot["baseline_stride"] == "25"
        assert ref.final_endmembers.values.shape == (40, 2)

    def test_mcr_baseline_runs(self):
        data = stream_dataset()
        order = protocol_p1(60)
        # Started from VCA, no refresh meets a rank-deficient design.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_experiment(
                data,
                order,
                stream_config(),
                eval_stride=16,
                baselines=("mcr-als",),
                baseline_stride=100,
            )
        assert not [w for w in caught if "rank deficient" in str(w.message)]
        ref = result.baselines["mcr-als"]
        assert [rec.t for rec in ref.records] == [11, 60]
        assert ref.final_concentrations.values.shape == (60, 2)

    def test_both_baselines_share_one_vca_per_record(self, monkeypatch):
        data = stream_dataset()
        order = protocol_p1(60)
        options = dict(eval_stride=16, baseline_stride=25)
        alone = {
            name: run_experiment(data, order, stream_config(), baselines=(name,), **options)
            for name in BASELINES
        }
        calls = []

        def slow_vca(spectra, n_endmembers, seed):
            calls.append(len(getattr(spectra, "values", spectra)))
            time.sleep(0.01)
            return vca(spectra, n_endmembers, seed)

        monkeypatch.setattr("kfunmix.pipeline.vca", slow_vca)
        both = run_experiment(data, order, stream_config(), baselines=BASELINES, **options)
        # the init endmembers, then one VCA per baseline record
        assert calls == [10, 11, 36, 60]
        for name in BASELINES:
            ref, one = both.baselines[name], alone[name].baselines[name]
            assert [replace(r, wall_ms=0.0) for r in ref.records] == [
                replace(r, wall_ms=0.0) for r in one.records
            ]
            assert all(r.wall_ms >= 10.0 for r in ref.records)
            np.testing.assert_array_equal(ref.final_endmembers.values, one.final_endmembers.values)
            np.testing.assert_array_equal(
                ref.final_concentrations.values, one.final_concentrations.values
            )

    @pytest.mark.parametrize("n_harmonics", [6, None])
    def test_snapshot_carries_the_run_settings(self, n_harmonics):
        data = stream_dataset()
        order = protocol_p1(60)
        # At eta = 99 this set's chosen M is 5; the default 87 keeps only DC.
        config = stream_config(n_harmonics=n_harmonics, eta=99.0)
        result = run_experiment(data, order, config, eval_stride=16)
        snap = result.trace.config_snapshot
        assert set(snap) == {
            "n_endmembers", "n_init", "eta", "n_harmonics", "sigma_v2", "updater",
            "rls_forgetting", "seed", "sigma_e2_hat", "eval_stride", "abundance_stride",
            "n_stream",
        }
        assert snap["n_endmembers"] == "2"
        assert snap["n_init"] == "10"
        assert snap["updater"] == "kalman"
        chosen = n_harmonics or select_num_harmonics(data.spectra.values[:10], config.eta)
        assert snap["n_harmonics"] == str(chosen)
        assert snap["n_stream"] == "60"
        assert snap["eval_stride"] == "16"
        assert float(snap["sigma_e2_hat"]) > 0.0
        assert "rho" not in snap
        assert "admm_iters" not in snap

    def test_final_concentrations_cover_the_stream(self):
        data = stream_dataset()
        order = protocol_p1(60)
        result = run_experiment(data, order, stream_config(), eval_stride=16)
        conc = result.trace.final_concentrations.values
        assert conc.shape == (60, 2)
        np.testing.assert_allclose(conc.sum(axis=1), 1.0, atol=1e-9)

    @staticmethod
    def count_batch_fcls(monkeypatch):
        """Record the row count of every batch FCLS the runner makes."""
        rows = []

        def counted(spectra_rows, endmembers):
            rows.append(np.asarray(spectra_rows).shape[0])
            return estimate_concentrations(spectra_rows, endmembers)

        monkeypatch.setattr("kfunmix.pipeline.estimate_concentrations", counted)
        return rows

    def test_final_abundances_come_from_the_last_record(self, monkeypatch):
        """One batch FCLS per record with abundances and none after the
        loop: the final record already solved the whole stream."""
        rows = self.count_batch_fcls(monkeypatch)
        data = stream_dataset()
        order = protocol_p1(60)
        config = stream_config()
        result = run_experiment(
            data, order, config, eval_stride=8, abundance_stride=1,
            baselines=("vca",), baseline_stride=25,
        )
        main = [rec.t for rec in result.trace.records if rec.rmse is not None]
        ref = [rec.t for rec in result.baselines["vca"].records]
        assert main == [11, 19, 27, 35, 43, 51, 59, 60]
        assert ref == [11, 36, 60]
        assert sorted(rows) == sorted(main + ref)

        stream = data.spectra.values[list(order.indices)]
        for trace in (result.trace, result.baselines["vca"]):
            np.testing.assert_array_equal(
                trace.final_concentrations.values,
                estimate_concentrations(stream, trace.final_endmembers),
            )

    def test_zero_abundance_stride_solves_the_final_abundances_once(self, monkeypatch):
        rows = self.count_batch_fcls(monkeypatch)
        data = stream_dataset()
        order = protocol_p1(60)
        config = stream_config()
        result = run_experiment(data, order, config, eval_stride=8, abundance_stride=0)
        assert rows == [60]
        stream = data.spectra.values[list(order.indices)]
        np.testing.assert_array_equal(
            result.trace.final_concentrations.values,
            estimate_concentrations(stream, result.trace.final_endmembers),
        )

    def test_deterministic_apart_from_walltime(self):
        data = stream_dataset()
        order = protocol_p1(60, shuffle_seed=3)
        first = run_experiment(data, order, stream_config(), eval_stride=16)
        second = run_experiment(data, order, stream_config(), eval_stride=16)
        np.testing.assert_array_equal(
            first.trace.final_endmembers.values,
            second.trace.final_endmembers.values,
        )
        for a, b in zip(first.trace.records, second.trace.records):
            assert a.t == b.t
            assert a.asad_deg == b.asad_deg

    def test_rejects_order_beyond_the_dataset(self):
        data = stream_dataset()
        order = AcquisitionOrder(tuple(range(1, 61)))
        with pytest.raises(ValueError, match="beyond the dataset"):
            run_experiment(data, order, stream_config())

    def test_rejects_stream_not_longer_than_init(self):
        data = stream_dataset()
        order = AcquisitionOrder(tuple(range(10)))
        with pytest.raises(ValueError, match="need more than n_init"):
            run_experiment(data, order, stream_config())

    def test_rejects_bad_strides_and_baselines(self):
        data = stream_dataset()
        order = protocol_p1(60)
        with pytest.raises(ValueError, match="eval_stride"):
            run_experiment(data, order, stream_config(), eval_stride=0)
        with pytest.raises(ValueError, match="abundance_stride"):
            run_experiment(data, order, stream_config(), abundance_stride=-1)
        with pytest.raises(ValueError, match="baseline_stride"):
            run_experiment(data, order, stream_config(), baseline_stride=0)
        with pytest.raises(ValueError, match="unknown baseline 'pls'"):
            run_experiment(data, order, stream_config(), baselines=("pls",))

    def test_option_check_reads_only_the_strides_given(self):
        check_experiment_options(())
        check_experiment_options(BASELINES, abundance_stride=0)
        for name, least in STRIDES.items():
            check_experiment_options((), **{name: least})
            with pytest.raises(ValueError, match=f"{name} must be >= {least}"):
                check_experiment_options((), **{name: least - 1})
        with pytest.raises(ValueError, match="unknown baseline 'pls'"):
            check_experiment_options(("vca", "pls"), eval_stride=1)
        with pytest.raises(ValueError, match="more than once"):
            check_experiment_options(("vca", "mcr-als", "vca"))

    def test_repeated_baseline_raises_before_the_stream_starts(self, monkeypatch):
        calls = []
        monkeypatch.setattr("kfunmix.pipeline.init_pipeline", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"baselines \('vca', 'vca'\) name a baseline more than once"):
            run_experiment(stream_dataset(), protocol_p1(60), stream_config(), baselines=("vca", "vca"))
        assert calls == []

    def test_flushes_partial_trace_on_numerical_failure(self, tmp_path, monkeypatch):
        data = stream_dataset()
        order = protocol_p1(60)
        calls = {"n": 0}

        def failing_update(state, concentration, observed, sigma_v2, sigma_e2):
            calls["n"] += 1
            if calls["n"] >= 4:
                raise NumericalError("innovation covariance is not invertible")
            return kf_update(state, concentration, observed, sigma_v2, sigma_e2)

        monkeypatch.setattr("kfunmix.pipeline.kf_update", failing_update)
        out = tmp_path / "partial.csv"
        with pytest.raises(NumericalError):
            run_experiment(
                data, order, stream_config(), eval_stride=1, flush_path=out
            )
        records, comments = read_trace_csv(out)
        assert [rec.t for rec in records] == [11, 12, 13]
        assert comments["n_stream"] == "60"

    def test_singular_init_endmembers_abort_and_flush(self, tmp_path):
        """Two identical init endmembers at scale 1e3 leave the ridged Gram
        singular to working precision; the first step's FCLS raises
        NumericalError and the stream fails after flushing its (empty)
        trace."""
        data = stream_dataset()
        column = data.endmembers.values[:, :1] * 1e3
        config = stream_config(init_endmembers=EndmemberMatrix(np.hstack([column, column])))
        out = tmp_path / "partial.csv"
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "endmember matrix is ill-conditioned")
            with pytest.raises(NumericalError, match="singular"):
                run_experiment(data, protocol_p1(60), config, eval_stride=1, flush_path=out)
        records, comments = read_trace_csv(out)
        assert len(records) == 0
        assert comments["n_stream"] == "60"

    def test_non_finite_spectrum_aborts_and_flushes(self, tmp_path):
        data = stream_dataset()
        # Streamed rows start at t=11, so the 4th one is t=14 (row 13).
        data.spectra.values[13, 5] = np.nan
        out = tmp_path / "partial.csv"
        with pytest.raises(NumericalError):
            run_experiment(
                data, protocol_p1(60), stream_config(), eval_stride=1, flush_path=out
            )
        records, _ = read_trace_csv(out)
        assert [rec.t for rec in records] == [11, 12, 13]


class TestEvaluationMatchesTheOracle:
    """Runs against the evaluation formulas of ``tests/evaluation_reference.py``:
    every record's ASAD and RMSE and the final abundances bit for bit, RE
    within 1e-12 relative, for the stream and its VCA baseline."""

    @pytest.mark.parametrize("k", [3, 5, 8])
    @pytest.mark.parametrize("abundance_stride", [1, 3])
    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_records_and_final_abundances(self, k, abundance_stride, protocol, monkeypatch):
        data = generate_dataset(
            SynthConfig(n_spectra=100, n_channels=120, n_endmembers=k, snr_db=30.0,
                        purity_cap=0.8 if protocol == "p2" else None, seed=k)
        )
        if protocol == "p1":
            order = protocol_p1(100)
        else:
            order = protocol_p2(data.spectra, build_basis(120, 2), P2Config(80, 10, seed=k))
        config = PipelineConfig(n_endmembers=k, n_init=30, seed=k)

        def run():
            return run_experiment(
                data, order, config, abundance_stride=abundance_stride,
                baselines=("vca",), baseline_stride=7,
            )

        got = run()
        # the stream's fit is loose enough that every RE comes from the identity
        assert min(r.re for r in got.trace.records if r.re is not None) ** 2 >= RE_IDENTITY_SHARE
        for name in ("estimate_concentrations", "reconstruction_error", "rmse_concentrations"):
            monkeypatch.setattr(f"kfunmix.pipeline.{name}", getattr(evaluation_reference, name))
        want = run()
        for trace, ref in [(got.trace, want.trace), (got.baselines["vca"], want.baselines["vca"])]:
            assert [r.t for r in trace.records] == [r.t for r in ref.records]
            assert sum(r.re is not None for r in trace.records) > 1
            for rec, ref_rec in zip(trace.records, ref.records):
                assert rec.asad_deg == ref_rec.asad_deg
                assert rec.rmse == ref_rec.rmse
                if ref_rec.re is None:
                    assert rec.re is None
                else:
                    assert abs(rec.re - ref_rec.re) <= 1e-12 * ref_rec.re
            for field in ("final_concentrations", "final_endmembers"):
                assert np.array_equal(getattr(trace, field).values, getattr(ref, field).values)


def run_in_fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this checkout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


EXPERIMENT_CODE = """
import sys
import kfunmix.cli
from kfunmix.pipeline import PipelineConfig, run_experiment
from kfunmix.protocols import protocol_p1
from kfunmix.synthdata import SynthConfig, generate_dataset
data = generate_dataset(SynthConfig(n_spectra=40, n_channels=40, n_endmembers=2, seed=3))
result = run_experiment(
    data, protocol_p1(40), PipelineConfig(n_endmembers=2, n_init=10, n_harmonics=6),
    eval_stride=10, baselines=({baseline!r},), baseline_stride=10,
)
assert result.trace.records[-1].asad_deg is not None
assert result.baselines[{baseline!r}].records[-1].asad_deg is not None
print("scipy.optimize" in sys.modules)
"""


class TestImportFootprint:
    """scipy.optimize (about 20 MB) is loaded by no path of kfunmix: the
    MCR-ALS baseline's NNLS step is the in-repo support enumeration."""

    def test_stream_records_and_vca_baseline_leave_it_unloaded(self):
        assert run_in_fresh_interpreter(EXPERIMENT_CODE.format(baseline="vca")) == "False\n"

    def test_mcr_als_baseline_leaves_it_unloaded(self):
        assert run_in_fresh_interpreter(EXPERIMENT_CODE.format(baseline="mcr-als")) == "False\n"
