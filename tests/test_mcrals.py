"""Tests for the alternating least squares baseline."""

import warnings

import numpy as np
import pytest

from kfunmix import mcrals
from kfunmix.datamodel import EndmemberMatrix
from kfunmix.mcrals import McrConfig, mcr_als, pca_nonneg_init
from kfunmix.metrics import pca_lower_bound
from kfunmix.synthdata import SynthConfig, generate_dataset
from kfunmix.vca import vca


def noiseless_dataset(seed: int = 2):
    config = SynthConfig(
        n_spectra=50, n_channels=60, n_endmembers=3, snr_db=np.inf, seed=seed
    )
    return generate_dataset(config)


def noisy_dataset(seed: int = 3):
    config = SynthConfig(
        n_spectra=120, n_channels=60, n_endmembers=3, snr_db=20.0, seed=seed
    )
    return generate_dataset(config)


class TestMcrAls:
    def test_exact_data_with_true_init_stays_at_machine_zero(self):
        data = noiseless_dataset()
        result = mcr_als(data.spectra.values, McrConfig(init=data.endmembers))
        scale = np.linalg.norm(data.spectra.values)
        assert result.residuals[0] / scale < 1e-12
        assert result.residuals[-1] / scale < 1e-12

    def test_residuals_are_nonincreasing(self):
        data = noisy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(data.spectra, 3, seed=0)
            result = mcr_als(data.spectra.values, McrConfig(init=init))
        pairs = zip(result.residuals, result.residuals[1:])
        assert all(later <= earlier + 1e-12 for earlier, later in pairs)
        assert 1 <= len(result.residuals) <= mcrals.MAX_ITERS

    def test_final_residual_matches_returned_factors(self):
        data = noisy_dataset(seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(data.spectra, 3, seed=0)
            result = mcr_als(data.spectra.values, McrConfig(init=init))
        recon = result.concentrations.values @ result.endmembers.values.T
        recomputed = np.linalg.norm(data.spectra.values - recon)
        assert result.residuals[-1] == pytest.approx(recomputed, abs=1e-12)

    def test_constraints_hold_on_output(self):
        data = noisy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(data.spectra, 3, seed=0)
            result = mcr_als(data.spectra.values, McrConfig(init=init))
        conc = result.concentrations.values
        assert np.all(conc >= 0.0)
        np.testing.assert_allclose(conc.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(result.endmembers.values >= 0.0)
        # no endmember collapsed to the zero spectrum
        assert np.linalg.norm(result.endmembers.values, axis=0).min() > 1e-6

    def test_reaches_pca_lower_bound_with_good_init(self):
        data = noisy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(data.spectra, 3, seed=0)
            result = mcr_als(data.spectra.values, McrConfig(init=init))
        relative = result.residuals[-1] / np.linalg.norm(data.spectra.values)
        bound = pca_lower_bound(data.spectra.values, 3)
        assert relative >= bound - 1e-12
        assert relative <= 1.05 * bound

    def test_single_component_is_clamped_column_mean(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(0.0, 1.0, size=(40, 12))
        rows[:, 4] -= 2.0  # force a negative column mean
        init = EndmemberMatrix(np.ones((12, 1)))
        result = mcr_als(rows, McrConfig(init=init))
        np.testing.assert_array_equal(result.concentrations.values, 1.0)
        expected = np.maximum(rows.mean(axis=0), 0.0)
        np.testing.assert_allclose(result.endmembers.values[:, 0], expected, atol=1e-12)

    def test_rank_deficient_concentrations_trigger_ridge_warning(self, monkeypatch):
        # identical spectra give identical abundance rows, so the
        # two-component design matrix is singular
        monkeypatch.setattr(mcrals, "MAX_ITERS", 2)
        row = np.linspace(1.0, 2.0, 16)
        rows = np.tile(row, (10, 1))
        init = EndmemberMatrix(np.column_stack([row, row[::-1]]))
        with pytest.warns(UserWarning, match="rank deficient"):
            result = mcr_als(rows, McrConfig(init=init))
        assert np.all(np.isfinite(result.endmembers.values))

    def test_component_absent_from_every_row_keeps_its_column(self):
        # a spike far from every mixture of the first two gets no abundance,
        # so the NNLS step must return its column as exact zeros
        row = np.linspace(1.0, 2.0, 16)
        rows = np.random.default_rng(12).dirichlet(np.ones(2), 30) @ np.vstack([row, row[::-1]])
        spike = np.zeros(16)
        spike[0] = 50.0
        init = EndmemberMatrix(np.column_stack([row, row[::-1], spike]))
        with pytest.warns(UserWarning, match="rank deficient"):
            result = mcr_als(rows, McrConfig(init=init))
        np.testing.assert_array_equal(result.endmembers.values[:, 2], spike)

    def test_rel_tol_stops_after_two_iterations(self, monkeypatch):
        monkeypatch.setattr(mcrals, "REL_TOL", 1.0)
        data = noisy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(data.spectra, 3, seed=0)
            result = mcr_als(data.spectra.values, McrConfig(init=init))
        assert len(result.residuals) == 2

    def test_max_iters_caps_the_run(self, monkeypatch):
        monkeypatch.setattr(mcrals, "MAX_ITERS", 4)
        data = noisy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(data.spectra, 3, seed=0)
            result = mcr_als(data.spectra.values, McrConfig(init=init))
        assert len(result.residuals) <= 4

    def test_accepts_spectra_matrix_wrapper(self):
        data = noiseless_dataset()
        raw = mcr_als(data.spectra.values, McrConfig(init=data.endmembers))
        wrapped = mcr_als(data.spectra, McrConfig(init=data.endmembers))
        np.testing.assert_array_equal(
            raw.endmembers.values, wrapped.endmembers.values
        )


class TestValidation:
    def test_rejects_one_dimensional_spectra(self):
        init = EndmemberMatrix(np.ones((4, 1)))
        with pytest.raises(ValueError, match="spectra must be 2-dimensional, got ndim=1"):
            mcr_als(np.ones(4), McrConfig(init=init))

    def test_rejects_channel_mismatch(self):
        init = EndmemberMatrix(np.ones((5, 1)))
        with pytest.raises(ValueError, match="channels do not match"):
            mcr_als(np.ones((3, 4)), McrConfig(init=init))


class TestPcaInit:
    def test_shape_and_nonnegativity(self):
        data = noisy_dataset()
        init = pca_nonneg_init(data.spectra.values, 3, seed=0)
        assert init.values.shape == (60, 3)
        assert np.all(init.values >= 0.0)

    def test_deterministic(self):
        data = noisy_dataset()
        first = pca_nonneg_init(data.spectra.values, 3, seed=0)
        second = pca_nonneg_init(data.spectra.values, 3, seed=0)
        np.testing.assert_array_equal(first.values, second.values)

    def test_single_component(self):
        data = noisy_dataset()
        init = pca_nonneg_init(data.spectra.values, 1, seed=0)
        assert init.values.shape == (60, 1)
        assert np.linalg.norm(init.values) > 0.0
