"""Tests for synthetic mixtures, the smoother, and noise-floor estimation."""
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import savgol_filter

from kfunmix import synthdata
from kfunmix.metrics import sad
from kfunmix.synthdata import (
    SynthConfig,
    estimate_noise_variance,
    generate_dataset,
    generate_pure_spectra,
    savitzky_golay,
)


class TestSavitzkyGolay:
    def test_impulse_center_weight(self):
        """The classic cubic/5-point kernel assigns 17/35 to the center."""
        impulse = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out = savitzky_golay(impulse)
        assert abs(out[2] - 17.0 / 35.0) < 1e-12

    def test_window_fit_matches_polyfit_oracle(self):
        """On a window-sized input the smoother is exactly the cubic
        least-squares fit evaluated at every sample."""
        rng = np.random.default_rng(0)
        y = rng.normal(size=5)
        x = np.arange(5.0)
        fit = np.polyval(np.polyfit(x, y, 3), x)
        np.testing.assert_allclose(savitzky_golay(y), fit, atol=1e-10)

    def test_reproduces_cubic_exactly(self):
        """Polynomials up to the filter order pass through unchanged,
        including the edge samples."""
        x = np.linspace(-1.0, 1.0, 21)
        y = 2.0 - x + 0.5 * x**2 - 3.0 * x**3
        np.testing.assert_allclose(savitzky_golay(y), y, atol=1e-10)

    def test_constant_unchanged(self):
        np.testing.assert_allclose(savitzky_golay(np.full(9, 4.2)), 4.2, atol=1e-12)

    def test_smooths_each_row_of_a_matrix(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(4, 12))
        out = savitzky_golay(rows)
        for row, smoothed in zip(rows, out):
            np.testing.assert_array_equal(smoothed, savitzky_golay(row))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            savitzky_golay(np.ones(4))
        with pytest.raises(ValueError):
            savitzky_golay(np.float64(1.0))

    @pytest.mark.parametrize("rows", [None, 3])
    def test_matches_scipy_savgol_filter(self, rows):
        """scipy's interp mode fits the end windows with polyfit; the fixed
        weights agree with it to rounding for every length from 5 to 400."""
        rng = np.random.default_rng(4)
        for n in range(5, 401):
            shape = (n,) if rows is None else (rows, n)
            y = rng.normal(size=shape) * rng.uniform(0.01, 100.0)
            reference = savgol_filter(y, 5, 3, mode="interp")
            np.testing.assert_allclose(
                savitzky_golay(y), reference, rtol=1e-13,
                atol=1e-13 * np.max(np.abs(reference)), err_msg=f"length {n}",
            )

    def test_edge_weights_are_the_exact_cubic_fit(self):
        """Against the rational weights summed exactly, every sample is within
        a few units in the last place of the largest value."""
        first = [Fraction(w, 70) for w in (69, 4, -6, 4, -1)]
        second = [Fraction(w, 35) for w in (2, 27, 12, -8, 2)]
        inner = [Fraction(w, 35) for w in (-3, 12, 17, 12, -3)]
        rng = np.random.default_rng(5)
        for n in range(5, 13):
            y = rng.normal(size=n)
            exact = [Fraction(v) for v in y]
            back = exact[::-1]
            expected = [sum(w * v for w, v in zip(inner, exact[i - 2 : i + 3]))
                        for i in range(n)]
            expected[0] = sum(w * v for w, v in zip(first, exact))
            expected[1] = sum(w * v for w, v in zip(second, exact))
            expected[-1] = sum(w * v for w, v in zip(first, back))
            expected[-2] = sum(w * v for w, v in zip(second, back))
            expected = np.array([float(v) for v in expected])
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(savitzky_golay(y) - expected)) <= 4e-16 * scale


def test_no_kfunmix_module_imports_scipy_signal_or_stats():
    """scipy.signal pulls in scipy.stats and about a quarter of the import
    footprint; no module of the package needs either."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys\n"
        "import kfunmix.pipeline, kfunmix.cli, kfunmix.mcrals, kfunmix.vca\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestGeneratePureSpectra:
    def test_unit_maximum_columns(self):
        out = generate_pure_spectra(120, 4, seed=0)
        np.testing.assert_allclose(out.values.max(axis=0), 1.0, atol=1e-12)
        assert np.min(out.values) >= 0.0

    def test_pairwise_angles_separated(self):
        out = generate_pure_spectra(200, 5, seed=1).values
        for i in range(5):
            for j in range(i + 1, 5):
                assert sad(out[:, i], out[:, j]) >= 10.0

    def test_deterministic(self):
        a = generate_pure_spectra(80, 3, seed=7).values
        b = generate_pure_spectra(80, 3, seed=7).values
        np.testing.assert_array_equal(a, b)

    def test_impossible_separation_raises(self, monkeypatch):
        """When every draw is the same spectrum, no second one can reach
        the required angle to the first."""
        fixed = np.linspace(0.5, 1.0, 8)
        monkeypatch.setattr(synthdata, "_draw_peak_spectrum", lambda n_channels, rng: fixed)
        with pytest.raises(ValueError, match="pairwise angle"):
            generate_pure_spectra(8, 2, seed=0)


class TestGenerateDataset:
    def test_noiseless_is_exact_linear_model(self):
        cfg = SynthConfig(n_spectra=50, n_channels=60, n_endmembers=3, snr_db=np.inf, seed=2)
        data = generate_dataset(cfg)
        clean = data.concentrations.values @ data.endmembers.values.T
        np.testing.assert_array_equal(data.spectra.values, clean)
        assert data.noise_variance_true == 0.0

    def test_snr_calibration(self):
        """Empirical SNR of a large draw lands within 0.2 dB of the target."""
        cfg = SynthConfig(n_spectra=500, n_channels=200, n_endmembers=3, snr_db=20.0, seed=3)
        data = generate_dataset(cfg)
        clean = data.concentrations.values @ data.endmembers.values.T
        noise = data.spectra.values - clean
        snr_db = 10.0 * np.log10(np.sum(clean**2) / np.sum(noise**2))
        assert abs(snr_db - 20.0) < 0.2

    def test_noise_variance_matches_definition(self):
        cfg = SynthConfig(n_spectra=100, n_channels=80, n_endmembers=2, snr_db=15.0, seed=4)
        data = generate_dataset(cfg)
        clean = data.concentrations.values @ data.endmembers.values.T
        expected = np.sum(clean**2) / (clean.size * 10.0**1.5)
        assert abs(data.noise_variance_true - expected) < 1e-15

    def test_concentration_rows_close(self):
        cfg = SynthConfig(n_spectra=200, n_channels=40, n_endmembers=4, seed=5)
        conc = generate_dataset(cfg).concentrations.values
        np.testing.assert_allclose(conc.sum(axis=1), 1.0, atol=1e-9)
        assert np.min(conc) >= 0.0

    def test_purity_cap_enforced(self):
        cfg = SynthConfig(
            n_spectra=300, n_channels=40, n_endmembers=3, purity_cap=0.75, seed=6
        )
        conc = generate_dataset(cfg).concentrations.values
        assert np.max(conc) <= 0.75
        np.testing.assert_allclose(conc.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_bundles(self):
        cfg = SynthConfig(n_spectra=30, n_channels=50, n_endmembers=2, seed=8)
        a, b = generate_dataset(cfg), generate_dataset(cfg)
        np.testing.assert_array_equal(a.spectra.values, b.spectra.values)
        other = generate_dataset(
            SynthConfig(n_spectra=30, n_channels=50, n_endmembers=2, seed=9)
        )
        assert not np.array_equal(a.spectra.values, other.spectra.values)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_spectra"):
            SynthConfig(n_spectra=0, n_channels=10, n_endmembers=2)
        with pytest.raises(ValueError, match="n_channels"):
            SynthConfig(n_spectra=5, n_channels=1, n_endmembers=2)
        with pytest.raises(ValueError, match="alpha must be positive"):
            SynthConfig(n_spectra=5, n_channels=10, n_endmembers=2, alpha=0.0)
        with pytest.raises(ValueError, match="alpha tuple length"):
            SynthConfig(n_spectra=5, n_channels=10, n_endmembers=2, alpha=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="purity_cap"):
            SynthConfig(n_spectra=5, n_channels=10, n_endmembers=2, purity_cap=0.4)

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("alpha", np.nan),
            ("alpha", np.inf),
            ("alpha", (1.0, np.nan)),
            ("snr_db", np.nan),
            ("snr_db", -np.inf),
        ],
    )
    def test_non_finite_setting_is_rejected_by_name(self, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be"):
            SynthConfig(n_spectra=5, n_channels=10, n_endmembers=2, **{setting: value})


class TestEstimateNoiseVariance:
    def test_is_segment_statistic_of_the_smoothing_residual(self):
        rng = np.random.default_rng(4)
        rows = np.sin(np.linspace(0.0, 6.0, 47)) + 0.05 * rng.normal(size=(3, 47))
        seg = synthdata.SEGMENT_LEN
        n_seg = rows.shape[1] // seg
        residual = (rows - savitzky_golay(rows))[:, : n_seg * seg].reshape(3, n_seg, seg)
        expected = np.mean(np.median(np.var(residual, axis=2, ddof=1), axis=1))
        assert estimate_noise_variance(rows) == expected

    def test_zero_on_smooth_rows(self):
        """Cubic rows are reproduced exactly, leaving nothing to measure."""
        x = np.linspace(0.0, 2.0, 50)
        rows = np.vstack([1.0 + x - x**3, 0.5 * x**2, 2.0 - x])
        assert estimate_noise_variance(rows) < 1e-20

    def test_recovers_order_of_magnitude(self):
        """Smoothing absorbs part of the noise, so the estimate sits between
        about 30 percent and 100 percent of the truth."""
        cfg = SynthConfig(n_spectra=30, n_channels=340, n_endmembers=3, snr_db=np.inf, seed=8)
        clean = generate_dataset(cfg).spectra.values
        rng = np.random.default_rng(12)
        noisy = clean + 5.0 * rng.normal(size=clean.shape)
        est = estimate_noise_variance(noisy)
        assert 7.5 <= est <= 25.0

    def test_quadratic_in_noise_scale(self):
        """Doubling the same noise realization quadruples the estimate."""
        cfg = SynthConfig(n_spectra=20, n_channels=340, n_endmembers=3, snr_db=np.inf, seed=9)
        clean = generate_dataset(cfg).spectra.values
        z = np.random.default_rng(13).normal(size=clean.shape)
        lo = estimate_noise_variance(clean + 5.0 * z)
        hi = estimate_noise_variance(clean + 10.0 * z)
        assert abs(hi / lo - 4.0) < 0.4

    def test_single_spectrum_accepted(self):
        rng = np.random.default_rng(14)
        est = estimate_noise_variance(np.sin(np.linspace(0, 3, 40)) + 0.1 * rng.normal(size=40))
        assert est > 0.0

    def test_too_few_channels(self):
        with pytest.raises(ValueError, match="at least 10 channels"):
            estimate_noise_variance(np.ones((2, 9)))
