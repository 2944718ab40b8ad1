"""Synthetic mixture generation and noise-floor estimation.

Pure spectra are sums of Gaussian peaks normalized to unit maximum, kept
mutually distinct by rejection on their pairwise spectral angle.
Mixtures follow the linear model Y = C S^T with Dirichlet-distributed
abundance rows and white Gaussian noise calibrated to a target SNR
defined as 10 log10(||C S^T||_F^2 / (N L sigma_e^2)).

The observation noise variance is estimated from smoothing residuals: a
Savitzky-Golay filter removes the low-curvature signal, the residual is
chopped into short segments, and the statistic is the mean over spectra
of the median per-segment variance.  On smooth data this lands between
roughly half the true variance and the true variance, since smoothing
absorbs part of the noise itself.

The filter is the cubic 5-point Savitzky-Golay smooth, written out in
NumPy from its fixed rational weights: (-3, 12, 17, 12, -3)/35 inside,
and the cubic fit to the end window at the two samples of each end.
``scipy.signal.savgol_filter`` computes the same smooth, but importing
``scipy.signal`` pulls in ``scipy.stats`` and about a quarter of the
package's import footprint, so no kfunmix module imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import (
    ConcentrationMatrix,
    DatasetBundle,
    EndmemberMatrix,
    FloatArray,
    SpectraMatrix,
)
from .metrics import sad

MIN_PAIRWISE_SAD_DEG = 10.0
MAX_ENDMEMBER_ATTEMPTS = 100
MAX_CONCENTRATION_DRAWS = 10**6
# Inclusive ranges of the Gaussian peak count and width (in channels) per endmember.
N_PEAKS = (8, 16)
PEAK_WIDTH = (2.0, 5.0)
# Channels per residual segment in the noise estimate.
SEGMENT_LEN = 10


@dataclass(frozen=True)
class SynthConfig:
    n_spectra: int
    n_channels: int
    n_endmembers: int
    snr_db: float = 20.0
    alpha: float | tuple[float, ...] = 1.0
    purity_cap: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_spectra < 1:
            raise ValueError("n_spectra must be >= 1")
        if self.n_channels < 2:
            raise ValueError("n_channels must be >= 2")
        if self.n_endmembers < 1:
            raise ValueError("n_endmembers must be >= 1")
        if not self.snr_db > -np.inf:
            raise ValueError(f"snr_db must be a number or inf (noiseless), got {self.snr_db}")
        alphas = self.alpha if isinstance(self.alpha, tuple) else (self.alpha,)
        if not all(0.0 < a < np.inf for a in alphas):
            raise ValueError(f"Dirichlet alpha must be positive and finite, got {self.alpha}")
        if isinstance(self.alpha, tuple) and len(self.alpha) != self.n_endmembers:
            raise ValueError("alpha tuple length must equal n_endmembers")
        if self.purity_cap is not None:
            if not 1.0 / self.n_endmembers < self.purity_cap <= 1.0:
                raise ValueError(
                    f"purity_cap must be in (1/K, 1], got {self.purity_cap}"
                )


def _draw_peak_spectrum(n_channels: int, rng: np.random.Generator) -> FloatArray:
    n_peaks = int(rng.integers(N_PEAKS[0], N_PEAKS[1] + 1))
    centers = rng.uniform(0.05 * n_channels, 0.95 * n_channels, size=n_peaks)
    widths = rng.uniform(PEAK_WIDTH[0], PEAK_WIDTH[1], size=n_peaks)
    amplitudes = rng.uniform(0.2, 1.0, size=n_peaks)
    grid = np.arange(n_channels)[None, :]
    shapes = amplitudes[:, None] * np.exp(
        -0.5 * ((grid - centers[:, None]) / widths[:, None]) ** 2
    )
    spectrum = shapes.sum(axis=0)
    return spectrum / np.max(spectrum)


def generate_pure_spectra(n_channels: int, n_endmembers: int, seed: int) -> EndmemberMatrix:
    """Draw K unit-maximum peak spectra with pairwise angles >= 10 degrees."""
    rng = np.random.default_rng(seed)
    accepted: list[FloatArray] = []
    for _ in range(n_endmembers):
        for _attempt in range(MAX_ENDMEMBER_ATTEMPTS):
            candidate = _draw_peak_spectrum(n_channels, rng)
            if all(sad(candidate, prev) >= MIN_PAIRWISE_SAD_DEG for prev in accepted):
                accepted.append(candidate)
                break
        else:
            raise ValueError(
                f"could not draw {n_endmembers} spectra with pairwise angle "
                f">= {MIN_PAIRWISE_SAD_DEG} degrees in {MAX_ENDMEMBER_ATTEMPTS} attempts"
            )
    return EndmemberMatrix(np.column_stack(accepted))


def _draw_concentrations(
    config: SynthConfig, rng: np.random.Generator
) -> ConcentrationMatrix:
    k = config.n_endmembers
    alpha = (
        np.asarray(config.alpha, dtype=np.float64)
        if isinstance(config.alpha, tuple)
        else np.full(k, float(config.alpha))
    )
    if config.purity_cap is None:
        return ConcentrationMatrix(rng.dirichlet(alpha, size=config.n_spectra))

    rows = np.empty((config.n_spectra, k))
    filled = 0
    draws = 0
    while filled < config.n_spectra:
        batch = min(config.n_spectra - filled, MAX_CONCENTRATION_DRAWS - draws)
        if batch <= 0:
            raise ValueError(
                f"purity cap {config.purity_cap} rejected too many draws "
                f"(limit {MAX_CONCENTRATION_DRAWS})"
            )
        candidates = rng.dirichlet(alpha, size=batch)
        draws += batch
        keep = candidates[np.max(candidates, axis=1) <= config.purity_cap]
        take = min(keep.shape[0], config.n_spectra - filled)
        rows[filled : filled + take] = keep[:take]
        filled += take
    return ConcentrationMatrix(rows)


def generate_dataset(config: SynthConfig) -> DatasetBundle:
    """Generate a full synthetic bundle: spectra, ground truth, noise level."""
    endmembers = generate_pure_spectra(config.n_channels, config.n_endmembers, config.seed)
    rng = np.random.default_rng(config.seed + 1)
    concentrations = _draw_concentrations(config, rng)
    clean = concentrations.values @ endmembers.values.T

    if np.isinf(config.snr_db):
        sigma_e2 = 0.0
        noisy = clean
    else:
        signal_power = float(np.sum(clean**2))
        sigma_e2 = signal_power / (clean.size * 10.0 ** (config.snr_db / 10.0))
        noisy = clean + rng.normal(scale=np.sqrt(sigma_e2), size=clean.shape)

    return DatasetBundle(
        spectra=SpectraMatrix(noisy),
        concentrations=concentrations,
        endmembers=endmembers,
        noise_variance_true=sigma_e2,
        seed=config.seed,
    )


def savitzky_golay(y: FloatArray) -> FloatArray:
    """Cubic least-squares smooth over 5-sample windows along the last axis.

    Interior samples take the weights (-3, 12, 17, 12, -3)/35.  The two
    samples at each end are the cubic fit to the end window evaluated
    there: (69, 4, -6, 4, -1)/70 for the first, (2, 27, 12, -8, 2)/35 for
    the second, mirrored at the far end.  This equals
    ``scipy.signal.savgol_filter(y, 5, 3, mode="interp")`` to rounding.
    Every sample is an elementwise sum over its window, so a row smoothed
    alone equals the same row smoothed in a batch bit for bit.  Raises
    ValueError when the last axis holds fewer than 5 samples.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 0 or y.shape[-1] < 5:
        raise ValueError(
            f"need at least 5 samples along the last axis, got shape {y.shape}"
        )
    n = y.shape[-1]
    a0, a1, a2, a3, a4 = (y[..., i : n - 4 + i] for i in range(5))
    out = np.empty_like(y)
    out[..., 2:-2] = (17.0 * a2 + 12.0 * (a1 + a3) - 3.0 * (a0 + a4)) / 35.0
    for end, step in ((0, 1), (-1, -1)):
        e0, e1, e2, e3, e4 = (y[..., end + step * i] for i in range(5))
        out[..., end] = (69.0 * e0 + 4.0 * (e1 + e3) - 6.0 * e2 - e4) / 70.0
        out[..., end + step] = (2.0 * (e0 + e4) + 27.0 * e1 + 12.0 * e2 - 8.0 * e3) / 35.0
    return out


def estimate_noise_variance(spectra: SpectraMatrix | FloatArray) -> float:
    """Noise variance from smoothing residuals, robust to sparse peaks.

    Each spectrum's residual against its :func:`savitzky_golay` smooth is
    split into floor(L / SEGMENT_LEN) segments; the statistic is the mean
    over spectra of the median per-segment sample variance, which
    suppresses segments sitting on sharp signal features.
    """
    if not isinstance(spectra, SpectraMatrix):
        spectra = np.atleast_2d(spectra)
    rows = SpectraMatrix(spectra).values
    n_channels = rows.shape[1]
    n_segments = n_channels // SEGMENT_LEN
    if n_segments < 1:
        raise ValueError(
            f"need at least {SEGMENT_LEN} channels for one segment, got {n_channels}"
        )
    residual = rows - savitzky_golay(rows)
    segments = residual[:, : n_segments * SEGMENT_LEN].reshape(
        rows.shape[0], n_segments, SEGMENT_LEN
    )
    seg_var = np.var(segments, axis=2, ddof=1)
    return float(np.mean(np.median(seg_var, axis=1)))
