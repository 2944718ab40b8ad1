"""Dimensionality reduction onto a truncated real Fourier subspace.

A spectrum y of length L is mapped to the real vector
``[Re(F^T y); Im(F^T y)]`` of length 2M, where F holds the first M columns
of the unitary DFT matrix (scaling 1/sqrt(L)).  Harmonics other than DC
(and Nyquist, when L is even and retained) are weighted by sqrt(2) so that
the squared norm of the reduced vector equals the energy of the one-sided
spectrum.  At M = floor(L/2) + 1 the map preserves the full energy of y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import FloatArray, SpectraMatrix


def max_harmonics(n_channels: int) -> int:
    """Number of non-redundant harmonics of a real signal of length L."""
    return n_channels // 2 + 1


def _harmonic_weights(n_channels: int, n_harmonics: int) -> FloatArray:
    """Energy weight of each of the first M harmonics: 1 for DC and a retained
    Nyquist harmonic (self-conjugate), 2 for the others (paired with their conjugate)."""
    weights = np.full(n_harmonics, 2.0)
    weights[0] = 1.0
    if n_channels % 2 == 0 and n_harmonics - 1 == n_channels // 2:
        weights[-1] = 1.0
    return weights


@dataclass(frozen=True)
class FourierBasis:
    """Truncated real DFT operator for spectra of a fixed channel count.

    ``operator`` is the (2M, L) matrix whose first M rows are the weighted
    cosine rows and last M rows the weighted negative-sine rows, each
    including the unitary 1/sqrt(L) factor and the harmonic weight (1 for
    DC and Nyquist, sqrt(2) otherwise).
    """

    n_channels: int
    n_harmonics: int
    operator: FloatArray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_channels < 2:
            raise ValueError("n_channels must be >= 2")
        if not 1 <= self.n_harmonics <= max_harmonics(self.n_channels):
            raise ValueError(
                f"n_harmonics must be in [1, {max_harmonics(self.n_channels)}], "
                f"got {self.n_harmonics}"
            )
        if self.operator.shape != (2 * self.n_harmonics, self.n_channels):
            raise ValueError("operator shape does not match (2M, L)")
        if np.any(self.operator[self.n_harmonics] != 0.0):
            raise ValueError("imaginary row of the DC harmonic must be zero")


def build_basis(n_channels: int, n_harmonics: int) -> FourierBasis:
    """Construct the truncated unitary DFT basis with sqrt(2) harmonic weights."""
    if not 1 <= n_harmonics <= max_harmonics(n_channels):
        raise ValueError(
            f"n_harmonics must be in [1, {max_harmonics(n_channels)}] for "
            f"L={n_channels}, got {n_harmonics}"
        )
    k = np.arange(n_harmonics)[:, None]
    n = np.arange(n_channels)[None, :]
    angles = 2.0 * np.pi * k * n / n_channels
    operator = np.vstack([np.cos(angles), -np.sin(angles)]) / np.sqrt(float(n_channels))
    operator[n_harmonics] = 0.0  # exact zero rather than -sin(0) signed zeros
    operator *= np.tile(np.sqrt(_harmonic_weights(n_channels, n_harmonics)), 2)[:, None]
    return FourierBasis(n_channels, n_harmonics, operator)


def reduce_spectrum(y: FloatArray, basis: FourierBasis) -> FloatArray:
    """Map one spectrum (length L) to its 2M-dimensional representation."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (basis.n_channels,):
        raise ValueError(f"expected spectrum of length {basis.n_channels}, got {y.shape}")
    return basis.operator @ y


def reduce_columns(columns: FloatArray, basis: FourierBasis) -> FloatArray:
    """Reduce each column of an (L, Q) matrix, giving a (2M, Q) matrix."""
    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim != 2 or columns.shape[0] != basis.n_channels:
        raise ValueError(
            f"expected (L, Q) columns with L={basis.n_channels}, got {columns.shape}"
        )
    return basis.operator @ columns


def select_num_harmonics(spectra: SpectraMatrix | FloatArray, eta: float) -> int:
    """Smallest M whose retained energy reaches eta percent of the total.

    The retained energy of a spectrum at truncation M is the squared norm of
    its reduced representation; totals are summed over all given spectra.
    eta = 100 always selects M = floor(L/2) + 1 when every harmonic carries
    energy, since full retention is reached only there.
    """
    if not 0.0 < eta <= 100.0:
        raise ValueError(f"eta must be in (0, 100], got {eta}")
    rows = SpectraMatrix(spectra).values
    n_channels = rows.shape[1]
    m_full = max_harmonics(n_channels)

    coeff = np.fft.rfft(rows, axis=1) / np.sqrt(n_channels)
    energy_per_harmonic = _harmonic_weights(n_channels, m_full) * np.sum(np.abs(coeff) ** 2, axis=0)
    retained = np.cumsum(energy_per_harmonic)

    total = float(np.sum(rows**2))
    threshold = (eta / 100.0) * total
    met = np.nonzero(retained >= threshold)[0]
    if met.size == 0:
        # Parseval guarantees full retention at m_full up to rounding.
        return m_full
    return int(met[0]) + 1
