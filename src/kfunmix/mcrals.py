"""Batch alternating least squares baseline with hard constraints.

Alternates a simplex-constrained abundance step and a nonnegative
least-squares endmember step until the relative residual change stalls.
Both steps are :mod:`kfunmix.abundance`'s support enumeration: the
endmember step fits all L channels at once, with G = C^T C shared and
C^T Y as the right-hand sides.  Both steps are exact, but the abundance
step carries the shared RIDGE and a rank-deficient design gets one too, so
a trial update can still raise the Frobenius residual by rounding; such an
update is discarded and the alternation stops at the last improving
iterate.  The recorded residual sequence is nonincreasing by construction.

From VCA, the stall rule does not fire within MAX_ITERS: on 300x120 K4,
400x200 K3 and 340x200 K3 at purity cap 0.8 (20 dB, seeds 0-2) the
relative change at iteration 60 read 4.4e-7 to 6.6e-6, and reaching
REL_TOL took 175 to 742 iterations.  Both constants are kept, so on such
data the baseline runs all MAX_ITERS alternations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abundance import FclsConfig, estimate_concentrations, nonneg_least_squares
from .datamodel import ConcentrationMatrix, EndmemberMatrix, FloatArray, SpectraMatrix
from .vca import vca

# Alternation budget, and the relative residual change that ends it early.
MAX_ITERS = 60
REL_TOL = 1e-8


@dataclass(frozen=True)
class McrConfig:
    """Initial endmembers.  Nothing in kfunmix reads ``fcls``; only the
    benchmark harness passes it.  ROADMAP item 4 deletes it."""

    init: EndmemberMatrix
    fcls: FclsConfig = FclsConfig()


@dataclass(frozen=True)
class McrResult:
    concentrations: ConcentrationMatrix
    endmembers: EndmemberMatrix
    residuals: tuple[float, ...]


def pca_nonneg_init(
    spectra: SpectraMatrix | FloatArray, n_endmembers: int, seed: int = 0
) -> EndmemberMatrix:
    """Clamped PCA loadings as an initial guess, VCA if clamping nulls a column."""
    rows = SpectraMatrix(spectra).values
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    loadings = vt[:n_endmembers].T.copy()  # (L, K)
    # Sign convention: make each loading mostly positive before clamping.
    signs = np.where(loadings.sum(axis=0) < 0.0, -1.0, 1.0)
    clamped = np.maximum(loadings * signs, 0.0)
    if np.any(np.max(clamped, axis=0) == 0.0):
        return vca(rows, n_endmembers, seed)
    return EndmemberMatrix(clamped)


def mcr_als(spectra: SpectraMatrix | FloatArray, config: McrConfig) -> McrResult:
    """Alternate constrained C and S steps on the full data block.

    Parameters
    ----------
    spectra : (n, L) rows
        All spectra acquired so far.
    config : McrConfig
        Initial endmembers.  The alternation runs at most MAX_ITERS times
        and stops once the relative residual change falls below REL_TOL.

    Returns
    -------
    McrResult
        Final abundances and endmembers plus the residual after each
        iteration (Frobenius norm of Y - C S^T, nonincreasing).
    """
    rows = SpectraMatrix(spectra).values
    if config.init.n_channels != rows.shape[1]:
        raise ValueError("init endmember channels do not match the data")

    s = config.init.values
    residuals: list[float] = []
    conc = None
    for _iteration in range(MAX_ITERS):
        trial_conc = estimate_concentrations(rows, s)
        trial_s = nonneg_least_squares(trial_conc, rows)
        # A component absent from every row has no data to fit; keep it.
        absent = ~np.any(trial_s, axis=0)
        trial_s[:, absent] = s[:, absent]
        trial_res = float(np.linalg.norm(rows - trial_conc @ trial_s.T))
        # Rounding can make a trial pair raise the residual; keep the last
        # improving iterate instead of recording it.
        if residuals and trial_res > residuals[-1] + 1e-12:
            break
        conc, s = trial_conc, trial_s
        residuals.append(trial_res)
        if len(residuals) > 1:
            prev = residuals[-2]
            change = abs(prev - residuals[-1]) / max(prev, np.finfo(float).tiny)
            if change < REL_TOL:
                break

    return McrResult(
        concentrations=ConcentrationMatrix(conc),
        endmembers=EndmemberMatrix(s),
        residuals=tuple(residuals),
    )
