"""Batch alternating least squares baseline with hard constraints.

Alternates a simplex-constrained abundance step (shared with the
streaming solver) and a channel-wise nonnegative least-squares endmember
step until the relative residual change stalls.  Both steps are exact,
but the abundance step carries the shared RIDGE and a rank-deficient design
gets one too, so a trial update can still raise the Frobenius residual by
rounding; such an update is discarded and the alternation stops at the
last improving iterate.  The recorded residual sequence is nonincreasing
by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .abundance import FclsConfig, estimate_concentrations
from .datamodel import (
    COND_LIMIT,
    RIDGE,
    ConcentrationMatrix,
    EndmemberMatrix,
    FloatArray,
    SpectraMatrix,
)
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


def _endmember_step(rows: FloatArray, concentrations: FloatArray) -> FloatArray:
    """Per-channel NNLS: each channel's endmember values fit that channel's data."""
    # Imported here: scipy.optimize is ~20 MB that only this baseline uses.
    from scipy.optimize import nnls

    design = concentrations
    if np.linalg.cond(design) > COND_LIMIT:
        warnings.warn(
            "concentration matrix is rank deficient; adding ridge to the design",
            stacklevel=3,
        )
        k = design.shape[1]
        design = np.vstack([design, np.sqrt(RIDGE) * np.eye(k)])
        rows = np.vstack([rows, np.zeros((k, rows.shape[1]))])
    n_channels = rows.shape[1]
    k = design.shape[1]
    out = np.empty((n_channels, k))
    for channel in range(n_channels):
        out[channel], _ = nnls(design, rows[:, channel])
    return out


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
        trial_s = _endmember_step(rows, trial_conc)
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
