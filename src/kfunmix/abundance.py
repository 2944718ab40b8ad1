"""Fully constrained abundance estimation.

Solves ``argmin_c ||y - S c||^2  subject to  c >= 0, sum(c) = 1`` exactly by
enumerating supports.  The minimiser lies on some nonempty support A, where
it is the equality-constrained least-squares solution of the columns in A.
Every one of the 2^K - 1 supports is solved in closed form for all spectra
at once, and each spectrum keeps its lowest-objective nonnegative candidate
(Heinz & Chang 2001 solve the same problem by an active-set search).  The
result is projected onto the simplex at exit so closure holds to rounding.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import EndmemberMatrix, FloatArray
from .kalman import NumericalError

# Ridge added to S^T S so near-duplicate endmember columns stay solvable.
RIDGE = 1e-10
COND_WARN = 1e8
# 2^12 - 1 = 4095 supports; the enumeration grows as 2^K.
MAX_ENDMEMBERS = 12
# Rows per chunk keep the (supports, K, rows) candidate array near this size.
CHUNK_BYTES = 8 * 2**20
# A candidate entry above -FEASIBLE_TOL counts as nonnegative.
FEASIBLE_TOL = 1e-12


@dataclass(frozen=True)
class FclsConfig:
    """Settings of the simplex-constrained solver; the exact solver has none."""


def project_simplex(v: FloatArray) -> FloatArray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    k = int(np.nonzero(cond)[0][-1])
    tau = css[k] / float(k + 1)
    return np.maximum(v - tau, 0.0)


def _project_simplex_rows(rows: FloatArray) -> FloatArray:
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, rows.shape[1] + 1)[None, :]
    cond = u - css / ind > 0
    k = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(rows.shape[0]), k] / (k + 1.0)
    return np.maximum(rows - tau[:, None], 0.0)


@functools.lru_cache(maxsize=MAX_ENDMEMBERS)
def _support_masks(k: int) -> tuple[FloatArray, FloatArray]:
    """Block masks of the 2^K - 1 nonempty supports and the identity off each block."""
    masks = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1  # (supports, K)
    block = (masks[:, :, None] * masks[:, None, :]).astype(np.float64)
    pad = np.eye(k) * (1 - masks)[:, None, :]
    block.flags.writeable = False
    pad.flags.writeable = False
    return block, pad


def estimate_concentrations(
    spectra_rows: FloatArray,
    endmembers: EndmemberMatrix | FloatArray,
    config: FclsConfig = FclsConfig(),
) -> FloatArray:
    """Solve the simplex-constrained least-squares problem for many spectra.

    With G = S^T S + ridge I and b = S^T y, the minimiser on support A is
    ``c = H_A b - nu h_A`` with H_A the inverse of G on A (zero elsewhere),
    h_A = H_A 1 and nu = (h_A^T b - 1) / (1^T h_A).  Its objective
    ``0.5 c^T G c - b^T c`` equals ``-0.5 (b^T c + nu)``.  Each row takes the
    lowest-objective candidate that is nonnegative; the singletons always
    are, so one exists.

    Parameters
    ----------
    spectra_rows : (n, L) array
        One spectrum per row; all share the endmember matrix.  Every entry
        must be finite.
    endmembers : (L, K) matrix
        Candidate pure spectra as columns, K <= MAX_ENDMEMBERS; must have
        full column rank (a 1e-10 ridge keeps near-rank-deficient systems
        solvable, with a warning once the condition number of S passes 1e8).
    config : FclsConfig
        Solver settings; the exact solver has none.

    Returns
    -------
    (n, K) array
        One abundance row per spectrum, each on the simplex.

    Raises
    ------
    NumericalError
        If a spectrum holds a NaN or an infinity.
    """
    s = endmembers.values if isinstance(endmembers, EndmemberMatrix) else np.asarray(endmembers)
    rows = np.atleast_2d(np.asarray(spectra_rows, dtype=np.float64))
    n, n_channels = rows.shape
    if s.shape[0] != n_channels:
        raise ValueError(
            f"endmember channel count {s.shape[0]} does not match spectra ({n_channels})"
        )
    k = s.shape[1]
    if k > MAX_ENDMEMBERS:
        raise ValueError(f"at most {MAX_ENDMEMBERS} endmembers are supported, got {k}")
    finite = np.all(np.isfinite(rows), axis=1)
    if not np.all(finite):
        raise NumericalError(f"spectrum {int(np.argmin(finite))} is not finite")
    if k == 1:
        return np.ones((n, 1))

    cond_s = np.linalg.cond(s)
    if cond_s > COND_WARN:
        warnings.warn(
            f"endmember matrix is ill-conditioned (cond={cond_s:.3g}); "
            "abundances may be unstable",
            stacklevel=2,
        )

    block, pad = _support_masks(k)
    # G on each support's block and the identity off it: one batched inverse
    # gives every H_A, zero outside its block.
    inv = np.linalg.inv((s.T @ s + RIDGE * np.eye(k)) * block + pad) * block
    h = inv.sum(axis=2)  # (supports, K)
    h_sum = h.sum(axis=1)[:, None]
    sty = s.T @ rows.T  # (K, n)
    out = np.empty((n, k))
    chunk = max(1, CHUNK_BYTES // (8 * k * inv.shape[0]))
    for lo in range(0, n, chunk):
        b = sty[:, lo : lo + chunk]
        nu = (h @ b - 1.0) / h_sum  # (supports, rows)
        cand = inv @ b - h[:, :, None] * nu[:, None, :]  # (supports, K, rows)
        objective = -0.5 * (np.sum(b * cand, axis=1) + nu)
        objective[np.min(cand, axis=1) < -FEASIBLE_TOL] = np.inf
        best = np.argmin(objective, axis=0)
        out[lo : lo + chunk] = cand[best, :, np.arange(b.shape[1])]
    return _project_simplex_rows(out)


def estimate_concentration(
    spectrum: FloatArray,
    endmembers: EndmemberMatrix | FloatArray,
    config: FclsConfig = FclsConfig(),
) -> FloatArray:
    """Abundance vector of a single spectrum, on the simplex."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1:
        raise ValueError("spectrum must be a vector")
    return estimate_concentrations(spectrum[None, :], endmembers, config)[0]
