"""Fully constrained abundance estimation.

Solves ``argmin_c ||y - S c||^2  subject to  c >= 0, sum(c) = 1`` exactly by
enumerating supports.  The minimiser lies on some nonempty support A, where
it is the equality-constrained least-squares solution of the columns in A.
Every one of the 2^K - 1 supports is solved in closed form for all spectra
at once, and each spectrum keeps its lowest-objective nonnegative candidate
(Heinz & Chang 2001 solve the same problem by an active-set search).

With G = S^T S and b = S^T y, the candidate on A and its sum-to-one
multiplier nu solve the bordered KKT system

    [[G_A + RIDGE I, 1_A], [1_A^T, 0]] [c_A; nu] = [b_A; 1].

Each of the 2^K - 1 bordered matrices holds the identity off its support,
and no other row or column couples to those rows.  How they are applied
depends on the row count n alone:

- n <= (K + 1) // 2, a single spectrum among them: one batched LU solve of
  all the systems against [b; 1] masked to each support.  Partial pivoting
  never takes an off-support row as the pivot of another column, and its
  multipliers and right-hand-side entries stay exactly 0, so the candidate
  is exactly 0 off A, not merely small.
- larger n: the bordered matrices are inverted in one batched call and
  masked back to their supports, so each inverse maps [b; 1] straight to
  [c_A; nu] with exact zeros off A.  Stacked as one (supports (K+1), K+1)
  matrix, they give every candidate and multiplier of every spectrum from
  one product with the (K+1, n) right-hand side [S^T Y^T; 1^T].

In flops the solve is always cheaper: an inversion costs about three LU
factorisations, and the triangular solves cost what the product does.  But
the product is one large BLAS call, while the triangular solves run per
small matrix, so the solve loses once n grows.  Timed at L = 400 with one
BLAS thread, the crossover fell between n = K / 2 and n = K + 1 at K = 3,
5, 8 and 12, so the rule keeps to its low end.  A candidate's objective
``0.5 c^T (G + RIDGE I) c - b^T c`` equals ``-0.5 (b^T c + nu)``, so each
spectrum keeps the nonnegative candidate with the largest b^T c + nu, the
first in support order on a tie.  The singletons are always nonnegative, so
one exists.  The chosen row sums to 1 up to rounding and lies within
FEASIBLE_TOL of the simplex, so the exit clamps it at 0 and divides it by
its sum, which moves it by O(K 1e-12) at most.

The ill-conditioning warning is screened on the eigenvalues of the K x K
Gram G = S^T S that the solve forms anyway.  cond(S)^2 = cond(G), so
lambda_min(G) > SCREEN_RATIO lambda_max(G) puts cond(S) below 1e6, two
orders of magnitude under COND_WARN.  Flipping that takes errors in G near
1e-12 lambda_max(G), about 4500 ulps of it, far beyond the rounding of a
Gram product, so no warning is possible.  Only when the screen fails does
the SVD of the L x K matrix S run, and it decides the warning exactly as it
always has.  The same eigenvalues decide singularity: when lambda_min(G) +
RIDGE <= K eps lambda_max(G), the ridged Gram is singular to working
precision (two identical columns whose squared norms dwarf the ridge), and
the solve raises NumericalError rather than return whatever the rounding of
an LU factorisation makes of it.

G also guards the endmembers: a NaN or an infinity in column j of S
reaches G_jj, so S is rejected on the K diagonal entries of G, with no scan
of the L x K matrix.  A diagonal that overflows from finite entries of
magnitude near 1e154 is rejected too, since no solve could use it.  Once
the diagonal is finite, so is every entry of G, as |G_ij| <= sqrt(G_ii G_jj).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import COND_WARN, RIDGE, EndmemberMatrix, FloatArray
from .kalman import NumericalError

# lambda_min(G) / lambda_max(G) above this puts cond(S) below 1e6 < COND_WARN.
SCREEN_RATIO = 1e-12
# 2^12 - 1 = 4095 supports; the enumeration grows as 2^K.
MAX_ENDMEMBERS = 12
# Rows per chunk keep the (supports (K+1), rows) solution array near this size.
# The chunk width also decides how BLAS rounds the product (a narrower chunk
# changed bits at K >= 7 in a probe), so the chosen rows depend on it.
CHUNK_BYTES = 8 * 2**20
# A candidate entry above -FEASIBLE_TOL counts as nonnegative.
FEASIBLE_TOL = 1e-12


@dataclass(frozen=True)
class FclsConfig:
    """Field-less, and read by nothing in kfunmix; only the benchmark harness
    passes it (``McrConfig(fcls=config.fcls)``).  ROADMAP item 4 deletes it."""


@functools.lru_cache(maxsize=MAX_ENDMEMBERS)
def _bordered_layout(k: int) -> tuple[FloatArray, FloatArray]:
    """Masks of the 2^K - 1 bordered KKT matrices and the constant part of each.

    ``block[a]`` is 1 on support a's rows and columns and on the border row
    and column, 0 elsewhere.  ``offset[a]`` holds RIDGE on the support's
    diagonal, the identity off it and the border's ones.  With G_pad the
    Gram with a zero row and column appended, ``G_pad * block + offset`` is
    support a's bordered matrix, invertible whatever G is off the support.
    """
    supports = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1  # (supports, K)
    bordered = np.hstack([supports, np.ones((supports.shape[0], 1), dtype=supports.dtype)])
    block = (bordered[:, :, None] * bordered[:, None, :]).astype(np.float64)
    offset = np.zeros_like(block)
    diag = np.arange(k)
    offset[:, diag, diag] = np.where(supports == 1, RIDGE, 1.0)
    offset[:, k, :k] = supports
    offset[:, :k, k] = supports
    block.flags.writeable = False
    offset.flags.writeable = False
    return block, offset


def _lapack(solver, *args) -> FloatArray:
    """``solver(*args)`` on the bordered matrices, a singular one raising NumericalError."""
    try:
        return solver(*args)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            "endmember Gram is singular on some support; the endmember "
            "columns are linearly dependent"
        ) from err


def _best_candidates(sol: FloatArray, rhs: FloatArray) -> FloatArray:
    """Each column's nonnegative candidate with the largest b^T c + nu.

    ``sol`` is (supports, K+1, n) with [c_A; nu] per support and spectrum,
    ``rhs`` the (K+1, n) right-hand side [b; 1]; returns the (n, K) rows.
    """
    k = sol.shape[1] - 1
    score = np.einsum("skn,kn->sn", sol, rhs)  # b^T c + nu
    score[sol[:, :k].min(axis=1) < -FEASIBLE_TOL] = -np.inf
    return sol[score.argmax(axis=0), :k, np.arange(rhs.shape[1])]


def estimate_concentrations(
    spectra_rows: FloatArray, endmembers: EndmemberMatrix | FloatArray
) -> FloatArray:
    """Solve the simplex-constrained least-squares problem for many spectra.

    With G = S^T S + ridge I and b = S^T y, the minimiser on support A and
    its multiplier solve ``[[G_A, 1_A], [1_A^T, 0]] [c_A; nu] = [b_A; 1]``
    (G_A is G on A).
    A call of at most (K + 1) // 2 rows solves all 2^K - 1 such bordered
    systems, each with the identity off its support, in one batched LU
    solve against ``[b; 1]`` masked to the support; the identity rows keep
    the candidate exactly 0 off it.  A larger call stacks their inverses,
    zero off their supports, into one matrix and applies it to
    ``[S^T Y^T; 1^T]`` in a single product per chunk of rows.  The objective
    ``0.5 c^T G c - b^T c`` of a candidate equals ``-0.5 (b^T c + nu)``, so
    each row takes the nonnegative candidate (entries above -FEASIBLE_TOL)
    with the largest ``b^T c + nu``, the first support on a tie; the
    singletons always qualify.  The chosen rows are clamped at 0 and divided
    by their sums, which moves them by O(K 1e-12) at most, so every row is
    nonnegative and sums to 1 to rounding.

    Parameters
    ----------
    spectra_rows : (n, L) array
        One spectrum per row; all share the endmember matrix.  Every entry
        must be finite.
    endmembers : (L, K) matrix
        Candidate pure spectra as columns, K <= MAX_ENDMEMBERS; must have
        full column rank (the shared RIDGE keeps near-rank-deficient systems
        solvable, with a warning once the condition number of S passes
        COND_WARN; both live in :mod:`kfunmix.datamodel`).

    Returns
    -------
    (n, K) C-ordered float64 array
        One abundance row per spectrum, each on the simplex, with exact
        zeros off its support.

    Raises
    ------
    ValueError
        If the endmember array is not 2-D, or holds a NaN or an infinity.
    NumericalError
        If a spectrum holds a NaN or an infinity, or if the ridged Gram is
        singular to working precision, lambda_min(S^T S) + ridge <=
        K eps lambda_max(S^T S), as it is for two identical endmember
        columns whose squared norms dwarf the ridge.  A bordered system
        that LAPACK finds singular all the same, in the solve or the
        inverse, raises it too.
    """
    s = np.asarray(endmembers)
    if s.ndim != 2:
        raise ValueError(f"endmembers must be an (L, K) matrix, got shape {s.shape}")
    rows = np.atleast_2d(np.asarray(spectra_rows, dtype=np.float64))
    n, n_channels = rows.shape
    if s.shape[0] != n_channels:
        raise ValueError(
            f"endmember channel count {s.shape[0]} does not match spectra ({n_channels})"
        )
    k = s.shape[1]
    if k > MAX_ENDMEMBERS:
        raise ValueError(f"at most {MAX_ENDMEMBERS} endmembers are supported, got {k}")
    if not np.isfinite(rows).all():
        bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise NumericalError(f"spectrum {bad} is not finite")
    # G and b are written straight into the bordered matrix and the right-hand side.
    padded = np.zeros((k + 1, k + 1))
    gram = padded[:k, :k]
    np.matmul(s.T, s, out=gram)
    if not np.isfinite(gram.diagonal()).all():
        raise ValueError("endmember matrix holds a NaN or an infinity")

    eig = np.linalg.eigvalsh(gram)
    if eig[0] + RIDGE <= k * np.finfo(np.float64).eps * eig[-1]:
        raise NumericalError(
            "endmember Gram is singular to working precision; the endmember "
            "columns are linearly dependent"
        )
    if not eig[0] > SCREEN_RATIO * eig[-1]:
        cond_s = np.linalg.cond(s)
        if cond_s > COND_WARN:
            warnings.warn(
                f"endmember matrix is ill-conditioned (cond={cond_s:.3g}); "
                "abundances may be unstable",
                stacklevel=2,
            )

    block, offset = _bordered_layout(k)
    rhs = np.empty((k + 1, n))
    np.matmul(s.T, rows.T, out=rhs[:k])
    rhs[k] = 1.0
    if n <= (k + 1) // 2:
        # [b; 1] masked to each support: the identity rows off A, which no
        # other row couples to, give exact zeros there.
        sol = _lapack(np.linalg.solve, padded * block + offset, rhs * block[:, :, k:])
        out = _best_candidates(sol, rhs)
    else:
        inv = _lapack(np.linalg.inv, padded * block + offset) * block
        stacked = inv.reshape(-1, k + 1)  # (supports (K+1), K+1)
        out = np.empty((n, k))
        chunk = min(n, max(1, CHUNK_BYTES // (8 * stacked.shape[0])))
        buffer = np.empty(stacked.shape[0] * chunk)  # every chunk's [c_A; nu]
        for lo in range(0, n, chunk):
            b = rhs[:, lo : lo + chunk]
            sol = buffer[: stacked.shape[0] * b.shape[1]].reshape(stacked.shape[0], -1)
            np.matmul(stacked, b, out=sol)
            out[lo : lo + chunk] = _best_candidates(sol.reshape(inv.shape[0], k + 1, -1), b)
    np.maximum(out, 0.0, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def estimate_concentration(
    spectrum: FloatArray, endmembers: EndmemberMatrix | FloatArray
) -> FloatArray:
    """Abundance vector of a single spectrum, on the simplex."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1:
        raise ValueError("spectrum must be a vector")
    return estimate_concentrations(spectrum[None, :], endmembers)[0]
