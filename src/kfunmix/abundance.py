"""Constrained least squares by support enumeration: FCLS and NNLS.

One engine serves two problems.  FCLS (fully constrained) solves
``argmin_c ||y - S c||^2  subject to  c >= 0, sum(c) = 1``; NNLS solves
``argmin_x ||y - C x||^2  subject to  x >= 0``.  The minimiser lies on some
support A, where it is the (equality-constrained) least-squares solution
of the columns in A.  Every support is solved in closed form for all
right-hand sides at once, and each keeps its lowest-objective nonnegative
candidate (Heinz & Chang 2001 and Lawson & Hanson 1974 solve the same
problems by an active-set search).

With G = S^T S and b = S^T y, the FCLS candidate on a nonempty A and its
sum-to-one multiplier nu solve the bordered KKT system

    [[G_A + RIDGE I, 1_A], [1_A^T, 0]] [c_A; nu] = [b_A; 1],

and the NNLS candidate (G = C^T C, b = C^T y) solves the unbordered
G_A x_A = b_A.  Each layout matrix holds the identity off its support, and
no other row or column couples to those rows.  The NNLS layout is the
FCLS one without its border row and column, the empty support included:
its matrix is the identity and its candidate x = 0.  RIDGE is not part of
the layout.  FCLS adds it to the diagonal of G after its eigenvalue screen;
NNLS adds it only to the Gram of a design with cond(C) > COND_LIMIT, with a
"rank deficient" warning.  How the m x m systems (m = K + 1 or K) are
applied depends on the column count n of the right-hand side alone:

- n <= m // 2, a single spectrum among them for FCLS: one batched LU solve
  of all the systems against the right-hand side masked to each support.
  Partial pivoting never takes an off-support row as the pivot of another
  column, and its multipliers and right-hand-side entries stay exactly 0,
  so the candidate is exactly 0 off A, not merely small.
- larger n: the systems are inverted in one batched call and masked back
  to their supports, so each inverse maps the right-hand side straight to
  the candidate with exact zeros off A.  Stacked as one (supports m, m)
  matrix, they give every candidate of every column from one product per
  chunk of columns with the (m, n) right-hand side, [S^T Y^T; 1^T] for FCLS
  and C^T Y for NNLS.

In flops the solve is always cheaper: an inversion costs about three LU
factorisations, and the triangular solves cost what the product does.  But
the product is one large BLAS call, while the triangular solves run per
small matrix, so the solve loses once n grows.  Timed at L = 400 with one
BLAS thread, the crossover fell between n = K / 2 and n = K + 1 at K = 3,
5, 8 and 12, so the rule keeps to its low end.

Each candidate is scored by its solution times the right-hand side.  An
FCLS candidate's objective ``0.5 c^T (G + RIDGE I) c - b^T c`` equals
``-0.5 (b^T c + nu)``, and an NNLS candidate's ``0.5 x^T G x - b^T x``
equals ``-0.5 b^T x``, so each column keeps the nonnegative candidate
(entries above -FEASIBLE_TOL) with the largest score, the first in support
order on a tie.  One always exists: the FCLS singletons are nonnegative,
and the NNLS empty support, first in order, gives x = 0 with score 0, so a
column that no other candidate betters (b <= 0 among them) gets exact
zeros.  The chosen rows are clamped at 0; an FCLS row sums to 1 up to
rounding and lies within FEASIBLE_TOL of the simplex, so it is also divided
by its sum, which moves it by O(K 1e-12) at most.  The score is first order
in a candidate's rounding error, so two supports whose objectives differ by
less than about eps cond(G) |b| |x| can be ranked the wrong way round.

FCLS's ill-conditioning warning is screened on the eigenvalues of the K x K
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

FCLS's G also guards the endmembers: a NaN or an infinity in column j of S
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

from .datamodel import COND_LIMIT, COND_WARN, RIDGE, EndmemberMatrix, FloatArray, NumericalError
from .datamodel import SpectraMatrix

# lambda_min(G) / lambda_max(G) above this puts cond(S) below 1e6 < COND_WARN.
SCREEN_RATIO = 1e-12
# 2^12 = 4096 supports; the enumeration grows as 2^K.
MAX_ENDMEMBERS = 12
# Columns per chunk keep the (supports m, columns) solution array near this size.
# The chunk width also decides how BLAS rounds the product (a narrower chunk
# changed bits at K >= 7 in a probe), so the chosen rows depend on it.
CHUNK_BYTES = 8 * 2**20
# A candidate entry above -FEASIBLE_TOL counts as nonnegative.
FEASIBLE_TOL = 1e-12


@dataclass(frozen=True)
class FclsConfig:
    """Field-less, and read by nothing in kfunmix; only the benchmark harness
    passes it (``McrConfig(fcls=config.fcls)``).  ROADMAP item 4 deletes it."""


_Layout = tuple[FloatArray, FloatArray, FloatArray]


@functools.lru_cache(maxsize=MAX_ENDMEMBERS)
def _bordered_layout(k: int) -> tuple[_Layout, _Layout]:
    """The FCLS and the NNLS layout of K columns, each ``(block, offset, mask)``.

    Support a is the binary digits of a, so support 0 is the empty one.
    ``block[a]`` is 1 on support a's rows and columns and on the border row
    and column, 0 elsewhere.  ``offset[a]`` holds the identity off the
    support and the border's ones.  With G_pad the Gram, RIDGE on its
    diagonal and a zero row and column appended, ``G_pad * block + offset``
    is support a's bordered matrix, invertible whatever G is off the
    support, and ``mask[a]`` (the border column) marks its rows.  FCLS
    skips the empty support, whose border row is 0.  NNLS drops the border:
    ``G * block[:, :k, :k] + offset[:, :k, :k]`` is G_A on A and the
    identity off it, the identity itself on the empty support, whose
    candidate is 0.  Both are views made once per K.
    """
    supports = (np.arange(2**k)[:, None] >> np.arange(k)) & 1  # (supports, K)
    bordered = np.hstack([supports, np.ones((supports.shape[0], 1), dtype=supports.dtype)])
    block = (bordered[:, :, None] * bordered[:, None, :]).astype(np.float64)
    offset = np.zeros_like(block)
    diag = np.arange(k)
    offset[:, diag, diag] = 1 - supports
    offset[:, k, :k] = supports
    offset[:, :k, k] = supports
    block.flags.writeable = False
    offset.flags.writeable = False
    mask = block[:, :, k:]
    fcls = (block[1:], offset[1:], mask[1:])
    nnls = (block[:, :k, :k], offset[:, :k, :k], mask[:, :k])
    return fcls, nnls


def _lapack(solver, *args) -> FloatArray:
    """``solver(*args)`` on the support systems, a singular one raising NumericalError."""
    try:
        return solver(*args)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            "Gram is singular on some support; the fitted columns are linearly dependent"
        ) from err


def _best_candidates(sol: FloatArray, rhs: FloatArray, k: int) -> FloatArray:
    """Each column's nonnegative candidate with the largest score.

    ``sol`` is (supports, m, n) with each support's solution per column,
    its first k entries the candidate; ``rhs`` is the (m, n) right-hand
    side, so the score ``sol^T rhs`` is b^T c + nu for FCLS and b^T c for
    NNLS.  Returns the (n, k) rows.
    """
    score = np.einsum("skn,kn->sn", sol, rhs)
    score[sol[:, :k].min(axis=1) < -FEASIBLE_TOL] = -np.inf
    return sol[score.argmax(axis=0), :k, np.arange(rhs.shape[1])]


def _solve_supports(gram: FloatArray, rhs: FloatArray, layout: _Layout, k: int) -> FloatArray:
    """Every column's best candidate over the supports of a layout, (n, k).

    ``gram * block + offset`` stacks each support's (m, m) system; ``rhs``
    holds one (m,) right-hand side per column.  At most m // 2 columns are
    solved against ``rhs`` masked to each support in one batched LU solve;
    more are mapped by the stacked masked inverses, one product per chunk.
    """
    block, offset, mask = layout
    n = rhs.shape[1]
    systems = gram * block + offset
    if n <= rhs.shape[0] // 2:
        # rhs masked to each support: the identity rows off A, which no
        # other row couples to, give exact zeros there.
        return _best_candidates(_lapack(np.linalg.solve, systems, rhs * mask), rhs, k)
    inv = _lapack(np.linalg.inv, systems) * block
    stacked = inv.reshape(-1, rhs.shape[0])  # (supports m, m)
    out = np.empty((n, k))
    chunk = min(n, max(1, CHUNK_BYTES // (8 * stacked.shape[0])))
    buffer = np.empty(stacked.shape[0] * chunk)  # every chunk's solutions
    for lo in range(0, n, chunk):
        b = rhs[:, lo : lo + chunk]
        sol = buffer[: stacked.shape[0] * b.shape[1]].reshape(stacked.shape[0], -1)
        np.matmul(stacked, b, out=sol)
        out[lo : lo + chunk] = _best_candidates(sol.reshape(inv.shape[0], rhs.shape[0], -1), b, k)
    return out


def estimate_concentrations(
    spectra_rows: SpectraMatrix | FloatArray, endmembers: EndmemberMatrix | FloatArray
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
    spectra_rows : (n, L) array or SpectraMatrix
        One spectrum per row; all share the endmember matrix.  Every entry
        must be finite.  A plain array is scanned for that; a SpectraMatrix
        was checked where it was made and is not scanned again.
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
    checked = isinstance(spectra_rows, SpectraMatrix)
    if checked:
        rows = spectra_rows.values
    else:
        rows = np.atleast_2d(np.asarray(spectra_rows, dtype=np.float64))
    n, n_channels = rows.shape
    if s.shape[0] != n_channels:
        raise ValueError(
            f"endmember channel count {s.shape[0]} does not match spectra ({n_channels})"
        )
    k = s.shape[1]
    if k > MAX_ENDMEMBERS:
        raise ValueError(f"at most {MAX_ENDMEMBERS} endmembers are supported, got {k}")
    if not (checked or np.isfinite(rows).all()):
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

    diagonal = padded.reshape(-1)[: k * (k + 2) : k + 2]  # a view of G's diagonal
    diagonal += RIDGE

    rhs = np.empty((k + 1, n))
    np.matmul(s.T, rows.T, out=rhs[:k])
    rhs[k] = 1.0
    out = _solve_supports(padded, rhs, _bordered_layout(k)[0], k)
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


def nonneg_least_squares(design: FloatArray, targets: FloatArray) -> FloatArray:
    """Solve ``argmin_x ||C x - y||^2  subject to  x >= 0`` for every target column.

    The FCLS enumeration without the sum-to-one row (module docstring):
    each column keeps the nonnegative candidate of largest b^T x, and gets
    exact zeros when no candidate betters the empty support's x = 0.  RIDGE I
    is added to G = C^T C, with a warning, only when cond(C) > COND_LIMIT.

    Parameters
    ----------
    design : (n, K) array
        The shared design matrix C, K <= MAX_ENDMEMBERS.
    targets : (n, L) array
        One right-hand side y per column.

    Returns
    -------
    (L, K) float64 array
        Row l is the nonnegative solution for column l of ``targets``.
    """
    c = np.asarray(design, dtype=np.float64)
    k = c.shape[1]
    if k > MAX_ENDMEMBERS:
        raise ValueError(f"at most {MAX_ENDMEMBERS} design columns are supported, got {k}")
    gram = c.T @ c
    if np.linalg.cond(c) > COND_LIMIT:
        warnings.warn(
            "design matrix is rank deficient; adding ridge to its Gram", stacklevel=2
        )
        gram.flat[:: k + 1] += RIDGE
    rhs = c.T @ np.asarray(targets, dtype=np.float64)
    out = _solve_supports(gram, rhs, _bordered_layout(k)[1], k)
    np.maximum(out, 0.0, out=out)
    return out
