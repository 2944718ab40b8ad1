"""Constraint restoration by regression onto acquired spectra.

The filtered endmember estimate S (L, K), in channels, is regressed within
the truncated Fourier subspace onto the first P acquired spectra, keeping
the reconstruction nonnegative:

    minimize   || F (Y R - S) ||_F^2   subject to   Y R >= 0

with Y the (L, P) regressor spectra and F the (2M, L) Fourier operator.
With Yr = F Y this is the paper's reduced-domain problem || Yr R - F S ||^2.
Scaled ADMM on the split Y R = U >= 0, with step ρ and dual λ, alternates
a least-squares step in R, the clamp U = max(v, 0) of v = Y R - λ/ρ, and a
dual ascent step that leaves λ' = ρ max(-v, 0).  So λ' + ρU = ρ|v| and the
next v is Y R' - max(-v, 0): the iteration carries one L x K iterate v as

    R = N^-1 2 Yr^T F S + ρ N^-1 Y^T |v|,    v = Y R + min(v, 0),

with N = 2 Yr^T Yr + ρ Y^T Y.  Both maps are fixed for the stream: they are
solved through one Cholesky factor at set-up, where F is applied once, and
each iteration is two matrix products.  The exit duals (U, λ) are (max(v, 0),
ρ max(-v, 0)).  From v = 0 (U = λ = 0), where |v| and min(v, 0) vanish, the
first iteration is R = C exactly, with C = N^-1 2 Yr^T F S the constant
term, and v = Y C: it is peeled off as that one product.

The iteration runs at the BLAS level.  Y is stored in Fortran order and
the lift in C order, once per stream, and v lives in a Fortran-ordered
(L, K) buffer next to one buffer for |v| and one of zeros.  After the peeled
start, each iteration is four calls: |v| into its buffer; R = lift |v| + C
by dgemm with β = 1, which writes into a copy of C, the only allocation;
min(v, 0) in place against the zero buffer, which spares NumPy the
conversion of a Python scalar on every call; and v = Y R + min(v, 0) by
dgemm with β = 1, written over v.  The lift product is taken in transposed
form: the C-ordered (P, L) lift is an F-ordered (L, P) view of its
transpose, handed to dgemm with trans_a, so each entry of R is one
contiguous length-L dot product.  OpenBLAS forms this short, wide product
2-2.5 times faster than from a Fortran-ordered lift.  Y R is taller than
it is deep and stays untransposed, where that form is the faster one.  C
is made Fortran-ordered once per solve, so dgemm copies it as it is
instead of transposing it on each call; BLAS adds βC to the finished
product once, so both sums round exactly as a separate product and
addition do, and the iterates are bit for bit those of the same products
formed on their own by the same BLAS.  The peeled start drops only a zero
product and a zero summand, so it changes no bit either.  The loop binds
dgemm, ``np.absolute`` and ``np.minimum`` to locals and hands dgemm its
arguments by position: SciPy's f2py wrapper parses each keyword argument
on every call, about 0.3 us apiece over 96 calls a solve.  ``np.minimum``
keeps ``out=``, since NumPy deprecates a third positional argument there.
The last iteration keeps Y R apart, since the estimate is max(Y R, 0):
``EndmemberMatrix.positive_part`` checks that estimate on the column
maxima of Y R alone, which read contiguous memory in Fortran order, and a
column the clamp zeroes raises NumericalError there.  The exit duals are
formed only when read (``RegressionResult.duals``).

NumPy's ``@`` runs on NumPy's own BLAS build, which may form a product in
another order (it takes gemv when K = 1, and its kernel
for the C-ordered lift sums in another order at L = 400), so a loop
written with ``@`` agrees bit for bit only where the two builds agree on
the product, and within rounding elsewhere.

The step ρ = RHO and the budget of ADMM_ITERS >= 2 iterations are
constants, not settings, read at each call.  The zero-frequency harmonic
has no sine row, so Yr has rank at most 2M - 1.  When that is below P, as
at the default eta on 200-channel data (M = 7-9 against P = 30), the
objective does not determine R, and the fixed iteration from zero is what
selects the estimate among the minimisers.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_factor, cho_solve

from .datamodel import COND_LIMIT, COND_WARN, EndmemberMatrix, FloatArray, SpectraMatrix
from .fourier import FourierBasis, reduce_columns
from .kalman import FilterState

ADMM_ITERS = 50
RHO = 1.0


@dataclass(frozen=True)
class RegressorSet:
    """The fixed regression system built from the first P spectra.

    Holds the regressors Y (L, P) and, with Yr = F Y their reduction and
    N = 2 Yr^T Yr + RHO Y^T Y, the two maps of the ADMM least-squares step:
    ``target_map = N^-1 2 Yr^T F`` and ``lift = RHO N^-1 Y^T``, both (P, L).
    Both depend only on the regressors and the basis, and are therefore
    computed once per stream.  :func:`build_regressor_set`
    stores ``full_space``, the left operand of Y R, in Fortran order and
    ``lift`` in C order, so that ``lift.T`` is the Fortran-ordered (L, P)
    operand of the transposed product lift |v| and BLAS reads both in
    place.  A set built by hand in another layout gives the same iterates,
    since BLAS copies an operand that is not Fortran-ordered at each product.
    """

    full_space: FloatArray
    target_map: FloatArray
    lift: FloatArray

    def __post_init__(self) -> None:
        p_by_l = self.full_space.shape[::-1]
        if len(p_by_l) != 2 or self.target_map.shape != p_by_l or self.lift.shape != p_by_l:
            raise ValueError(
                f"target map and lift must be (P, L) for (L, P) = {self.full_space.shape}"
            )


def build_regressor_set(
    spectra: SpectraMatrix | FloatArray, basis: FourierBasis
) -> RegressorSet:
    """Assemble the regression system from row spectra and solve its two linear maps."""
    rows = SpectraMatrix(spectra).values
    full = np.array(rows.T, order="F")  # (L, P)
    reduced = reduce_columns(full, basis)  # (2M, P)

    normal = 2.0 * (reduced.T @ reduced) + RHO * (full.T @ full)
    cond = float(np.linalg.cond(normal))
    if cond > COND_LIMIT:
        raise ValueError(
            f"regression system is singular (cond={cond:.3g}); "
            "increase the number of initialization spectra"
        )
    if cond > COND_WARN:
        warnings.warn(
            f"regression system is poorly conditioned (cond={cond:.3g})",
            stacklevel=2,
        )
    factor = cho_factor(normal, lower=True)
    lift = np.ascontiguousarray(cho_solve(factor, RHO * full.T))
    return RegressorSet(full, cho_solve(factor, 2.0 * reduced.T) @ basis.operator, lift)


@dataclass(frozen=True)
class RegressionResult:
    """Coefficients R, the clamped full-space estimate max(Y R, 0), and the
    two arrays the exit duals are formed from.

    ``fit`` is Y R and ``iterate`` the v that entered the last iteration, so
    the exit iterate is Y R + min(v, 0) and the duals (U, lambda) are its
    parts (max(., 0), RHO max(-., 0)).  A step reads only the estimate, so
    :attr:`duals` forms them on first read, by the operations that formed
    them at exit, and keeps them.
    """

    coefficients: FloatArray
    endmembers: EndmemberMatrix
    fit: FloatArray
    iterate: FloatArray

    @functools.cached_property
    def duals(self) -> tuple[FloatArray, FloatArray]:
        """The final (U, lambda)."""
        v = np.ascontiguousarray(self.fit) + np.minimum(self.iterate, 0.0)
        return np.maximum(v, 0.0), RHO * np.maximum(-v, 0.0)


def solve_regression(
    regressors: RegressorSet, target: FilterState | FloatArray
) -> RegressionResult:
    """Regress an estimate's retained harmonics onto the cone in ADMM_ITERS iterations.

    Parameters
    ----------
    regressors : RegressorSet
        System built by :func:`build_regressor_set`.
    target : (L, K) array, or a FilterState
        Endmember estimate in channels, one column per component; every
        entry must be finite.  A FilterState stands for its mean, whose
        entries it has checked.  Only the reduction F S enters the fit.

    Returns
    -------
    RegressionResult
        Coefficients R (P, K), the nonnegative full-space estimate
        max(0, Y R) as an EndmemberMatrix, and the final (U, lambda).

    Raises
    ------
    ValueError
        If the target is not an (L, K) matrix matching the regressors, or
        holds a NaN or an infinity.
    NumericalError
        If clamping zeroes out an entire column, leaving no usable
        endmember estimate for that component.
    """
    full = regressors.full_space
    checked = isinstance(target, FilterState)
    t = target.mean if checked else np.asarray(target, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != full.shape[0]:
        raise ValueError(
            f"target of shape {t.shape} does not have the L rows of the "
            f"(L, P) = {full.shape} regressors"
        )
    if not (checked or np.isfinite(t).all()):
        raise ValueError("target contains non-finite entries")

    const = np.asfortranarray(regressors.target_map @ t)  # (P, K)
    lift_t = regressors.lift.T  # (L, P), Fortran-ordered for a C-ordered lift
    zero = np.zeros((full.shape[0], t.shape[1]), order="F")
    dgemm, absolute, minimum = blas.dgemm, np.absolute, np.minimum
    # From v = 0 the first iteration gives coeff = const and v = full @ const.
    v = dgemm(1.0, full, const)
    a = np.empty_like(zero)
    # coeff = const + lift @ |v| and v = full @ coeff + min(v, 0), with each
    # sum taken by dgemm's beta = 1 (const is copied, v is overwritten), and
    # lift @ |v| formed as (lift^T)^T |v|.  The dgemm arguments after b are
    # (beta, c, trans_a, trans_b, overwrite_c), passed by position.
    for _ in range(ADMM_ITERS - 2):
        absolute(v, out=a)
        coeff = dgemm(1.0, lift_t, a, 1.0, const, 1)
        minimum(v, zero, out=v)
        v = dgemm(1.0, full, coeff, 1.0, v, 0, 0, 1)
    # The results leave in C order, as NumPy products are: later BLAS calls
    # on them round differently when handed the other layout.
    absolute(v, out=a)
    coeff = np.ascontiguousarray(dgemm(1.0, lift_t, a, 1.0, const, 1))
    recon = dgemm(1.0, full, coeff)
    return RegressionResult(coeff, EndmemberMatrix.positive_part(recon), recon, v)
