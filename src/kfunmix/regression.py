"""Constraint restoration by regression onto acquired spectra.

The filtered reduced endmember estimate is mapped back to a nonnegative
full-space estimate by regressing it, in the reduced domain, onto the
first P acquired spectra while forcing the full-space reconstruction to
stay nonnegative:

    minimize   || Yr R - T ||_F^2   subject to   Y R >= 0

with Y the (L, P) matrix of regressor spectra, Yr its reduced (2M, P)
counterpart and T the (2M, K) target.  The ADMM iteration alternates a
least-squares step, a clamp, and a dual ascent step.  The least-squares
step is linear in T and in the split variables, so both maps are solved
through the Cholesky factor once per stream and each iteration is two
matrix products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .datamodel import EndmemberMatrix, FloatArray, SpectraMatrix
from .fourier import FourierBasis, ReducedMatrix, reduce_columns
from .kalman import NumericalError

CACHE_COND_LIMIT = 1e12
CACHE_COND_WARN = 1e8


@dataclass(frozen=True)
class AdmmConfig:
    """Iteration settings; primal_tol = 0 disables the early exit."""

    rho: float = 1.0
    max_iters: int = 50
    primal_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.rho <= 0.0:
            raise ValueError("rho must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.primal_tol < 0.0:
            raise ValueError("primal_tol must be >= 0")


@dataclass(frozen=True)
class RegressorSet:
    """The fixed regression system built from the first P spectra.

    Holds the full-space regressors Y (L, P), their reduced form Yr
    (2M, P), and with N = 2 Yr^T Yr + rho Y^T Y the two maps of the ADMM
    least-squares step: ``target_map = N^-1 2 Yr^T`` (P, 2M) and
    ``lift = N^-1 Y^T`` (P, L).  Both depend only on the regressors and rho
    and are therefore computed once per stream.
    """

    full_space: FloatArray
    reduced_space: FloatArray
    rho: float
    cache_cond: float
    target_map: FloatArray
    lift: FloatArray

    def __post_init__(self) -> None:
        if self.full_space.ndim != 2 or self.reduced_space.ndim != 2:
            raise ValueError("regressor matrices must be 2-D")
        if self.full_space.shape[1] != self.reduced_space.shape[1]:
            raise ValueError("full and reduced regressor counts disagree")
        if self.rho <= 0.0:
            raise ValueError("rho must be > 0")

    @property
    def n_regressors(self) -> int:
        return self.full_space.shape[1]


def build_regressor_set(
    spectra: SpectraMatrix | FloatArray, basis: FourierBasis, rho: float
) -> RegressorSet:
    """Assemble the regression system from row spectra and solve its two linear maps."""
    rows = spectra.values if isinstance(spectra, SpectraMatrix) else np.asarray(spectra)
    if rows.ndim != 2:
        raise ValueError("spectra must be a 2-D array of row spectra")
    full = np.array(rows.T, dtype=np.float64)  # (L, P)
    reduced = reduce_columns(full, basis).values  # (2M, P)

    normal = 2.0 * (reduced.T @ reduced) + rho * (full.T @ full)
    cond = float(np.linalg.cond(normal))
    if cond > CACHE_COND_LIMIT:
        raise ValueError(
            f"regression system is singular (cond={cond:.3g}); "
            "increase the number of initialization spectra"
        )
    if cond > CACHE_COND_WARN:
        warnings.warn(
            f"regression system is poorly conditioned (cond={cond:.3g})",
            stacklevel=2,
        )
    factor = cho_factor(normal, lower=True)
    return RegressorSet(
        full, reduced, rho, cond, cho_solve(factor, 2.0 * reduced.T), cho_solve(factor, full.T)
    )


@dataclass(frozen=True)
class RegressionResult:
    """Coefficients, the clamped full-space estimate, and final duals."""

    coefficients: FloatArray
    endmembers: EndmemberMatrix
    duals: tuple[FloatArray, FloatArray]


def solve_regression(
    regressors: RegressorSet,
    target: ReducedMatrix,
    config: AdmmConfig = AdmmConfig(),
    warm_start: tuple[FloatArray, FloatArray] | None = None,
) -> RegressionResult:
    """Fit the reduced target as a nonnegative combination of the regressors.

    Parameters
    ----------
    regressors : RegressorSet
        System built by :func:`build_regressor_set`; its rho must match
        the config, since the cached maps depend on it.
    target : ReducedMatrix
        Reduced endmember estimate, shape (2M, K).
    config : AdmmConfig
        Step size rho, iteration cap and optional primal tolerance.
    warm_start : optional (U, lambda) pair
        Duals from a previous call on the same regressors; both default
        to zero.

    Returns
    -------
    RegressionResult
        Coefficients R (P, K), the nonnegative full-space estimate
        max(0, Y R) as an EndmemberMatrix, and the final (U, lambda).

    Raises
    ------
    NumericalError
        If clamping zeroes out an entire column, leaving no usable
        endmember estimate for that component.
    """
    if config.rho != regressors.rho:
        raise ValueError(
            f"config rho {config.rho} does not match the cached system rho "
            f"{regressors.rho}"
        )
    full = regressors.full_space
    reduced = regressors.reduced_space
    t = target.values
    if t.shape[0] != reduced.shape[0]:
        raise ValueError(
            f"target has {t.shape[0]} reduced rows, regressors have {reduced.shape[0]}"
        )
    n_out = t.shape[1]
    if warm_start is None:
        u = np.zeros((full.shape[0], n_out))
        lam = np.zeros((full.shape[0], n_out))
    else:
        u, lam = (np.array(w, dtype=np.float64) for w in warm_start)
        if u.shape != (full.shape[0], n_out) or lam.shape != u.shape:
            raise ValueError("warm start shapes do not match (L, K)")

    const = regressors.target_map @ t  # (P, K)
    lift = regressors.lift
    coeff = np.zeros((regressors.n_regressors, n_out))
    recon = full @ coeff
    for _ in range(config.max_iters):
        coeff = const + lift @ (lam + config.rho * u)
        recon = full @ coeff
        u = np.maximum(recon - lam / config.rho, 0.0)
        lam = lam + config.rho * (u - recon)
        if config.primal_tol > 0.0:
            if float(np.linalg.norm(u - recon)) <= config.primal_tol:
                break

    clamped = np.maximum(recon, 0.0)
    dead = np.nonzero(np.max(clamped, axis=0) == 0.0)[0]
    if dead.size:
        # A column whose constrained fit is identically zero cannot serve as
        # an endmember downstream; treat it as a degenerate-stream failure.
        raise NumericalError(
            f"regression collapsed endmember column {int(dead[0])} to zero"
        )
    estimate = EndmemberMatrix(clamped)
    return RegressionResult(coeff, estimate, (u, lam))
