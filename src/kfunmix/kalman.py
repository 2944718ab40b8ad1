"""Streaming state estimators for the linear mixing model.

The state mean is the (D, K) matrix whose column k is endmember k, as in
``EndmemberMatrix``, in channels or any fixed linear map of them.  An
observation y (length D) relates to it through the concentration vector c
as ``y = mean @ c + noise``: ``H = c^T (x) I_D`` on the column-stacked
state of length DK.  A covariance ``Sigma (x) I_D`` keeps that form under
every update with this H, so each update carries only the K x K Sigma,
costs O(K^2 + K D), and has the same K-vector gain for every D: a fixed
linear map F commutes with it (F of the update = update of F).

Three gain rules share one covariance-form step, which moves column k of
the mean by ``g_k (y - mean @ c)`` and shrinks the K x K covariance: a
Kalman filter on a random-walk state, exponentially weighted recursive
least squares (the Kalman step on the inflated prior P / forgetting with
unit observation variance), and the Gram-normalized rule, RLS at forgetting 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import CovarianceMatrix, EndmemberMatrix, FloatArray, NumericalError

_NON_FINITE_INPUT = "concentration or observation has non-finite entries"


@dataclass(frozen=True)
class FilterState:
    """Estimator state: mean (D, K), one column per endmember, and K x K covariance.

    The covariance is that of every updater: Sigma for :func:`kf_update`,
    and the inverse Gram P for :func:`rls_update` and :func:`dl_update`;
    :attr:`matrix` is its array.  Each fact is checked once, where it is
    made: a mean given as an ``EndmemberMatrix`` and a ``CovarianceMatrix``
    carry their checks, and anything else is checked here (the mean
    non-empty and finite, the covariance K x K, finite and symmetric).
    Positive semidefiniteness (eigenvalues >= -1e-10 at rest, >= -1e-8
    across long update sequences) is a maintained invariant checked by
    :meth:`validate` rather than on every construction.
    """

    mean: FloatArray
    covariance: CovarianceMatrix

    def __post_init__(self) -> None:
        mean = self.mean
        if isinstance(mean, EndmemberMatrix):
            mean = mean.values
        else:
            mean = np.asarray(mean, dtype=np.float64)
            if mean.ndim != 2:
                raise ValueError("state mean must be a (D, K) matrix")
            if mean.size == 0:
                raise ValueError(f"state mean of shape {mean.shape} is empty; K and D must be >= 1")
            if not np.isfinite(mean).all():
                raise ValueError("state mean contains non-finite entries")
        covariance = self.covariance
        checked = isinstance(covariance, CovarianceMatrix)
        matrix = covariance.values if checked else np.asarray(covariance, dtype=np.float64)
        n_columns = mean.shape[1]
        if matrix.shape != (n_columns, n_columns):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match K = {n_columns} state columns"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", covariance if checked else CovarianceMatrix(matrix))

    @property
    def matrix(self) -> FloatArray:
        """The K x K covariance array."""
        return self.covariance.values

    def validate(self, eig_tol: float = 1e-10) -> None:
        """Assert positive semidefiniteness of the covariance within eig_tol."""
        smallest = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if smallest < -eig_tol:
            raise ValueError(f"matrix has eigenvalue {smallest} < -{eig_tol}")


def _inputs(
    state: FilterState, concentration: FloatArray, observation: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Return c and y after checking their shapes against the mean and c's entries.

    y is scanned by :func:`_kalman_step` only when the posterior mean it
    makes is not finite; in a stream, FCLS has scanned it already.
    """
    c = np.asarray(concentration, dtype=np.float64)
    y = np.asarray(observation, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("concentration must be a non-empty vector")
    if state.mean.shape != (y.size, c.size):
        raise ValueError(
            f"state mean shape {state.mean.shape} does not equal (D, K) = "
            f"({y.size}, {c.size})"
        )
    if not np.isfinite(c).all():
        raise NumericalError(_NON_FINITE_INPUT)
    return c, y


def _kalman_step(
    state: FilterState, c: FloatArray, y: FloatArray, prior: FloatArray, obs_var: float
) -> FilterState:
    """Covariance-form step: with s = c^T prior c + obs_var, the gain is prior c / s,
    the mean moves by the innovation y - mean @ c times the gain, and the
    posterior matrix is the symmetric part of prior - (prior c)(prior c)^T / s.

    The posterior state checks its mean's entries; a non-finite y shows
    there, and only then is y scanned, to name it as a non-finite input.
    """
    prior_c = prior @ c
    scale = float(c @ prior_c) + obs_var
    if not (np.isfinite(scale) and scale > 0.0):
        raise NumericalError(f"innovation variance {scale} is not finite and positive")
    gain = prior_c / scale
    if not np.isfinite(gain).all():
        raise NumericalError("gain has non-finite entries")
    matrix = prior - np.outer(prior_c, prior_c) / scale
    mean = state.mean + np.outer(y - state.mean @ c, gain)
    try:
        return FilterState(mean, CovarianceMatrix.symmetric_part(matrix))
    except ValueError:
        if not np.isfinite(y).all():
            raise NumericalError(_NON_FINITE_INPUT) from None
        raise


def kf_update(
    state: FilterState,
    concentration: FloatArray,
    observation: FloatArray,
    sigma_v2: float,
    sigma_e2: float,
) -> FilterState:
    """One Kalman step for a random-walk state observed through c^T (x) I.

    Parameters
    ----------
    state : FilterState
        Prior belief at step t-1; its matrix is the K x K covariance Sigma.
    concentration : (K,) array
        Mixing weights of the current observation.
    observation : (D,) array
        Spectrum acquired at step t, in the mean's observation space.
    sigma_v2 : float
        Random-walk variance, >= 0.
    sigma_e2 : float
        Observation variance, > 0.

    Returns
    -------
    FilterState
        Posterior belief at step t with a re-symmetrized Sigma.

    Raises
    ------
    ValueError
        If sigma_v2 is not >= 0 or sigma_e2 is not > 0 (NaN included for both).
    NumericalError
        If an input or the gain is not finite, or the innovation variance
        c^T Sigma c + sigma_e2 is not finite and positive.  The observation
        is scanned only once the posterior mean is found non-finite, so an
        infinite entry that meets an exactly zero gain entry makes NumPy
        warn of an invalid value first.
    """
    if not sigma_v2 >= 0.0:
        raise ValueError("sigma_v2 must be >= 0")
    if not sigma_e2 > 0.0:
        raise ValueError("sigma_e2 must be > 0")
    c, y = _inputs(state, concentration, observation)
    return _kalman_step(state, c, y, state.matrix + sigma_v2 * np.eye(c.size), sigma_e2)


def rls_update(
    state: FilterState,
    concentration: FloatArray,
    observation: FloatArray,
    forgetting: float,
) -> FilterState:
    """Exponentially weighted RLS step with forgetting factor lambda in (0, 1].

    With M = P / lambda, the RLS update (P - P c c^T P / (c^T P c + lambda))
    / lambda equals M - M c c^T M / (c^T M c + 1), and the gain
    P c / (c^T P c + lambda) equals M c / (c^T M c + 1).  So this is the
    Kalman step of :func:`kf_update` on the inflated prior M with unit
    observation variance; at lambda = 1 it is kf_update with sigma_v2 = 0
    and sigma_e2 = 1.
    """
    if not 0.0 < forgetting <= 1.0:
        raise ValueError(f"forgetting must be in (0, 1], got {forgetting}")
    c, y = _inputs(state, concentration, observation)
    return _kalman_step(state, c, y, state.matrix / forgetting, 1.0)


def dl_update(
    state: FilterState, concentration: FloatArray, observation: FloatArray
) -> FilterState:
    """Gram-normalized step, :func:`rls_update` at lambda = 1 on P = A^-1.

    The rule A <- A + c c^T with gain A^-1 c is, by Sherman-Morrison, the
    gain P c / (c^T P c + 1) and the update P - P c c^T P / (c^T P c + 1).
    """
    return rls_update(state, concentration, observation, 1.0)
