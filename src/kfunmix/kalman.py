"""Streaming state estimators for the linear mixing model.

The state mean is the (K, D) matrix whose row k is endmember k, in channels
or in any fixed linear map of them.  An observation y (length D) relates to
it through the concentration vector c as ``y = c @ mean + noise``, that is
``H = c^T (x) I_D`` on a state of length DK.  A covariance ``Sigma (x) I_D``
keeps that form under every update with this H, so each update carries only
the K x K Sigma, costs O(K^2 + K D), and has the same K-vector gain for every
D: a fixed linear map F commutes with it (F of the update = update of F).

Three gain rules share one covariance-form step, which moves row k of the
mean by ``g_k (y - c @ mean)`` and shrinks the K x K row covariance: a
Kalman filter on a random-walk state, exponentially weighted recursive
least squares (the Kalman step on the inflated prior P / forgetting with
unit observation variance), and the Gram-normalized rule, RLS at forgetting 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import FloatArray


class NumericalError(RuntimeError):
    """Raised when an update meets non-finite input or a singular system."""


@dataclass(frozen=True)
class FilterState:
    """Estimator state: mean (K, D) and the K x K row covariance.

    The matrix is a row covariance for every updater: Sigma for
    :func:`kf_update`, and the inverse Gram P for :func:`rls_update` and
    :func:`dl_update`.  Positive semidefiniteness (eigenvalues >= -1e-10 at
    rest, >= -1e-8 across long update sequences) is a maintained invariant
    checked by :meth:`validate` rather than on every construction.
    """

    mean: FloatArray
    matrix: FloatArray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.ndim != 2:
            raise ValueError("state mean must be a (K, D) matrix")
        if mean.size == 0:
            raise ValueError(f"state mean of shape {mean.shape} is empty; K and D must be >= 1")
        if not np.isfinite(mean).all():
            raise ValueError("state mean contains non-finite entries")
        matrix = np.asarray(self.matrix, dtype=np.float64)
        n_rows = mean.shape[0]
        if matrix.shape != (n_rows, n_rows):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match K = {n_rows} state rows"
            )
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite entries")
        if np.abs(matrix - matrix.T).max() > 1e-10:
            raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "matrix", matrix)

    def validate(self, eig_tol: float = 1e-10) -> None:
        """Assert positive semidefiniteness of the row covariance within eig_tol."""
        smallest = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if smallest < -eig_tol:
            raise ValueError(f"matrix has eigenvalue {smallest} < -{eig_tol}")


def _residual(
    state: FilterState, concentration: FloatArray, observation: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Return c and the innovation y - c @ mean after checking both inputs."""
    c = np.asarray(concentration, dtype=np.float64)
    y = np.asarray(observation, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("concentration must be a non-empty vector")
    if state.mean.shape != (c.size, y.size):
        raise ValueError(
            f"state mean shape {state.mean.shape} does not equal (K, D) = "
            f"({c.size}, {y.size})"
        )
    if not (np.isfinite(c).all() and np.isfinite(y).all()):
        raise NumericalError("concentration or observation has non-finite entries")
    return c, y - c @ state.mean


def _kalman_step(
    state: FilterState, c: FloatArray, residual: FloatArray, prior: FloatArray, obs_var: float
) -> FilterState:
    """Covariance-form step: with s = c^T prior c + obs_var, the gain is prior c / s
    and the posterior matrix prior - (prior c)(prior c)^T / s, re-symmetrized."""
    prior_c = prior @ c
    scale = float(c @ prior_c) + obs_var
    if not (np.isfinite(scale) and scale > 0.0):
        raise NumericalError(f"innovation variance {scale} is not finite and positive")
    gain = prior_c / scale
    if not np.isfinite(gain).all():
        raise NumericalError("gain has non-finite entries")
    matrix = prior - np.outer(prior_c, prior_c) / scale
    return FilterState(state.mean + np.outer(gain, residual), 0.5 * (matrix + matrix.T))


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
        Prior belief at step t-1; its matrix is the row covariance Sigma.
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
        c^T Sigma c + sigma_e2 is not finite and positive.
    """
    if not sigma_v2 >= 0.0:
        raise ValueError("sigma_v2 must be >= 0")
    if not sigma_e2 > 0.0:
        raise ValueError("sigma_e2 must be > 0")
    c, residual = _residual(state, concentration, observation)
    return _kalman_step(state, c, residual, state.matrix + sigma_v2 * np.eye(c.size), sigma_e2)


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
    c, residual = _residual(state, concentration, observation)
    return _kalman_step(state, c, residual, state.matrix / forgetting, 1.0)


def dl_update(
    state: FilterState, concentration: FloatArray, observation: FloatArray
) -> FilterState:
    """Gram-normalized step, :func:`rls_update` at lambda = 1 on P = A^-1.

    The rule A <- A + c c^T with gain A^-1 c is, by Sherman-Morrison, the
    gain P c / (c^T P c + 1) and the update P - P c c^T P / (c^T P c + 1).
    """
    return rls_update(state, concentration, observation, 1.0)
