"""Information-form Gram-normalized update, kept as a reference.

This is the form `kfunmix.kalman.dl_update` took before it became the RLS
step at lambda = 1.  Its state matrix is the concentration Gram A, started
from C_0^T C_0 of the initialization abundances; each step adds c c^T to A
and moves column k of the mean by (A^-1 c)_k times the residual, with
RIDGE added to the solve (not to A) while cond(A) exceeds COND_LIMIT.  By
Sherman-Morrison the production rule on P = A^-1 is the same recursion,
so the tests hold the two within rounding of each other.  The input checks
and the innovation are written out here rather than taken from
``kfunmix.kalman``, so a fault there cannot hide on both sides.
"""

import numpy as np

from kfunmix.datamodel import COND_LIMIT, RIDGE, NumericalError
from kfunmix.kalman import FilterState


def _innovation(state, concentration, observation):
    """c and y - sum_k c_k mean_k, after the production rule's input checks."""
    c = np.asarray(concentration, dtype=np.float64)
    y = np.asarray(observation, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("concentration must be a non-empty vector")
    if state.mean.shape != (y.size, c.size):
        raise ValueError(f"state mean shape {state.mean.shape} does not equal (D, K)")
    if not (np.isfinite(c).all() and np.isfinite(y).all()):
        raise NumericalError("concentration or observation has non-finite entries")
    predicted = sum(c[k] * state.mean[:, k] for k in range(c.size))
    return c, y - predicted


def _advance(state, gain, residual, matrix):
    if not np.isfinite(gain).all():
        raise NumericalError("gain has non-finite entries")
    return FilterState(state.mean + np.outer(residual, gain), 0.5 * (matrix + matrix.T))


def dl_update(state, concentration, observation):
    """Gram-normalized gradient step: column k moves by (A^-1 c)_k * residual."""
    c, residual = _innovation(state, concentration, observation)
    gram = state.matrix + np.outer(c, c)
    solve_from = gram
    if np.linalg.cond(gram) > COND_LIMIT:
        solve_from = gram + RIDGE * np.eye(c.size)
    return _advance(state, np.linalg.solve(solve_from, c), residual, gram)
