"""The support enumeration FCLS solved through H_A and a Schur step, kept as a reference.

This is the form `kfunmix.abundance.estimate_concentrations` took before its
bordered-KKT rewrite.  On support A, with G = S^T S + ridge I, b = S^T y,
H_A the inverse of G on A (zero elsewhere) and h_A = H_A 1, the minimiser is
``c = H_A b - nu h_A`` with ``nu = (h_A^T b - 1) / (1^T h_A)``, and its
objective is ``-0.5 (b^T c + nu)``.  Each row keeps the lowest-objective
candidate whose entries are all above -FEASIBLE_TOL, the first support on a
tie, and is projected onto the simplex at exit.  The tests compare the
production solver against it; the signatures match the pipeline's calls,
so a stream can be run through it by monkeypatching.
"""

import numpy as np

from kfunmix.abundance import FEASIBLE_TOL
from kfunmix.datamodel import RIDGE, EndmemberMatrix


def support_masks(k):
    """(2^K - 1, K) 0/1 masks of the nonempty supports, in enumeration order."""
    return (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1


def project_simplex_rows(rows):
    """Project each row onto the probability simplex (sort-and-threshold)."""
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, rows.shape[1] + 1)[None, :]
    cond = u - css / ind > 0
    k = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(rows.shape[0]), k] / (k + 1.0)
    return np.maximum(rows - tau[:, None], 0.0)


def candidates(rows, s):
    """Every support's candidate, (supports, K, n), and objective, (supports, n).

    The objective of a candidate with an entry below -FEASIBLE_TOL is inf.
    """
    k = s.shape[1]
    masks = support_masks(k)
    block = (masks[:, :, None] * masks[:, None, :]).astype(np.float64)
    pad = np.eye(k) * (1 - masks)[:, None, :]
    inv = np.linalg.inv((s.T @ s + RIDGE * np.eye(k)) * block + pad) * block
    h = inv.sum(axis=2)
    h_sum = h.sum(axis=1)[:, None]
    b = s.T @ np.atleast_2d(rows).T
    nu = (h @ b - 1.0) / h_sum
    cand = inv @ b - h[:, :, None] * nu[:, None, :]
    objective = -0.5 * (np.sum(b * cand, axis=1) + nu)
    objective[np.min(cand, axis=1) < -FEASIBLE_TOL] = np.inf
    return cand, objective


def reference_concentrations(spectra_rows, endmembers):
    """(n, K) abundances: the best candidate of each row, projected onto the simplex."""
    s = endmembers.values if isinstance(endmembers, EndmemberMatrix) else np.asarray(endmembers)
    rows = np.atleast_2d(np.asarray(spectra_rows, dtype=np.float64))
    if s.shape[1] == 1:
        return np.ones((rows.shape[0], 1))
    cand, objective = candidates(rows, s)
    best = np.argmin(objective, axis=0)
    return project_simplex_rows(cand[best, :, np.arange(rows.shape[0])])


def reference_concentration(spectrum, endmembers):
    """Abundance vector of a single spectrum."""
    return reference_concentrations(np.asarray(spectrum)[None, :], endmembers)[0]
