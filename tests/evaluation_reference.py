"""The evaluation formulas as they were before the normal-equation RE, kept as an oracle.

``reconstruction_error`` forms the t x L residual and takes its norm;
``rmse_concentrations`` squares a fresh difference; ``estimate_concentrations``
is the batch FCLS with its Gram, right-hand side and per-chunk solution
arrays allocated apart, and with RIDGE in the constant part of its bordered
layout rather than on the Gram.  The production versions must give the same
abundance rows and RMSE bit for bit, and the same RE within 1e-12 relative.
The signatures match the pipeline's calls, so a run can be made through
them by monkeypatching.
"""

import numpy as np

from kfunmix.abundance import (
    CHUNK_BYTES,
    FEASIBLE_TOL,
    estimate_concentrations as _production_concentrations,
)
from kfunmix.datamodel import RIDGE


def reconstruction_error(spectra_rows, concentrations, endmembers):
    y = np.asarray(spectra_rows, dtype=np.float64)
    c = np.asarray(concentrations)
    s = np.asarray(endmembers, dtype=np.float64)
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        raise ValueError("reconstruction error is undefined for all-zero data")
    residual = c @ s.T
    residual -= y
    return float(np.linalg.norm(residual)) / norm_y


def rmse_concentrations(estimated, truth, alignment):
    est = np.asarray(estimated)
    ref = np.asarray(truth)
    if est.shape != ref.shape:
        raise ValueError("concentration shapes differ")
    aligned = est[:, alignment]
    return float(np.sqrt(np.sum((ref - aligned) ** 2) / ref.size))


def bordered_layout(k):
    """Masks of the 2^K - 1 bordered matrices, and their constant part with RIDGE."""
    supports = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    bordered = np.hstack([supports, np.ones((supports.shape[0], 1), dtype=supports.dtype)])
    block = (bordered[:, :, None] * bordered[:, None, :]).astype(np.float64)
    offset = np.zeros_like(block)
    diag = np.arange(k)
    offset[:, diag, diag] = np.where(supports == 1, RIDGE, 1.0)
    offset[:, k, :k] = supports
    offset[:, :k, k] = supports
    return block, offset


def estimate_concentrations(spectra_rows, endmembers):
    """The batch path (more than (K + 1) // 2 rows); fewer rows go to production."""
    s = np.asarray(endmembers)
    rows = np.atleast_2d(np.asarray(spectra_rows, dtype=np.float64))
    n = rows.shape[0]
    k = s.shape[1]
    if n <= (k + 1) // 2:
        return _production_concentrations(spectra_rows, endmembers)
    gram = s.T @ s
    block, offset = bordered_layout(k)
    padded = np.zeros((k + 1, k + 1))
    padded[:k, :k] = gram
    rhs = np.empty((k + 1, n))
    rhs[:k] = s.T @ rows.T
    rhs[k] = 1.0
    inv = np.linalg.inv(padded * block + offset) * block
    stacked = inv.reshape(-1, k + 1)
    out = np.empty((n, k))
    chunk = max(1, CHUNK_BYTES // (8 * stacked.shape[0]))
    for lo in range(0, n, chunk):
        b = rhs[:, lo : lo + chunk]
        sol = (stacked @ b).reshape(inv.shape[0], k + 1, b.shape[1])
        score = np.einsum("skn,kn->sn", sol, b)  # b^T c + nu
        score[sol[:, :k].min(axis=1) < -FEASIBLE_TOL] = -np.inf
        out[lo : lo + chunk] = sol[score.argmax(axis=0), :k, np.arange(b.shape[1])]
    np.maximum(out, 0.0, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out
