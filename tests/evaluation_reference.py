"""The evaluation formulas as they were before the normal-equation RE, kept as an oracle.

``reconstruction_error`` forms the t x L residual and takes its norm;
``rmse_concentrations`` squares a fresh difference; ``estimate_concentrations``
is the batch FCLS with its Gram, right-hand side and per-chunk solution
arrays allocated apart.  The production versions must give the same
abundance rows and RMSE bit for bit, and the same RE within 1e-12 relative.
The signatures match the pipeline's calls, so a run can be made through
them by monkeypatching.
"""

import numpy as np

from kfunmix.abundance import (
    CHUNK_BYTES,
    _best_candidates,
    _bordered_layout,
    _lapack,
    estimate_concentrations as _production_concentrations,
)


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


def estimate_concentrations(spectra_rows, endmembers):
    """The batch path (more than (K + 1) // 2 rows); fewer rows go to production."""
    s = np.asarray(endmembers)
    rows = np.atleast_2d(np.asarray(spectra_rows, dtype=np.float64))
    n = rows.shape[0]
    k = s.shape[1]
    if n <= (k + 1) // 2:
        return _production_concentrations(spectra_rows, endmembers)
    gram = s.T @ s
    block, offset = _bordered_layout(k)
    padded = np.zeros((k + 1, k + 1))
    padded[:k, :k] = gram
    rhs = np.empty((k + 1, n))
    rhs[:k] = s.T @ rows.T
    rhs[k] = 1.0
    inv = _lapack(np.linalg.inv, padded * block + offset) * block
    stacked = inv.reshape(-1, k + 1)
    out = np.empty((n, k))
    chunk = max(1, CHUNK_BYTES // (8 * stacked.shape[0]))
    for lo in range(0, n, chunk):
        b = rhs[:, lo : lo + chunk]
        sol = (stacked @ b).reshape(inv.shape[0], k + 1, b.shape[1])
        out[lo : lo + chunk] = _best_candidates(sol, b)
    np.maximum(out, 0.0, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out
