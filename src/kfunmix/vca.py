"""Vertex component analysis: pure-pixel endmember extraction.

Iteratively projects the data onto directions orthogonal to the simplex
spanned by the endmembers found so far and keeps the observation with the
largest absolute projection.  The subspace the search runs in depends on
an SNR estimate: below the 15 + 10 log10(K) dB threshold the data is
projected onto a (K-1)-dimensional principal subspace and lifted with a
constant coordinate, otherwise onto a K-dimensional singular subspace
followed by projective normalization.
"""

from __future__ import annotations

import warnings

import numpy as np

from .datamodel import EndmemberMatrix, FloatArray, SpectraMatrix


def _estimate_snr_db(data: FloatArray, mean: FloatArray, projected: FloatArray) -> float:
    """SNR estimate from the energy split between signal subspace and remainder."""
    n = data.shape[1]
    k = projected.shape[0]
    p_total = float(np.sum(data**2)) / n
    p_sub = float(np.sum(projected**2)) / n + float(np.sum(mean**2))
    denom = p_total - p_sub
    if denom <= 0.0:
        return float("inf")
    return 10.0 * np.log10(max(p_sub - (k / data.shape[0]) * p_total, 0.0) / denom + np.finfo(float).tiny)


def vca(
    spectra: SpectraMatrix | FloatArray, n_endmembers: int, seed: int = 0
) -> EndmemberMatrix:
    """Select K observations that span the data simplex.

    Returns the selected original spectra as endmember columns, clamped
    at zero.  Ties in the projection argmax break toward the lowest
    observation index, and all randomness comes from the seeded generator,
    so the output is a deterministic function of (data, n_endmembers, seed).
    """
    rows = np.asarray(spectra)
    if rows.ndim != 2:
        raise ValueError("spectra must be a 2-D array of row spectra")
    n, n_channels = rows.shape
    k = n_endmembers
    if k < 1:
        raise ValueError("n_endmembers must be >= 1")
    if k > min(n, n_channels):
        raise ValueError(f"cannot extract {k} endmembers from {n}x{n_channels} data")

    data = rows.T  # (L, N), observations as columns
    rng = np.random.default_rng(seed)

    if k == 1:
        u, _, _ = np.linalg.svd(data, full_matrices=False)
        scores = u[:, 0] @ data
        pick = int(np.argmax(np.abs(scores)))
        return EndmemberMatrix(np.maximum(rows[pick][:, None], 0.0))

    mean = data.mean(axis=1, keepdims=True)
    centered = data - mean
    u_c, s_c, _ = np.linalg.svd(centered, full_matrices=False)
    significant = int(np.sum(s_c > s_c[0] * 1e-10)) if s_c[0] > 0 else 0
    if significant < k:
        warnings.warn(
            f"data has only {significant} significant directions for {k} endmembers",
            stacklevel=2,
        )
    proj_k = u_c[:, :k].T @ centered  # (K, N)

    snr = _estimate_snr_db(data, mean, proj_k)
    snr_threshold = 15.0 + 10.0 * np.log10(k)

    if snr < snr_threshold:
        # Noisy regime: drop to K-1 principal coordinates and lift with a
        # constant so the simplex becomes full-dimensional.
        x = proj_k[: k - 1, :]
        lift = float(np.max(np.sqrt(np.sum(x**2, axis=0)))) if x.size else 1.0
        if lift == 0.0:
            lift = 1.0
        points = np.vstack([x, np.full((1, n), lift)])
    else:
        # Clean regime: unnormalized singular subspace of the raw data,
        # then projective normalization onto a hyperplane.
        u_r, _, _ = np.linalg.svd(data, full_matrices=False)
        x = u_r[:, :k].T @ data  # (K, N)
        centroid = x.mean(axis=1)
        denom = centroid @ x
        denom = np.where(np.abs(denom) < np.finfo(float).tiny, np.finfo(float).tiny, denom)
        points = x / denom

    basis = np.zeros((k, k))
    basis[-1, 0] = 1.0
    picks = np.zeros(k, dtype=int)
    for i in range(k):
        f = np.zeros(k)
        for _ in range(100):
            w = rng.standard_normal(k)
            f = w - basis @ (np.linalg.pinv(basis) @ w)
            norm = float(np.linalg.norm(f))
            if norm > 1e-12:
                f /= norm
                break
        else:
            raise RuntimeError("could not find a direction orthogonal to the current simplex")
        scores = f @ points
        picks[i] = int(np.argmax(np.abs(scores)))
        basis[:, i] = points[:, picks[i]]

    return EndmemberMatrix(np.maximum(rows[picks].T, 0.0))
