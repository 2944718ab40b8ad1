"""Vertex component analysis: pure-pixel endmember extraction.

Iteratively projects the data onto directions orthogonal to the simplex
spanned by the endmembers found so far and keeps the observation with the
largest absolute projection.  The subspace the search runs in depends on
an SNR estimate: below the 15 + 10 log10(K) dB threshold the data is
projected onto a (K-1)-dimensional principal subspace and lifted with a
constant coordinate, otherwise onto a K-dimensional singular subspace
followed by projective normalization.

With K >= 2 the exact test takes two full SVDs.  That of the centred data
X_c (L x N) gives the significance warning (fewer than K singular values
above SIGNIFICANCE s_0), the top-K energy sum_{i<K} s_i^2 behind the SNR
estimate, and the noisy regime's K-1 principal coordinates.  That of the
raw data gives the clean regime's K-dimensional subspace.  So in the clean
regime, when no warning is due, the centred SVD serves only two tests, and
both are decided by lower bounds on the top singular values.

Those bounds come from a randomized range finder (Halko, Martinsson &
Tropp 2011, SIAM Review 53(2)): Q spans the subspace-iterated sketch
(X_c X_c^T)^POWER_STEPS X_c Omega, with a QR factorisation after X_c Omega
and after each power step.  Omega is a fixed Gaussian N x w matrix, w =
min(K + SKETCH_OVERSAMPLE, L, N), drawn from its own ``default_rng(0)``,
never from the caller's seed, so the pick directions do not move.  For
any Q with orthonormal columns, the singular values sigma_i of Q^T X_c
interlace those of X_c:

    sigma_i <= s_i  for every i,  so  sum_{i<K} sigma_i^2 <= sum_{i<K} s_i^2,

and s_0 <= ||X_c||_F.  The SNR estimate does not decrease as the top-K
energy grows, so if the bound alone puts it at or above the threshold, and
sigma_{K-1} clears SIGNIFICANCE ||X_c||_F, the exact test would take the
clean branch without a warning, and the call goes straight to the raw-data
SVD.  Each bound is first lowered by ROUNDING_MARGIN times ||X_c||_F^2 (the
energy) or ||X_c||_F (sigma_{K-1}), which covers the rounding of both the
sketch and the exact SVD (about 1e-15 of the same scales) many times over,
and moves the SNR bound by about 1e-6 dB near the threshold.  Otherwise the
exact test runs as it always has: the centred SVD, the exact SNR, the
warning and the regime, the way :mod:`kfunmix.abundance` screens its
conditioning warning before it takes an SVD.  Picks and warnings are thus
those of the exact test on every input (where entries near 1e154 and up
overflow its sums, NumPy's overflow warnings come in another order).  A certified call skips one full
SVD; an uncertified one pays for the sketch on top: four products of X_c
with a thin matrix, two thin QR factorisations and the singular values of
an N x w matrix, under a tenth of a noisy-regime call once N >= 100
(``vca_us`` in ``scripts/layer_costs.py``).
"""

from __future__ import annotations

import warnings

import numpy as np

from .datamodel import EndmemberMatrix, FloatArray, SpectraMatrix

# A centred singular value at or below SIGNIFICANCE s_0 is not a direction.
SIGNIFICANCE = 1e-10
# Sketch width beyond K, and the subspace-iteration steps of the sketch.
SKETCH_OVERSAMPLE = 4
POWER_STEPS = 1
# Each sketch bound is lowered by this share of ||X_c||_F^2 (energy) or ||X_c||_F.
ROUNDING_MARGIN = 1e-8


def _estimate_snr_db(data: FloatArray, mean: FloatArray, top_energy: float, k: int) -> float:
    """SNR estimate from the energy split between the top-K centred subspace and the rest.

    ``top_energy`` is sum_{i<K} s_i^2 of the centred data, or a lower bound
    on it; the estimate does not decrease as it grows.
    """
    n = data.shape[1]
    p_total = float(np.sum(data**2)) / n
    p_sub = top_energy / n + float(np.sum(mean**2))
    denom = p_total - p_sub
    if denom <= 0.0:
        return float("inf")
    return 10.0 * np.log10(max(p_sub - (k / data.shape[0]) * p_total, 0.0) / denom + np.finfo(float).tiny)


def _sketch_bounds(centered: FloatArray, k: int) -> tuple[float, float, float]:
    """Lower bounds on sum_{i<K} s_i^2 and on s_{K-1} of ``centered``, and its
    Frobenius norm; each bound already lowered by the rounding margin."""
    n_channels, n = centered.shape
    width = min(k + SKETCH_OVERSAMPLE, n_channels, n)
    omega = np.random.default_rng(0).standard_normal((n, width))
    q, _ = np.linalg.qr(centered @ omega)
    for _ in range(POWER_STEPS):
        q, _ = np.linalg.qr(centered @ (centered.T @ q))
    # The singular values of X_c^T Q are those of Q^T X_c; the tall form is the cheaper call.
    sigma = np.linalg.svd(centered.T @ q, compute_uv=False)
    energy = float(np.sum(centered**2))
    top = float(np.sum(sigma[:k] ** 2)) - ROUNDING_MARGIN * energy
    frobenius = float(np.sqrt(energy))
    return top, float(sigma[k - 1]) - ROUNDING_MARGIN * frobenius, frobenius


def _certify_clean(
    data: FloatArray, mean: FloatArray, centered: FloatArray, k: int, threshold: float
) -> bool:
    """True when the sketch proves the exact test clean and free of a warning.

    Entries of about 1e152 and up overflow the sketch; it then certifies
    nothing and stays silent, so the exact test decides and warns as before.
    """
    with np.errstate(all="ignore"):
        try:
            top, sigma_last, frobenius = _sketch_bounds(centered, k)
        except np.linalg.LinAlgError:
            return False
        return sigma_last > SIGNIFICANCE * frobenius and _estimate_snr_db(data, mean, top, k) >= threshold


def vca(
    spectra: SpectraMatrix | FloatArray, n_endmembers: int, seed: int = 0
) -> EndmemberMatrix:
    """Select K observations that span the data simplex.

    Returns the selected original spectra as endmember columns, clamped
    at zero.  Ties in the projection argmax break toward the lowest
    observation index, and all randomness comes from the seeded generator,
    so the output is a deterministic function of (data, n_endmembers, seed).
    With K >= 2, a sketch of the centred data may prove the clean regime,
    which skips the centred SVD; the picks and the significance warning
    are those of the exact test either way (see the module docstring).
    Raises ValueError naming the first spectrum that is not finite.
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
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"spectrum {int(np.argmin(finite))} is not finite")

    data = rows.T  # (L, N), observations as columns
    rng = np.random.default_rng(seed)

    if k == 1:
        u, _, _ = np.linalg.svd(data, full_matrices=False)
        scores = u[:, 0] @ data
        pick = int(np.argmax(np.abs(scores)))
        return EndmemberMatrix(np.maximum(rows[pick][:, None], 0.0))

    mean = data.mean(axis=1, keepdims=True)
    centered = data - mean
    snr_threshold = 15.0 + 10.0 * np.log10(k)
    noisy = False
    if not _certify_clean(data, mean, centered, k, snr_threshold):
        u_c, s_c, _ = np.linalg.svd(centered, full_matrices=False)
        significant = int(np.sum(s_c > s_c[0] * SIGNIFICANCE)) if s_c[0] > 0 else 0
        if significant < k:
            warnings.warn(
                f"data has only {significant} significant directions for {k} endmembers",
                stacklevel=2,
            )
        proj_k = u_c[:, :k].T @ centered  # (K, N)
        noisy = _estimate_snr_db(data, mean, float(np.sum(proj_k**2)), k) < snr_threshold

    if noisy:
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
