"""Evaluation metrics and trace serialization.

Endmember error is the spectral angle in degrees, averaged after an
optimal one-to-one alignment between estimated and true components.  An
angle is θ = 2·atan2(‖â − b̂‖, ‖â + b̂‖) on unit vectors, which is accurate
at every angle, 0 included; the arccos of a rounded cosine is not near 0.
All K² angles come from one K×K matrix, one ``linear_sum_assignment`` on it
picks the alignment, and the average reads the matched entries of the same
matrix.  Abundance error is a root mean square over all entries after
applying the same alignment.  Reconstruction error is relative in Frobenius
norm, with a rank-K PCA projection giving the attainable lower bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import (
    ConcentrationMatrix,
    EndmemberMatrix,
    FloatArray,
    SpectraMatrix,
    format_float,
)


def _angles(ref: FloatArray, est: FloatArray) -> FloatArray:
    """Spectral angles in degrees between columns; entry (i, j) pairs ref i with est j."""
    if ref.shape[0] != est.shape[0]:
        raise ValueError("channel counts differ")
    norm_ref = np.sqrt(np.einsum("lk,lk->k", ref, ref))
    norm_est = np.sqrt(np.einsum("lk,lk->k", est, est))
    if not (np.all(norm_ref) and np.all(norm_est)):
        raise ValueError("spectral angle is undefined for zero vectors")
    # unit columns as contiguous rows, shaped so each pair is a (1, L) row
    unit_ref = np.ascontiguousarray(ref.T / norm_ref[:, None])[:, None, None, :]
    unit_est = np.ascontiguousarray(est.T / norm_est[:, None])[:, None, :]
    apart = unit_ref - unit_est  # (K, K, 1, L)
    together = unit_ref + unit_est
    apart_sq = (apart @ apart.swapaxes(-1, -2))[..., 0, 0]
    together_sq = (together @ together.swapaxes(-1, -2))[..., 0, 0]
    return np.degrees(2.0 * np.arctan2(np.sqrt(apart_sq), np.sqrt(together_sq)))


def sad(a: FloatArray, b: FloatArray) -> float:
    """Spectral angle between two vectors, in degrees."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(_angles(a[:, None], b[:, None])[0, 0])


def _columns(m: EndmemberMatrix | FloatArray) -> FloatArray:
    return m.values if isinstance(m, EndmemberMatrix) else np.asarray(m, dtype=np.float64)


def _angle_matrix(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> FloatArray:
    """K×K spectral angles in degrees; entry (i, j) pairs truth i with estimate j."""
    est = _columns(estimated)
    ref = _columns(truth)
    if est.shape[1] != ref.shape[1]:
        raise ValueError("component counts differ")
    return _angles(ref, est)


def _assign(angles: FloatArray) -> np.ndarray:
    rows, cols = linear_sum_assignment(angles)
    perm = np.empty(angles.shape[0], dtype=int)
    perm[rows] = cols
    return perm


def align_components(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> np.ndarray:
    """Permutation p minimizing the total angle, so column p[k] matches truth k."""
    return _assign(_angle_matrix(estimated, truth))


def asad(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> float:
    """Average spectral angle in degrees after optimal alignment."""
    angles = _angle_matrix(estimated, truth)
    perm = _assign(angles)
    return float(np.mean(angles[np.arange(perm.size), perm]))


def rmse_concentrations(
    estimated: ConcentrationMatrix | FloatArray,
    truth: ConcentrationMatrix | FloatArray,
    alignment: np.ndarray,
) -> float:
    """Root mean square abundance error over all entries, after alignment."""
    est = estimated.values if isinstance(estimated, ConcentrationMatrix) else np.asarray(estimated)
    ref = truth.values if isinstance(truth, ConcentrationMatrix) else np.asarray(truth)
    if est.shape != ref.shape:
        raise ValueError("concentration shapes differ")
    aligned = est[:, alignment]
    return float(np.sqrt(np.sum((ref - aligned) ** 2) / ref.size))


def reconstruction_error(
    spectra_rows: SpectraMatrix | FloatArray,
    concentrations: ConcentrationMatrix | FloatArray,
    endmembers: EndmemberMatrix | FloatArray,
) -> float:
    """Relative Frobenius error of the mixing-model reconstruction."""
    if isinstance(spectra_rows, SpectraMatrix):
        spectra_rows = spectra_rows.values
    y = np.asarray(spectra_rows, dtype=np.float64)
    c = concentrations.values if isinstance(concentrations, ConcentrationMatrix) else np.asarray(concentrations)
    s = _columns(endmembers)
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        raise ValueError("reconstruction error is undefined for all-zero data")
    # one t×L temporary: the norm of (c sᵀ − y) equals that of (y − c sᵀ) bit for bit
    residual = c @ s.T
    residual -= y
    return float(np.linalg.norm(residual)) / norm_y


def pca_lower_bound(spectra_rows: SpectraMatrix | FloatArray, n_components: int) -> float:
    """Relative error of the best rank-K linear reconstruction.

    Projects the rows onto the span of the first K right singular vectors;
    the data is not mean-centered, matching the reconstruction error
    definition above.
    """
    if isinstance(spectra_rows, SpectraMatrix):
        spectra_rows = spectra_rows.values
    y = np.asarray(spectra_rows, dtype=np.float64)
    if n_components < 1 or n_components > min(y.shape):
        raise ValueError(f"n_components must be in [1, {min(y.shape)}]")
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        raise ValueError("lower bound is undefined for all-zero data")
    _, _, vt = np.linalg.svd(y, full_matrices=False)
    loadings = vt[:n_components].T
    recon = (y @ loadings) @ loadings.T
    return float(np.linalg.norm(y - recon)) / norm_y


@dataclass(frozen=True)
class MetricRecord:
    """Metrics at one time index; fields are None when not evaluated there."""

    t: int
    asad_deg: float | None
    rmse: float | None
    re: float | None
    wall_ms: float

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.asad_deg is not None and not 0.0 <= self.asad_deg <= 180.0:
            raise ValueError(f"asad_deg must be in [0, 180], got {self.asad_deg}")
        if self.rmse is not None and self.rmse < 0.0:
            raise ValueError("rmse must be >= 0")
        if self.re is not None and self.re < 0.0:
            raise ValueError("re must be >= 0")
        if self.wall_ms < 0.0:
            raise ValueError("wall_ms must be >= 0")


TRACE_HEADER = "t,asad_deg,rmse,re,wall_ms"


def _opt(x: float | None) -> str:
    return "nan" if x is None else format_float(x)


def write_trace_csv(
    records: tuple[MetricRecord, ...] | list[MetricRecord],
    path: str | os.PathLike[str],
    comments: dict[str, str] | None = None,
) -> None:
    """Write metric records with optional `# key=value` comment lines on top."""
    lines = []
    if comments:
        lines.extend(f"# {k}={comments[k]}" for k in sorted(comments))
    lines.append(TRACE_HEADER)
    for rec in records:
        lines.append(
            f"{rec.t},{_opt(rec.asad_deg)},{_opt(rec.rmse)},{_opt(rec.re)},"
            f"{format_float(rec.wall_ms)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(
    path: str | os.PathLike[str],
) -> tuple[tuple[MetricRecord, ...], dict[str, str]]:
    """Read a trace written by :func:`write_trace_csv`."""
    comments: dict[str, str] = {}
    records: list[MetricRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body_seen = False
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            comments[key] = value
            continue
        if not body_seen:
            if line != TRACE_HEADER:
                raise ValueError(f"{path}: line {line_no}: unexpected header {line!r}")
            body_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"{path}: line {line_no}: expected 5 fields")
        try:
            vals = [float(f) for f in fields[1:]]
            records.append(
                MetricRecord(
                    t=int(fields[0]),
                    asad_deg=None if np.isnan(vals[0]) else vals[0],
                    rmse=None if np.isnan(vals[1]) else vals[1],
                    re=None if np.isnan(vals[2]) else vals[2],
                    wall_ms=vals[3],
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return tuple(records), comments
