"""Evaluation metrics and trace serialization.

Endmember error is the spectral angle in degrees, averaged after an
optimal one-to-one alignment between estimated and true components.  An
angle is θ = 2·atan2(‖â − b̂‖, ‖â + b̂‖) on unit vectors, which is accurate
at every angle, 0 included; the arccos of a rounded cosine is not near 0.
All K² angles come from one K×K matrix, one minimum-cost assignment on it
picks the alignment, and the average reads the matched entries of the same
matrix.  The matrix and the assignment of the last pair scored are kept,
so ASAD and the alignment of one estimate build and assign it once.  The
assignment is an in-repo O(K³) Hungarian method, so evaluation needs no
scipy solver.  Abundance error is a root mean square over all
entries after applying the same alignment.  Reconstruction error is relative
in Frobenius norm, with a rank-K PCA projection giving the attainable lower
bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import get_args, get_type_hints

import numpy as np

from .datamodel import (
    ConcentrationMatrix,
    EndmemberMatrix,
    FloatArray,
    SpectraMatrix,
    format_float,
    memo_key,
)


def _angle_matrix(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> FloatArray:
    """Spectral angles in degrees between columns; entry (i, j) pairs truth i with estimate j."""
    est = np.asarray(estimated, dtype=np.float64)
    ref = np.asarray(truth, dtype=np.float64)
    if est.shape[1] != ref.shape[1]:
        raise ValueError("component counts differ")
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
    return float(_angle_matrix(np.asarray(b)[:, None], np.asarray(a)[:, None])[0, 0])


def _assign(angles: FloatArray) -> np.ndarray:
    """Permutation p minimizing the sum of angles[k, p[k]] over k.

    The Hungarian method in its shortest-augmenting-path form with row and
    column potentials (Kuhn 1955; Munkres 1957; Jonker & Volgenant 1987),
    O(K³) in plain Python.  Rows join one at a time; each takes the
    cheapest path of reduced costs to a free column, and the columns along
    the path shift to the rows behind them.  Ties go to the lowest column
    index: of the columns that reach the minimum reduced cost, the first
    is taken, so an all-equal matrix gives the identity.  Where several
    permutations share the minimum total, the one returned has that total
    but need not be the one another solver returns.
    """
    cost = angles.tolist()
    # Finite entries of at most 180 degrees cannot overflow the sum.
    if not math.isfinite(sum(map(sum, cost))):
        raise ValueError("assignment costs must be finite")
    n = len(cost)
    row_pot = [0.0] * n
    col_pot = [0.0] * n
    row_of = [-1] * n  # row matched to each column, -1 while free
    prev_col = [0] * n  # predecessor of each column on the path, -1 for the new row
    for new_row in range(n):
        row, col = new_row, -1
        slack = [math.inf] * n  # least reduced cost of a path to each column
        free = list(range(n))  # columns no path from the new row reaches yet
        reached = []  # matched columns the paths pass through
        while True:
            costs = cost[row]
            base = row_pot[row]
            delta = math.inf
            for j in free:
                reduced = costs[j] - base - col_pot[j]
                if reduced < slack[j]:
                    slack[j] = reduced
                    prev_col[j] = col
                if slack[j] < delta:
                    delta = slack[j]
                    nearest = j
            row_pot[new_row] += delta
            for j in reached:
                row_pot[row_of[j]] += delta
                col_pot[j] -= delta
            col = nearest
            row = row_of[col]
            if row < 0:
                break
            free.remove(col)
            for j in free:
                slack[j] -= delta
            reached.append(col)
        while col >= 0:  # shift each row on the path one column along it
            before = prev_col[col]
            row_of[col] = row_of[before] if before >= 0 else new_row
            col = before
    perm = [0] * n
    for j in range(n):
        perm[row_of[j]] = j
    return np.array(perm, dtype=int)


# The last pair scored: its key, angle matrix and assignment (see _scored).
# It is module state because the two public calls take only the arrays; as
# a hit returns what a miss computes, no caller can tell it is shared.  It
# is read once and replaced whole, so a thread reads one consistent entry.
_last_scored: tuple[tuple, FloatArray, np.ndarray] | None = None


def _scored(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> tuple[FloatArray, np.ndarray]:
    """The angle matrix of a pair and its minimum-cost assignment, kept for the last pair.

    A record calls ``asad`` and then ``align_components`` on one pair, so
    the second call finds the first one's result.  The key is both float64
    arrays' :func:`~kfunmix.datamodel.memo_key`, so a hit returns exactly
    what a miss computes.  Only a pair that scored without an error is kept.
    """
    global _last_scored
    est = np.asarray(estimated, dtype=np.float64)
    ref = np.asarray(truth, dtype=np.float64)
    key = (memo_key(est), memo_key(ref))
    last = _last_scored
    if last is not None and last[0] == key:
        return last[1], last[2]
    angles = _angle_matrix(est, ref)
    perm = _assign(angles)
    _last_scored = (key, angles, perm)
    return angles, perm


def align_components(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> np.ndarray:
    """Permutation p minimizing the total angle, so column p[k] matches truth k."""
    return _scored(estimated, truth)[1].copy()


def asad(
    estimated: EndmemberMatrix | FloatArray, truth: EndmemberMatrix | FloatArray
) -> float:
    """Average spectral angle in degrees after optimal alignment."""
    angles, perm = _scored(estimated, truth)
    # the sum and the division np.mean makes, without its Python wrapper
    return float(np.add.reduce(angles[np.arange(perm.size), perm]) / perm.size)


def rmse_concentrations(
    estimated: ConcentrationMatrix | FloatArray,
    truth: ConcentrationMatrix | FloatArray,
    alignment: np.ndarray,
) -> float:
    """Root mean square abundance error over all entries, after alignment."""
    est = np.asarray(estimated)
    ref = np.asarray(truth)
    if est.shape != ref.shape:
        raise ValueError("concentration shapes differ")
    diff = ref - est[:, alignment]
    np.square(diff, out=diff)
    return float(np.sqrt(np.sum(diff) / ref.size))


# RE² below which reconstruction_error forms the residual (see its docstring).
RE_IDENTITY_SHARE = 2.5e-3


def reconstruction_error(
    spectra_rows: SpectraMatrix | FloatArray,
    concentrations: ConcentrationMatrix | FloatArray,
    endmembers: EndmemberMatrix | FloatArray,
) -> float:
    """Relative Frobenius error ‖Y − C Sᵀ‖ / ‖Y‖ of the mixing-model reconstruction.

    With C and S nonnegative, as every abundance and endmember estimate is,
    the squared error comes from the normal equations,

        ‖Y − C Sᵀ‖² = ‖Y‖² − 2⟨YS, C⟩ + ⟨C·SᵀS, C⟩,

    one t×K product and one dot product of Y with itself, with no t×L
    temporary.  Each term is then at most ‖Y‖² + ⟨C·SᵀS, C⟩, and the sum
    cancels as the fit improves.  Against an extended-precision residual,
    its rounding measured at most 2.1e-15·‖Y‖² over fitted L ∈ [120, 1000],
    K ∈ [3, 12] and t up to 1000 at 20–60 dB; taken as 5e-15·‖Y‖², it moves
    RE by at most 5e-15 / (2 RE²) of itself, 1e-12 at RE = 0.05.  Below
    that, RE² < ``RE_IDENTITY_SHARE`` = 2.5e-3, and whenever C or S has a
    negative entry (the terms are then not bounded by the norms), the
    residual Y − C Sᵀ is formed and the value equals
    ``np.linalg.norm(y - c @ s.T) / np.linalg.norm(y)`` bit for bit.
    """
    y = np.asarray(spectra_rows, dtype=np.float64)
    c = np.asarray(concentrations)
    s = np.asarray(endmembers, dtype=np.float64)
    flat = y.ravel(order="K")
    energy = float(flat @ flat)  # as np.linalg.norm(y) squares it
    if energy == 0.0:
        raise ValueError("reconstruction error is undefined for all-zero data")
    if c.min() >= 0.0 and s.min() >= 0.0:
        share = (energy - 2.0 * np.vdot(y @ s, c) + np.vdot(c @ (s.T @ s), c)) / energy
        if share >= RE_IDENTITY_SHARE:
            return math.sqrt(share)
    # one t×L temporary: the norm of (c sᵀ − y) equals that of (y − c sᵀ) bit for bit
    residual = c @ s.T
    residual -= y
    return float(np.linalg.norm(residual)) / math.sqrt(energy)


def pca_lower_bound(spectra_rows: SpectraMatrix | FloatArray, n_components: int) -> float:
    """Relative error of the best rank-K linear reconstruction.

    Projects the rows onto the span of the first K right singular vectors;
    the data is not mean-centered, matching the reconstruction error
    definition above.
    """
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


# A trace has one column per MetricRecord field: t, then the metrics as
# format_float writes them ("nan" stands for None in a field that may be None).
TRACE_COLUMNS = tuple(f.name for f in fields(MetricRecord))
TRACE_HEADER = ",".join(TRACE_COLUMNS)
# Per metric column: whether its field may be None, so that "nan" reads as None.
_MAY_BE_NONE = [type(None) in get_args(h) for h in get_type_hints(MetricRecord).values()][1:]


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
    metrics = attrgetter(*TRACE_COLUMNS[1:])
    lines.extend(",".join([str(rec.t), *map(format_float, metrics(rec))]) for rec in records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(
    path: str | os.PathLike[str],
) -> tuple[tuple[MetricRecord, ...], dict[str, str]]:
    """Read a trace written by :func:`write_trace_csv`; its header line is required."""
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
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}: line {line_no}: expected {len(TRACE_COLUMNS)} fields")
        try:
            values = [float(cell) for cell in cells[1:]]
            metrics = (
                None if may_be_none and np.isnan(v) else v
                for v, may_be_none in zip(values, _MAY_BE_NONE)
            )
            records.append(MetricRecord(int(cells[0]), *metrics))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    if not body_seen:
        raise ValueError(f"{path}: missing header")
    return tuple(records), comments
