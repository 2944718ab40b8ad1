"""Core data containers and CSV persistence.

All matrices are float64 numpy arrays wrapped in frozen dataclasses that
validate their defining invariants on construction.  Each wrapper converts
itself: ``np.asarray(w)`` is ``w.values``, so every function that takes a
wrapper or a plain array unwraps both the same way.  Shapes follow the
row-per-observation convention: spectra are (n_spectra, n_channels),
concentrations are (n_spectra, n_endmembers), endmembers are stored
column-wise as (n_channels, n_endmembers).
"""

from __future__ import annotations

import itertools
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]

# Global tolerances: nonnegativity and simplex closure are checked everywhere
# with these two values so the whole package agrees on what "feasible" means.
NONNEG_TOL = 1e-9
CLOSURE_TOL = 1e-6
# Conditioning policy of every small solve: a condition number above
# COND_LIMIT counts as singular, one above COND_WARN earns a warning, and
# RIDGE on the diagonal keeps near-singular Gram matrices solvable.
COND_LIMIT = 1e12
COND_WARN = 1e8
RIDGE = 1e-10

FLOAT_FORMAT = "%.17g"  # 17 significant digits round-trip any float64 exactly

# How np.loadtxt reports a token it cannot convert: 0-based data row, 1-based column.
_PARSER_ERROR = re.compile(r"could not convert string .* at row (\d+), column (\d+)\.", re.S)


class NumericalError(RuntimeError):
    """Raised when a computation meets non-finite input or a singular system,
    or leaves no usable estimate."""


def _as_float_matrix(values: npt.ArrayLike, name: str) -> FloatArray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        bad = int(np.argmin(np.isfinite(arr).all(axis=1)))
        raise ValueError(f"{name} row {bad} is not finite")
    return arr


class _Matrix:
    """NumPy array protocol shared by the matrix wrappers."""

    values: FloatArray

    def __array__(self, dtype: npt.DTypeLike = None, copy: bool | None = None) -> np.ndarray:
        # `values` itself unless a dtype change or a copy is asked for.  NumPy
        # 1.x calls this without `copy` and rejects `np.array(..., copy=None)`,
        # so the copy rule is applied here rather than handed on.
        arr = self.values if dtype is None else self.values.astype(dtype, copy=False)
        if arr is self.values:
            return arr.copy(order="K") if copy else arr
        if copy is False:
            raise ValueError(f"{type(self).__name__} to {arr.dtype} needs a copy")
        return arr


@dataclass(frozen=True)
class SpectraMatrix(_Matrix):
    """Measured spectra, one row per observation; the input rule of every
    set-up and baseline function that takes a block of row spectra.  Built
    from another SpectraMatrix, it takes that one's checked values as they
    are, so a wrapper handed on through several functions is scanned once."""

    values: FloatArray

    def __post_init__(self) -> None:
        if isinstance(self.values, SpectraMatrix):
            object.__setattr__(self, "values", self.values.values)
            return
        arr = _as_float_matrix(self.values, "spectra")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError(f"spectra must be at least 1x2, got {arr.shape}")
        object.__setattr__(self, "values", arr)

    def rows(self, index: slice | list[int]) -> SpectraMatrix:
        """The rows ``index`` picks, a slice (which gives a view) or a list of
        row numbers, as a SpectraMatrix.  Rows of checked values are checked,
        so they are not scanned again."""
        picked = self.values[index]
        if picked.ndim != 2 or picked.shape[0] < 1 or picked.shape[1] != self.n_channels:
            raise ValueError(f"row selection of shape {picked.shape} from {self.values.shape} spectra")
        selected = object.__new__(SpectraMatrix)
        object.__setattr__(selected, "values", picked)
        return selected

    @property
    def n_spectra(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ConcentrationMatrix(_Matrix):
    """Per-observation abundances, each row on the probability simplex."""

    values: FloatArray

    def __post_init__(self) -> None:
        arr = _as_float_matrix(self.values, "concentrations")
        smallest = arr.min()
        if smallest < -NONNEG_TOL:
            raise ValueError(
                f"concentration entries must be >= -{NONNEG_TOL}, found {smallest}"
            )
        worst = np.abs(arr.sum(axis=1) - 1.0).max()
        if worst > CLOSURE_TOL:
            raise ValueError(
                f"concentration rows must sum to 1 within {CLOSURE_TOL}, "
                f"worst deviation {worst}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def n_spectra(self) -> int:
        return self.values.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EndmemberMatrix(_Matrix):
    """Pure-component spectra stored as columns, nonnegative."""

    values: FloatArray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"endmembers must be 2-dimensional, got ndim={arr.ndim}")
        # Two passes check all three invariants: a NaN or an infinity reaches
        # its column's largest magnitude, which is also zero only for an
        # all-zero column.  The magnitudes are taken on a (K, L) C-ordered
        # copy, so each column reduces over contiguous memory.
        smallest = arr.min()
        col_max = np.abs(arr.T, order="C").max(axis=1)
        if not np.isfinite(col_max).all():
            raise ValueError("endmembers contains non-finite entries")
        if smallest < -NONNEG_TOL:
            raise ValueError(
                f"endmember entries must be >= -{NONNEG_TOL}, found {smallest}"
            )
        if (col_max == 0.0).any():
            raise ValueError("endmember matrix has an all-zero column")
        object.__setattr__(self, "values", arr)

    @classmethod
    def positive_part(cls, values: npt.ArrayLike) -> EndmemberMatrix:
        """max(values, 0), C-ordered, checked on the column maxima of ``values`` alone.

        The positive part is nonnegative by construction.  Column k of it is
        finite exactly when the maximum of column k is, since a NaN or +inf
        reaches that maximum and -inf is clamped away, and it is all zero
        exactly when that maximum is <= 0.  So one reduction settles every
        invariant; it reads contiguous columns of a Fortran-ordered matrix.

        Raises
        ------
        NumericalError
            If a column has no positive entry, so that clamping collapses it
            to zero: a fit that leaves no usable endmember.
        ValueError
            If ``values`` is not a non-empty matrix, or holds a NaN or +inf.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"endmembers must be a non-empty matrix, got shape {arr.shape}")
        peak = arr.max(axis=0)
        if not (peak > 0.0).all():  # a column with no positive entry, or a NaN
            dead = np.flatnonzero(peak <= 0.0)
            if dead.size:
                raise NumericalError(
                    f"the nonnegative part collapsed endmember column {int(dead[0])} to zero"
                )
        if not np.isfinite(peak).all():
            raise ValueError("endmembers contains non-finite entries")
        clamped = object.__new__(cls)
        # A C-ordered copy, then the clamp: faster than a C-ordered clamp of
        # a Fortran-ordered matrix.
        object.__setattr__(clamped, "values", np.maximum(np.ascontiguousarray(arr), 0.0))
        return clamped

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CovarianceMatrix(_Matrix):
    """A K x K state covariance, finite and symmetric to within 1e-10.

    Checked once, where it is made: built from another CovarianceMatrix, it
    takes that one's values as they are, and :meth:`symmetric_part` makes
    one symmetric bit for bit, so only its finiteness is checked there.
    """

    values: FloatArray

    def __post_init__(self) -> None:
        if isinstance(self.values, CovarianceMatrix):
            object.__setattr__(self, "values", self.values.values)
            return
        matrix = np.asarray(self.values, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"covariance must be a square matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite entries")
        if np.abs(matrix - matrix.T).max() > 1e-10:
            raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "values", matrix)

    @classmethod
    def symmetric_part(cls, matrix: FloatArray) -> CovarianceMatrix:
        """0.5 (M + M^T) of a square float matrix M.  It is symmetric bit for
        bit, since IEEE addition commutes, so only its finiteness is checked."""
        sym = 0.5 * (matrix + matrix.T)
        if not np.isfinite(sym).all():
            raise ValueError("matrix contains non-finite entries")
        covariance = object.__new__(cls)
        object.__setattr__(covariance, "values", sym)
        return covariance


@dataclass(frozen=True)
class DatasetBundle:
    """A dataset plus whatever ground truth is known about it."""

    spectra: SpectraMatrix
    concentrations: ConcentrationMatrix | None
    endmembers: EndmemberMatrix | None
    noise_variance_true: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_variance_true < np.inf:
            raise ValueError("noise_variance_true must be finite and >= 0")
        if self.concentrations is not None:
            if self.concentrations.n_spectra != self.spectra.n_spectra:
                raise ValueError("concentration rows do not match spectra rows")
        if self.endmembers is not None:
            if self.endmembers.n_channels != self.spectra.n_channels:
                raise ValueError("endmember channels do not match spectra channels")
        if self.concentrations is not None and self.endmembers is not None:
            if self.concentrations.n_endmembers != self.endmembers.n_endmembers:
                raise ValueError("concentration and endmember counts disagree")


def format_float(x: float | None) -> str:
    return "nan" if x is None else FLOAT_FORMAT % x  # None reads as NaN does


def save_matrix_csv(values: npt.ArrayLike, path: str | os.PathLike[str]) -> None:
    """Write a matrix as headered CSV: first line `rows,cols`, then the rows."""
    arr = _as_float_matrix(values, "matrix")
    rows, cols = arr.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, arr, fmt=FLOAT_FORMAT, delimiter=",", header=f"{rows},{cols}", comments="")


def load_matrix_csv(path: str | os.PathLike[str]) -> FloatArray:
    """Read a headered CSV matrix, reporting malformed content by line number.

    Lines starting with ``#`` are skipped.  NumPy's C reader converts the
    tokens.  It takes what ``float()`` takes (decimal and exponent forms,
    ``nan``, ``inf``, whitespace around a token) except digit-group
    underscores and non-ASCII digits.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((n, line) for n, line in enumerate(fh, start=1) if not line.startswith("#"))
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: line 1: missing header")
        header_no, header = first[0], first[1].rstrip("\n")
        parts = header.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {header_no}: header must be 'rows,cols'")
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {header_no}: non-integer header fields {header!r}"
            ) from None
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: line {header_no}: header dimensions must be >= 1")

        line_nos: list[int] = []  # line number of each body row, for parser errors

        def body() -> Iterator[str]:
            for line_no, line in lines:
                line_nos.append(line_no)
                fields = line.count(",") + 1
                if fields != cols:
                    raise ValueError(
                        f"{path}: line {line_no}: expected {cols} fields, got {fields}"
                    )
                if line == "\n":  # one empty field, which the parser would skip
                    raise ValueError(f"{path}: line {line_no}: non-numeric token ''")
                yield line
            if len(line_nos) != rows:
                raise ValueError(
                    f"{path}: line {header_no}: header declares {rows} rows, "
                    f"file has {len(line_nos)}"
                )

        try:
            return np.loadtxt(body(), delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        except ValueError as exc:
            found = _PARSER_ERROR.fullmatch(str(exc))
            if found is None:
                raise
            line_no = line_nos[int(found[1])]
            fh.seek(0)
            line = next(itertools.islice(fh, line_no - 1, None)).rstrip("\n")
            token = line.split(",")[int(found[2]) - 1]
            raise ValueError(f"{path}: line {line_no}: non-numeric token {token!r}") from None


def save_dataset(bundle: DatasetBundle, directory: str | os.PathLike[str]) -> None:
    """Persist a bundle as a directory of CSV files (Y, optional C/S, meta)."""
    os.makedirs(directory, exist_ok=True)
    save_matrix_csv(bundle.spectra.values, os.path.join(directory, "Y.csv"))
    if bundle.concentrations is not None:
        save_matrix_csv(bundle.concentrations.values, os.path.join(directory, "C.csv"))
    if bundle.endmembers is not None:
        save_matrix_csv(bundle.endmembers.values, os.path.join(directory, "S.csv"))
    meta = [
        f"seed,{bundle.seed}",
        f"noise_variance_true,{format_float(bundle.noise_variance_true)}",
    ]
    with open(os.path.join(directory, "meta.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(meta) + "\n")


def load_dataset(directory: str | os.PathLike[str]) -> DatasetBundle:
    """Load a bundle saved by :func:`save_dataset`; C/S are optional."""
    y_path = os.path.join(directory, "Y.csv")
    if not os.path.exists(y_path):
        raise FileNotFoundError(f"{y_path}: missing spectra file")
    spectra = SpectraMatrix(load_matrix_csv(y_path))

    conc = None
    c_path = os.path.join(directory, "C.csv")
    if os.path.exists(c_path):
        conc = ConcentrationMatrix(load_matrix_csv(c_path))
    ends = None
    s_path = os.path.join(directory, "S.csv")
    if os.path.exists(s_path):
        ends = EndmemberMatrix(load_matrix_csv(s_path))

    seed = 0
    noise_var = 0.0
    meta_path = os.path.join(directory, "meta.csv")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh.read().splitlines(), start=1):
                if not line:
                    continue
                key, _, value = line.partition(",")
                if key not in ("seed", "noise_variance_true"):
                    raise ValueError(f"{meta_path}: line {line_no}: unknown key {key!r}")
                try:
                    if key == "seed":
                        seed = int(value)
                    else:
                        noise_var = float(value)
                except ValueError:
                    raise ValueError(
                        f"{meta_path}: line {line_no}: bad {key} value {value!r}"
                    ) from None
                if not 0.0 <= noise_var < np.inf:
                    raise ValueError(
                        f"{meta_path}: line {line_no}: noise_variance_true must be finite and >= 0"
                    )
    return DatasetBundle(spectra, conc, ends, noise_var, seed)
