"""Tests for the typed matrices and the headered-CSV persistence layer."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kfunmix import datamodel
from kfunmix.datamodel import (
    NONNEG_TOL,
    ConcentrationMatrix,
    DatasetBundle,
    EndmemberMatrix,
    SpectraMatrix,
    format_float,
    load_dataset,
    load_matrix_csv,
    save_dataset,
    save_matrix_csv,
)
from kfunmix.abundance import estimate_concentration, estimate_concentrations
from kfunmix.fourier import build_basis, select_num_harmonics
from kfunmix.kalman import FilterState
from kfunmix.mcrals import McrConfig, mcr_als, pca_nonneg_init
from kfunmix.metrics import align_components, asad, reconstruction_error, rmse_concentrations
from kfunmix.pipeline import PipelineConfig, init_pipeline
from kfunmix.protocols import P2Config, phasor_embedding, protocol_p2
from kfunmix.regression import build_regressor_set
from kfunmix.synthdata import SynthConfig, estimate_noise_variance, generate_dataset
from kfunmix.vca import vca


class TestSpectraMatrix:
    def test_accepts_minimal_shape(self):
        m = SpectraMatrix(np.array([[1.0, 2.0]]))
        assert m.n_spectra == 1
        assert m.n_channels == 2

    def test_coerces_to_float64(self):
        m = SpectraMatrix(np.array([[1, 2], [3, 4]]))
        assert m.values.dtype == np.float64

    def test_rejects_single_channel(self):
        with pytest.raises(ValueError, match="at least 1x2"):
            SpectraMatrix(np.ones((3, 1)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            SpectraMatrix(np.ones(4))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="spectra row 0 is not finite"):
            SpectraMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="spectra row 0 is not finite"):
            SpectraMatrix(np.array([[np.inf, 1.0]]))

    def test_built_from_a_wrapper_keeps_its_checked_values(self, monkeypatch):
        checked = SpectraMatrix(np.array([[1.0, 2.0]]))
        monkeypatch.setattr(datamodel, "_as_float_matrix", None)  # any new check would fail
        assert SpectraMatrix(checked).values is checked.values


class TestConcentrationMatrix:
    def test_simplex_rows_accepted(self):
        c = ConcentrationMatrix(np.array([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]]))
        assert c.n_spectra == 2
        assert c.n_endmembers == 3

    def test_tiny_negative_within_tolerance(self):
        ConcentrationMatrix(np.array([[1.0 + 5e-10, -5e-10]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="must be >="):
            ConcentrationMatrix(np.array([[1.1, -0.1]]))

    def test_rejects_broken_closure(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConcentrationMatrix(np.array([[0.6, 0.6]]))

    def test_closure_tolerance_boundary(self):
        ConcentrationMatrix(np.array([[0.5 + 4e-7, 0.5 + 4e-7]]))


class TestEndmemberMatrix:
    def test_columns_are_components(self):
        s = EndmemberMatrix(np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]]))
        assert s.n_channels == 3
        assert s.n_endmembers == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >="):
            EndmemberMatrix(np.array([[1.0], [-0.5]]))

    def test_rejects_all_zero_column(self):
        with pytest.raises(ValueError, match="all-zero column"):
            EndmemberMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))


def previous_endmember_check(values):
    """EndmemberMatrix validation as four separate predicates, before it
    took one column-magnitude pass and one minimum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"endmembers must be 2-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("endmembers contains non-finite entries")
    if np.min(arr) < -NONNEG_TOL:
        raise ValueError(f"endmember entries must be >= -{NONNEG_TOL}, found {np.min(arr)}")
    col_max = np.max(np.abs(arr), axis=0)
    if np.any(col_max == 0.0):
        raise ValueError("endmember matrix has an all-zero column")


def previous_filter_state_check(mean, matrix):
    """FilterState validation through NumPy's function wrappers."""
    mean = np.asarray(mean, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if mean.ndim != 2:
        raise ValueError("state mean must be a (D, K) matrix")
    if not np.all(np.isfinite(mean)):
        raise ValueError("state mean contains non-finite entries")
    n_columns = mean.shape[1]
    if matrix.shape != (n_columns, n_columns):
        raise ValueError(f"matrix shape {matrix.shape} does not match K = {n_columns} state columns")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ValueError("matrix is not symmetric")


def outcome(check, *args):
    """None when ``check`` accepts, else the type and message it raised."""
    try:
        check(*args)
    except Exception as err:  # noqa: BLE001 - the outcome is what is compared
        return type(err), str(err)
    return None


def with_entry(base, index, value):
    out = np.array(base, dtype=np.float64)
    out[index] = value
    return out


ENDMEMBERS = np.array([[1.0, 0.2, 0.0], [0.5, 0.0, 0.3], [0.0, 0.7, 0.9], [0.4, 0.1, 0.2]])
ZERO_COLUMN = with_entry(ENDMEMBERS, (slice(None), 1), 0.0)
ENDMEMBER_TABLE = {
    "valid": ENDMEMBERS,
    "fortran-ordered": np.asfortranarray(ENDMEMBERS),
    "single-column": ENDMEMBERS[:, :1],
    "integer": np.array([[1, 0], [2, 3]]),
    **{
        f"{name}-at-{index}": with_entry(ENDMEMBERS, index, value)
        for name, value in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf))
        for index in ((0, 0), (1, 1), (3, 2), (2, 0))
    },
    "nan-and-negative": with_entry(with_entry(ENDMEMBERS, (0, 0), -1.0), (3, 2), np.nan),
    "+inf-in-zero-column": with_entry(ZERO_COLUMN, (2, 1), np.inf),
    "-inf-and-nan": with_entry(with_entry(ENDMEMBERS, (0, 1), -np.inf), (1, 0), np.nan),
    "entry-at--2e-9": with_entry(ENDMEMBERS, (1, 2), -2e-9),
    "entry-at--1e-9": with_entry(ENDMEMBERS, (1, 2), -1e-9),
    "all-zero-column": ZERO_COLUMN,
    "negative-zero-column": with_entry(ZERO_COLUMN, (slice(None), 1), -0.0),
    "zero-column-holding--1e-10": with_entry(ZERO_COLUMN, (3, 1), -1e-10),
    "zero-column-and--2e-9": with_entry(ZERO_COLUMN, (0, 0), -2e-9),
    "vector": ENDMEMBERS[:, 0],
    "three-d": ENDMEMBERS[None],
    "no-rows": np.zeros((0, 3)),
    "no-columns": np.zeros((4, 0)),
}

STATE_MEAN = np.arange(12.0).reshape(4, 3)
STATE_MATRIX = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
FILTER_STATE_TABLE = {
    "valid": (STATE_MEAN, STATE_MATRIX),
    "asymmetry-within-1e-10": (STATE_MEAN, with_entry(STATE_MATRIX, (0, 1), 0.5 + 5e-11)),
    "asymmetric": (STATE_MEAN, with_entry(STATE_MATRIX, (0, 1), 0.5 + 1e-9)),
    "mean-vector": (STATE_MEAN[0], STATE_MATRIX),
    "wrong-matrix-shape": (STATE_MEAN, STATE_MATRIX[:2, :2]),
    **{
        f"mean-{name}-at-{index}": (with_entry(STATE_MEAN, index, value), STATE_MATRIX)
        for name, value in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf))
        for index in ((0, 0), (3, 2))
    },
    **{
        f"matrix-{name}-at-{index}": (STATE_MEAN, with_entry(STATE_MATRIX, index, value))
        for name, value in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf))
        for index in ((0, 0), (0, 2), (2, 1))
    },
    "matrix-nan-and-asymmetric": (
        STATE_MEAN,
        with_entry(with_entry(STATE_MATRIX, (1, 1), np.nan), (0, 1), 9.0),
    ),
}


WRAPPERS = (
    SpectraMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])),
    ConcentrationMatrix(np.array([[0.25, 0.75], [1.0, 0.0]])),
    EndmemberMatrix(np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 1.0]])),
)


class TestArrayProtocol:
    # NumPy 2 passes `copy` only when the caller sets it, and falls back with
    # a DeprecationWarning when `__array__` does not take it.
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: type(w).__name__)
    def test_converts_itself(self, wrapper):
        assert np.asarray(wrapper) is wrapper.values
        assert np.asarray(wrapper, dtype=np.float64) is wrapper.values
        narrow = np.asarray(wrapper, dtype=np.float32)
        assert narrow.dtype == np.float32
        np.testing.assert_array_equal(narrow, wrapper.values.astype(np.float32))
        copied = np.array(wrapper, copy=True)
        assert not np.shares_memory(copied, wrapper.values)
        np.testing.assert_array_equal(copied, wrapper.values)
        # The calls NumPy makes: 1.x passes no `copy`, 2.x passes it when the
        # caller sets it.  Made directly so every NumPy version runs them all.
        values = wrapper.values
        assert wrapper.__array__() is values
        assert wrapper.__array__(np.float64) is values
        assert wrapper.__array__(None, copy=None) is values
        assert wrapper.__array__(None, copy=False) is values
        assert wrapper.__array__(np.float64, copy=False) is values
        for copied in (wrapper.__array__(None, copy=True), wrapper.__array__(np.float64, copy=True)):
            assert copied.dtype == np.float64
            assert not np.shares_memory(copied, values)
            np.testing.assert_array_equal(copied, values)
        for copy in (None, True):
            narrow = wrapper.__array__(np.float32, copy=copy)
            assert narrow.dtype == np.float32
            np.testing.assert_array_equal(narrow, values.astype(np.float32))
        with pytest.raises(ValueError, match="needs a copy"):
            wrapper.__array__(np.float32, copy=False)


def assert_same(a, b):
    """Equal field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


_DATA = generate_dataset(
    SynthConfig(n_spectra=40, n_channels=32, n_endmembers=3, snr_db=30.0, seed=0)
)
_Y, _C, _S = _DATA.spectra, _DATA.concentrations, _DATA.endmembers
_S_EST = EndmemberMatrix(_S.values + 0.05 * np.linspace(0.0, 1.0, 96).reshape(32, 3))
_C_EST = ConcentrationMatrix(estimate_concentrations(_Y.values, _S_EST.values))
_Y_INIT = SpectraMatrix(_Y.values[:10])
_BASIS = build_basis(32, 4)

# Each entry calls one public function with its matrix arguments passed
# through `u`, which either keeps a wrapper or takes its `.values`.
ENTRY_POINTS = {
    "estimate_concentration": lambda u: estimate_concentration(_Y.values[0], u(_S)),
    "estimate_concentrations": lambda u: estimate_concentrations(u(_Y), u(_S)),
    "asad": lambda u: asad(u(_S_EST), u(_S)),
    "align_components": lambda u: align_components(u(_S_EST), u(_S)),
    "reconstruction_error": lambda u: reconstruction_error(u(_Y), u(_C_EST), u(_S_EST)),
    "rmse_concentrations": lambda u: rmse_concentrations(
        u(_C_EST), u(_C), align_components(_S_EST, _S)
    ),
    "select_num_harmonics": lambda u: select_num_harmonics(u(_Y), 99.0),
    "build_regressor_set": lambda u: build_regressor_set(u(_Y_INIT), _BASIS),
    "vca": lambda u: vca(u(_Y), 3, seed=0),
    "pca_nonneg_init": lambda u: pca_nonneg_init(u(_Y), 3, seed=0),
    "mcr_als": lambda u: mcr_als(u(_Y), McrConfig(init=_S_EST)),
    "phasor_embedding": lambda u: phasor_embedding(u(_Y), _BASIS),
    "protocol_p2": lambda u: protocol_p2(u(_Y), _BASIS, P2Config(20, 5, seed=0)),
    "estimate_noise_variance": lambda u: estimate_noise_variance(u(_Y)),
    "init_pipeline": lambda u: init_pipeline(
        u(_Y_INIT), PipelineConfig(n_endmembers=3, n_init=10, n_harmonics=4)
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_takes_wrapper_or_values(name):
    call = ENTRY_POINTS[name]
    assert_same(call(lambda w: w), call(lambda w: w.values))


# The entry points above that take a block of row spectra at set-up or in
# a baseline; a `u` that ignores its argument hands each one a bad block.
SPECTRA_ENTRY_POINTS = {
    name: ENTRY_POINTS[name]
    for name in (
        "select_num_harmonics", "build_regressor_set", "vca", "pca_nonneg_init",
        "mcr_als", "protocol_p2", "estimate_noise_variance", "init_pipeline",
    )
}


@pytest.mark.parametrize("name", sorted(SPECTRA_ENTRY_POINTS))
@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "1-D"])
def test_spectra_entry_point_names_the_first_bad_row(name, case):
    """One rule, one message: SpectraMatrix's, whichever function is called."""
    rows = _Y_INIT.values.copy()
    rows[4, 7] = rows[8, 0] = np.nan if case == "1-D" else float(case)
    message = "spectra row 4 is not finite"
    if case == "1-D":
        rows = rows[4]
        message = "spectra must be 2-dimensional, got ndim=1"
        if name == "estimate_noise_variance":  # which reads one spectrum as one row
            message = "spectra row 0 is not finite"
    with pytest.raises(ValueError) as err:
        SPECTRA_ENTRY_POINTS[name](lambda _: rows)
    assert str(err.value) == message


def test_init_pipeline_checks_its_rows_once(monkeypatch):
    """The callees take init_pipeline's checked wrapper; each still checks a
    raw array itself (test_spectra_entry_point_names_the_first_bad_row)."""
    checks = []
    check = datamodel._as_float_matrix
    def counted(values, name):
        checks.append(name)
        return check(values, name)

    monkeypatch.setattr(datamodel, "_as_float_matrix", counted)
    ENTRY_POINTS["init_pipeline"](lambda w: w.values)
    assert checks == ["spectra"]


class TestChecksMatchThePreviousPredicates:
    """The leaner per-step checks accept and reject exactly what the
    previous predicates did, with the same messages."""

    @pytest.mark.parametrize("name", list(ENDMEMBER_TABLE))
    def test_endmember_matrix(self, name):
        values = ENDMEMBER_TABLE[name]
        want = outcome(previous_endmember_check, values)
        assert outcome(EndmemberMatrix, values) == want

    @pytest.mark.parametrize("name", list(FILTER_STATE_TABLE))
    def test_filter_state(self, name):
        mean, matrix = FILTER_STATE_TABLE[name]
        want = outcome(previous_filter_state_check, mean, matrix)
        assert outcome(FilterState, mean, matrix) == want

    def test_tables_reach_every_outcome(self):
        """Each table holds an accepted input and inputs for every error."""
        cases = (
            (
                [outcome(EndmemberMatrix, v) for v in ENDMEMBER_TABLE.values()],
                ("endmembers must be 2-dimensional", "endmembers contains non-finite",
                 "endmember entries must be >=", "endmember matrix has an all-zero",
                 "zero-size array"),
            ),
            (
                [outcome(FilterState, *v) for v in FILTER_STATE_TABLE.values()],
                ("state mean must be", "state mean contains non-finite", "matrix shape",
                 "matrix contains non-finite", "matrix is not symmetric"),
            ),
        )
        for outcomes, prefixes in cases:
            assert None in outcomes
            messages = [o[1] for o in outcomes if o is not None]
            for prefix in prefixes:
                assert any(m.startswith(prefix) for m in messages), prefix


class TestDatasetBundle:
    def _bundle(self):
        y = SpectraMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        c = ConcentrationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        s = EndmemberMatrix(np.eye(2))
        return DatasetBundle(y, c, s, 0.01, 7)

    def test_consistent_bundle(self):
        b = self._bundle()
        assert b.seed == 7

    def test_rejects_row_mismatch(self):
        y = SpectraMatrix(np.ones((3, 2)))
        c = ConcentrationMatrix(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="do not match spectra rows"):
            DatasetBundle(y, c, None, 0.0, 0)

    def test_rejects_channel_mismatch(self):
        y = SpectraMatrix(np.ones((2, 3)))
        s = EndmemberMatrix(np.ones((2, 1)))
        with pytest.raises(ValueError, match="channels do not match"):
            DatasetBundle(y, None, s, 0.0, 0)

    def test_rejects_component_count_mismatch(self):
        y = SpectraMatrix(np.ones((2, 2)))
        c = ConcentrationMatrix(np.array([[1.0], [1.0]]))
        s = EndmemberMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError, match="counts disagree"):
            DatasetBundle(y, c, s, 0.0, 0)

    def test_rejects_negative_noise(self):
        y = SpectraMatrix(np.ones((1, 2)))
        with pytest.raises(ValueError, match="noise_variance_true"):
            DatasetBundle(y, None, None, -1.0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_or_negative_noise(self, bad):
        y = SpectraMatrix(np.ones((1, 2)))
        with pytest.raises(ValueError, match="noise_variance_true must be finite and >= 0"):
            DatasetBundle(y, None, None, bad, 0)


class TestMatrixCsv:
    def test_identity_file_content(self, tmp_path):
        """The on-disk format is the dimension header then plain rows."""
        path = tmp_path / "m.csv"
        save_matrix_csv(np.eye(2), path)
        assert path.read_text() == "2,2\n1,0\n0,1\n"

    def test_parse_simplex_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,3\n0.5,0.25,0.25\n")
        out = load_matrix_csv(path)
        np.testing.assert_array_equal(out, [[0.5, 0.25, 0.25]])

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# provenance note\n1,2\n# midway\n3,4\n")
        np.testing.assert_array_equal(load_matrix_csv(path), [[3.0, 4.0]])

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_matrix_csv(values, first)
        save_matrix_csv(load_matrix_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("case", ["edge-values", "edge-column", "random"])
    def test_matches_a_format_float_loop(self, tmp_path, case):
        """The written bytes equal a per-entry format_float join, row by row."""
        edge = [-0.0, 5e-324, 1e-310, np.finfo(np.float64).max, 1 / 3, 2.5e-17, 1.2e17]
        rng = np.random.default_rng(3)
        values = {
            "edge-values": np.array([edge]),
            "edge-column": np.array([edge]).T,
            "random": rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 300, size=(40, 6)),
        }[case]
        lines = [f"{values.shape[0]},{values.shape[1]}"]
        lines.extend(",".join(format_float(v) for v in row) for row in values)
        path = tmp_path / "m.csv"
        save_matrix_csv(values, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="line 1: missing header"):
            load_matrix_csv(path)

    def test_bad_header_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2\n1\n2\n")
        with pytest.raises(ValueError, match="line 1: header must be 'rows,cols'"):
            load_matrix_csv(path)

    def test_non_integer_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("two,2\n1,2\n")
        with pytest.raises(ValueError, match="non-integer header fields"):
            load_matrix_csv(path)

    def test_zero_dimension_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2\n")
        with pytest.raises(ValueError, match="dimensions must be >= 1"):
            load_matrix_csv(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,2\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="declares 3 rows, file has 2"):
            load_matrix_csv(path)

    def test_field_count_reported_with_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="line 3: expected 2 fields, got 3"):
            load_matrix_csv(path)

    def test_non_numeric_token_reported_with_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2\n1,2\nx,4\n")
        with pytest.raises(ValueError, match="line 3: non-numeric token 'x'"):
            load_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("# a\n# b\n2,2\n1,2\n# c\n# d\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("2,2\r\n 1 , 2\r\n3\t,4 \r\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("1,3\nnan,inf,-inf\n", [[np.nan, np.inf, -np.inf]]),
            ("1,1\n7\n", [[7.0]]),
            ("1,3\n1,2.5e-3,-3\n", [[1.0, 2.5e-3, -3.0]]),
            ("3,1\n1\n2\n3\n", [[1.0], [2.0], [3.0]]),
            ("2,2\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
        ],
        ids=["comments", "crlf-and-spaces", "non-finite", "1x1", "1xn", "nx1", "no-final-newline"],
    )
    def test_parses(self, tmp_path, text, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        out = load_matrix_csv(path)
        assert out.dtype == np.float64 and out.shape == np.shape(expected)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3,2\n1,2\n\n3,4\n", "line 3: expected 2 fields, got 1"),
            ("3,1\n1\n\n3\n", "line 3: non-numeric token ''"),
            ("2,1\n1\n   \n", "line 3: non-numeric token '   '"),
            ("# c\n2,2\n# c\n1,2\n# c\n3, x\n", "line 6: non-numeric token ' x'"),
            ("2,2\r\n1,2\r\n3,x\r\n", "line 3: non-numeric token 'x'"),
            # float() takes digit-group underscores and non-ASCII digits; the parser does not.
            ("1,1\n1_0\n", "line 2: non-numeric token '1_0'"),
            ("1,1\n\u0661\n", "line 2: non-numeric token '\u0661'"),
            # Of two defects, the first in the file is reported.
            ("2,2\n1,2\nx,4\n5,6\n", "line 3: non-numeric token 'x'"),
            ("2,2\n", "line 1: header declares 2 rows, file has 0"),
        ],
        ids=[
            "blank-line-2-cols", "blank-line-1-col", "spaces-only", "after-comments", "crlf",
            "underscore", "arabic-indic-digit", "first-defect-wins", "no-body",
        ],
    )
    def test_malformed_body_reported_with_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_matrix_csv(path)

    def test_matches_a_float_loop_on_varied_token_forms(self, tmp_path):
        """The C parser agrees bit for bit with a float() loop over the tokens."""
        rng = np.random.default_rng(4)
        values = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 300, size=(40, 6))
        forms = ("{:.17g}", "{:.3e}", "{:+.6f}", "{!r}", " {} ", "{:E}", "{:.0f}.")
        tokens = [[forms[(r + c) % len(forms)].format(v) for c, v in enumerate(row)]
                  for r, row in enumerate(values.tolist())]
        path = tmp_path / "m.csv"
        path.write_text("40,6\n" + "".join(",".join(row) + "\n" for row in tokens))
        reference = np.array([[float(tok) for tok in row] for row in tokens])
        assert load_matrix_csv(path).tobytes() == reference.tobytes()

    def test_long_bad_token_reported_whole(self, tmp_path):
        token = "9" * 120 + "x"
        path = tmp_path / "m.csv"
        path.write_text(f"1,2\n1,{token}\n")
        with pytest.raises(ValueError, match=f"line 2: non-numeric token '{token}'$"):
            load_matrix_csv(path)

    def test_bad_token_past_a_parser_chunk_maps_to_its_line(self, tmp_path):
        """Row 50 005 lies past NumPy's 50 000-row loadtxt chunk size, and two
        comment lines shift its line number: the reported line is still right."""
        n = 50_010
        body = ["1.5"] * n
        body[50_005] = "oops"
        lines = ["# top", f"{n},1", *body[:100], "# mid", *body[100:]]
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 50009: non-numeric token 'oops'"):
            load_matrix_csv(path)

    @settings(max_examples=50, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
            ),
        )
    )
    def test_round_trip_is_exact(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        save_matrix_csv(values, path)
        np.testing.assert_array_equal(load_matrix_csv(path), values)


class TestFormatFloat:
    def test_round_trips_float64(self):
        for x in (0.1, 1 / 3, 1e-300, 123456789.123456789, -0.0):
            assert float(format_float(x)) == x

    def test_integers_stay_short(self):
        assert format_float(1.0) == "1"

    def test_none_reads_nan(self):
        assert format_float(None) == "nan"


class TestDatasetIo:
    def _bundle(self):
        y = SpectraMatrix(np.array([[1.0, 0.0], [0.25, 0.75]]))
        c = ConcentrationMatrix(np.array([[1.0, 0.0], [0.25, 0.75]]))
        s = EndmemberMatrix(np.eye(2))
        return DatasetBundle(y, c, s, 0.04, 3)

    def test_round_trip_full(self, tmp_path):
        save_dataset(self._bundle(), tmp_path / "d")
        out = load_dataset(tmp_path / "d")
        np.testing.assert_array_equal(out.spectra.values, [[1.0, 0.0], [0.25, 0.75]])
        np.testing.assert_array_equal(out.endmembers.values, np.eye(2))
        assert out.noise_variance_true == 0.04
        assert out.seed == 3

    def test_truth_files_optional(self, tmp_path):
        base = self._bundle()
        save_dataset(DatasetBundle(base.spectra, None, None, 0.0, 0), tmp_path / "d")
        out = load_dataset(tmp_path / "d")
        assert out.concentrations is None
        assert out.endmembers is None

    def test_missing_spectra_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing spectra file"):
            load_dataset(tmp_path)

    def test_unknown_meta_key(self, tmp_path):
        save_dataset(self._bundle(), tmp_path / "d")
        meta = tmp_path / "d" / "meta.csv"
        meta.write_text(meta.read_text() + "flavor,unknown\n")
        with pytest.raises(ValueError, match="line 3: unknown key 'flavor'"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "meta_text, line_no",
        [
            ("seed,abc\nnoise_variance_true,0.04\n", 1),
            ("seed,3\nnoise_variance_true,abc\n", 2),
            ("seed,3\nnoise_variance_true,-1\n", 2),
            ("seed,3\nnoise_variance_true,nan\n", 2),
        ],
        ids=["seed", "noise-variance", "negative-noise-variance", "nan-noise-variance"],
    )
    def test_bad_meta_value_names_path_and_line(self, tmp_path, meta_text, line_no):
        save_dataset(self._bundle(), tmp_path / "d")
        meta = tmp_path / "d" / "meta.csv"
        meta.write_text(meta_text)
        with pytest.raises(ValueError, match=re.escape(f"{meta}: line {line_no}: ")):
            load_dataset(tmp_path / "d")
