"""Tests for evaluation metrics and the metric-trace CSV format."""
import itertools
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from kfunmix.datamodel import ConcentrationMatrix, EndmemberMatrix, SpectraMatrix
from kfunmix.metrics import (
    MetricRecord,
    align_components,
    asad,
    pca_lower_bound,
    rmse_concentrations,
    read_trace_csv,
    reconstruction_error,
    sad,
    write_trace_csv,
)


def oracle_angles(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-pair angle matrix from `sad`, the loop the metrics layer once ran."""
    k = truth.shape[1]
    cost = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            cost[i, j] = sad(est[:, j], truth[:, i])
    return cost


class TestSad:
    def test_identical_vectors(self):
        """Scaling by 2 is exact, so the unit vectors coincide and the angle is 0."""
        assert sad(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 0.0

    def test_angle_to_itself_is_exactly_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = rng.uniform(0.0, 1.0, size=200)
            assert sad(a, a) == 0.0
            assert sad(a, 2.0 * a) == 0.0
            assert sad(a, 3.0 * a) < 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 1e-7, 1e-9, 1e-12])
    def test_small_angles_are_accurate(self, eps):
        """The angle between e1 and e1 + eps e2 is atan(eps), far below the
        resolution of the arccos of a rounded cosine."""
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([1.0, eps, 0.0])
        want = np.degrees(np.arctan(eps))
        assert sad(a, b) == pytest.approx(want, rel=1e-12)
        assert sad(b, a) == pytest.approx(want, rel=1e-12)

    def test_orthogonal_vectors(self):
        assert abs(sad(np.array([1.0, 0.0]), np.array([0.0, 3.0])) - 90.0) < 1e-12

    def test_forty_five_degrees(self):
        assert abs(sad(np.array([1.0, 0.0]), np.array([1.0, 1.0])) - 45.0) < 1e-12

    def test_opposite_vectors_clamp_to_180(self):
        assert abs(sad(np.array([1.0, 1.0]), np.array([-1.0, -1.0])) - 180.0) < 1e-5

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vectors"):
            sad(np.zeros(3), np.ones(3))

    def test_rounding_near_parallel_stays_finite(self):
        v = np.array([1.0, 1e-8])
        assert 0.0 <= sad(v, v * (1.0 + 1e-15)) < 1e-3


class TestAlignComponents:
    def test_swapped_columns(self):
        truth = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.8]])
        est = truth[:, [1, 0]]
        perm = align_components(est, truth)
        np.testing.assert_array_equal(perm, [1, 0])
        for i in range(2):
            assert sad(est[:, perm[i]], truth[:, i]) < 1e-12

    def test_single_component(self):
        np.testing.assert_array_equal(
            align_components(np.ones((4, 1)), np.ones((4, 1))), [0]
        )

    def test_minimizes_total_angle_over_all_permutations(self):
        """Exhaustive check of the assignment against all 4! pairings."""
        rng = np.random.default_rng(0)
        est = rng.uniform(0.1, 1.0, size=(12, 4))
        truth = rng.uniform(0.1, 1.0, size=(12, 4))
        perm = align_components(est, truth)
        got = sum(sad(est[:, perm[i]], truth[:, i]) for i in range(4))
        best = min(
            sum(sad(est[:, p[i]], truth[:, i]) for i in range(4))
            for p in itertools.permutations(range(4))
        )
        assert abs(got - best) < 1e-10

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="component counts differ"):
            align_components(np.ones((4, 2)), np.ones((4, 3)))

    @pytest.mark.parametrize("metric", [align_components, asad])
    def test_channel_mismatch(self, metric):
        with pytest.raises(ValueError, match="channel counts differ"):
            metric(np.ones((200, 3)), np.ones((100, 3)))

    @pytest.mark.parametrize("metric", [align_components, asad])
    @pytest.mark.parametrize("zero_in", ["estimated", "truth"])
    def test_zero_column_rejected(self, metric, zero_in):
        est = np.ones((5, 3))
        truth = np.eye(5)[:, :3] + 0.1
        if zero_in == "estimated":
            est[:, 1] = 0.0
        else:
            truth[:, 2] = 0.0
        with pytest.raises(ValueError, match="zero vectors"):
            metric(est, truth)


class TestAngleMatrixOracle:
    """align_components and asad against the per-pair `sad` loop."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_per_pair_loop(self, k):
        rng = np.random.default_rng(100 + k)
        perms = np.array(list(itertools.permutations(range(k))))
        rows = np.arange(k)
        for n_channels in (2, 3, 7, 40, 400):
            for draw in (rng.uniform, rng.normal):
                est = draw(size=(n_channels, k))
                truth = draw(size=(n_channels, k))
                cost = oracle_angles(est, truth)
                _, oracle_perm = linear_sum_assignment(cost)  # rows come back as 0..k-1
                oracle_asad = float(np.mean(cost[rows, oracle_perm]))

                assert abs(asad(est, truth) - oracle_asad) < 1e-10
                totals = np.sort(cost[rows, perms].sum(axis=1))
                if k == 1 or totals[1] - totals[0] > 1e-6:
                    np.testing.assert_array_equal(align_components(est, truth), oracle_perm)


class TestAsad:
    def test_zero_for_permuted_scaled_copy(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0.1, 1.0, size=(20, 3))
        est = truth[:, [2, 0, 1]] * np.array([1.0, 3.0, 0.5])
        assert asad(est, truth) < 1e-5

    def test_known_average(self):
        truth = np.array([[1.0, 0.0], [0.0, 1.0]])
        est = np.array([[1.0, 1.0], [0.0, 1.0]])  # 0 and 45 degrees
        assert abs(asad(est, truth) - 22.5) < 1e-10

    def test_accepts_endmember_matrices(self):
        m = EndmemberMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))
        assert asad(m, m) < 1e-12

    def test_matrix_against_itself_is_exactly_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, size=(200, 3))
            assert asad(x, x) == 0.0
            assert np.array_equal(align_components(x, x), [0, 1, 2])


class TestRmse:
    def test_zero_for_aligned_copy(self):
        rng = np.random.default_rng(2)
        truth = rng.dirichlet(np.ones(3), size=10)
        est = truth[:, [1, 2, 0]]
        assert rmse_concentrations(est, truth, align_components(est, truth)) == 0.0

    def test_constant_offset_value(self):
        truth = np.zeros((4, 5))
        est = np.full((4, 5), 0.1)
        got = rmse_concentrations(est, truth, np.arange(5))
        assert abs(got - 0.1) < 1e-12

    def test_matches_formula(self):
        rng = np.random.default_rng(3)
        truth = rng.dirichlet(np.ones(3), size=7)
        est = rng.dirichlet(np.ones(3), size=7)
        perm = np.array([2, 0, 1])
        expected = np.sqrt(np.sum((truth - est[:, perm]) ** 2) / truth.size)
        assert abs(rmse_concentrations(est, truth, perm) - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            rmse_concentrations(np.ones((3, 2)), np.ones((4, 2)), np.arange(2))


class TestReconstructionError:
    def test_exact_model_is_zero(self):
        rng = np.random.default_rng(4)
        c = rng.dirichlet(np.ones(3), size=8)
        s = rng.uniform(0.1, 1.0, size=(12, 3))
        assert reconstruction_error(c @ s.T, c, s) < 1e-14

    def test_zero_estimate_gives_one(self):
        y = np.ones((3, 4))
        c = np.full((3, 2), 0.5)
        s = np.full((4, 2), 1e-30)
        assert abs(reconstruction_error(y, c, s) - 1.0) < 1e-12

    def test_matches_formula(self):
        """Bit for bit, and without writing to its inputs."""
        rng = np.random.default_rng(5)
        for n_rows, n_channels, k in [(6, 9, 2), (1, 5, 1), (40, 200, 3), (300, 17, 6)]:
            y = rng.uniform(size=(n_rows, n_channels))
            c = rng.dirichlet(np.ones(k), size=n_rows)
            s = rng.uniform(size=(n_channels, k))
            copies = (y.copy(), c.copy(), s.copy())
            expected = np.linalg.norm(y - c @ s.T) / np.linalg.norm(y)
            assert reconstruction_error(y, c, s) == expected
            for before, after in zip(copies, (y, c, s)):
                np.testing.assert_array_equal(before, after)

    def test_accepts_wrappers(self):
        y = SpectraMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        c = ConcentrationMatrix(np.eye(2))
        s = EndmemberMatrix(np.eye(2))
        assert reconstruction_error(y, c, s) < 1e-14

    def test_zero_data_rejected(self):
        with pytest.raises(ValueError, match="all-zero data"):
            reconstruction_error(np.zeros((2, 3)), np.ones((2, 1)), np.ones((3, 1)))


class TestPcaLowerBound:
    def test_exact_rank_k_data(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(size=(20, 3))
        s = rng.uniform(size=(15, 3))
        assert pca_lower_bound(c @ s.T, 3) < 1e-12

    def test_full_rank_projection_is_lossless(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(size=(5, 8))
        assert pca_lower_bound(y, 5) < 1e-12

    def test_matches_svd_tail_identity(self):
        """The relative error equals the tail singular-value energy ratio."""
        rng = np.random.default_rng(8)
        y = rng.normal(size=(10, 14))
        sv = np.linalg.svd(y, compute_uv=False)
        for k in (1, 3, 7):
            expected = np.sqrt(np.sum(sv[k:] ** 2)) / np.linalg.norm(y)
            assert abs(pca_lower_bound(y, k) - expected) < 1e-12

    def test_bounds_any_factorization(self):
        """No rank-K mixing model can beat the SVD truncation."""
        rng = np.random.default_rng(9)
        y = rng.uniform(size=(25, 12))
        c = rng.dirichlet(np.ones(3), size=25)
        s = rng.uniform(size=(12, 3))
        assert pca_lower_bound(y, 3) <= reconstruction_error(y, c, s) + 1e-12

    def test_range_validation(self):
        y = np.ones((4, 6))
        with pytest.raises(ValueError, match=r"n_components must be in \[1, 4\]"):
            pca_lower_bound(y, 5)
        with pytest.raises(ValueError, match="n_components"):
            pca_lower_bound(y, 0)

    def test_accepts_spectra_matrix(self):
        y = SpectraMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert pca_lower_bound(y, 1) < 1e-12


class TestMetricRecord:
    def test_optional_fields(self):
        rec = MetricRecord(t=5, asad_deg=None, rmse=None, re=0.2, wall_ms=1.5)
        assert rec.asad_deg is None

    def test_validation(self):
        with pytest.raises(ValueError, match="t must be"):
            MetricRecord(t=0, asad_deg=None, rmse=None, re=None, wall_ms=0.0)
        with pytest.raises(ValueError, match=r"asad_deg must be in \[0, 180\]"):
            MetricRecord(t=1, asad_deg=181.0, rmse=None, re=None, wall_ms=0.0)
        with pytest.raises(ValueError, match="rmse"):
            MetricRecord(t=1, asad_deg=None, rmse=-0.1, re=None, wall_ms=0.0)
        with pytest.raises(ValueError, match="re must be"):
            MetricRecord(t=1, asad_deg=None, rmse=None, re=-0.1, wall_ms=0.0)
        with pytest.raises(ValueError, match="wall_ms"):
            MetricRecord(t=1, asad_deg=None, rmse=None, re=None, wall_ms=-1.0)


class TestTraceCsv:
    def records(self):
        return [
            MetricRecord(t=31, asad_deg=12.5, rmse=0.08, re=0.15, wall_ms=2.25),
            MetricRecord(t=32, asad_deg=None, rmse=None, re=None, wall_ms=1.75),
        ]

    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.records(), path, comments={"seed": "0", "eta": "87"})
        records, comments = read_trace_csv(path)
        assert comments == {"seed": "0", "eta": "87"}
        assert records[0].t == 31
        assert records[0].asad_deg == 12.5
        assert records[1].asad_deg is None
        assert records[1].rmse is None
        assert records[1].wall_ms == 1.75

    def test_comment_keys_sorted_in_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.records(), path, comments={"b": "2", "a": "1"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# a=1"
        assert lines[1] == "# b=2"
        assert lines[2] == "t,asad_deg,rmse,re,wall_ms"

    def test_missing_values_serialized_as_nan(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.records(), path)
        assert "32,nan,nan,nan,1.75" in path.read_text()

    def test_unexpected_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,asad\n1,2\n")
        with pytest.raises(ValueError, match="line 1: unexpected header"):
            read_trace_csv(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,asad_deg,rmse,re,wall_ms\n31,1.0,2.0\n")
        with pytest.raises(ValueError, match="line 2: expected 5 fields"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "bad_line",
        ["32,abc,0.1,0.2,1.0", "32.5,1.0,0.1,0.2,1.0", "32,181.0,0.1,0.2,1.0"],
        ids=["non-numeric", "non-integer-t", "asad-out-of-range"],
    )
    def test_bad_record_names_path_and_line(self, tmp_path, bad_line):
        path = tmp_path / "trace.csv"
        path.write_text(f"# seed=0\nt,asad_deg,rmse,re,wall_ms\n31,1.0,0.1,0.2,1.0\n{bad_line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ")):
            read_trace_csv(path)
