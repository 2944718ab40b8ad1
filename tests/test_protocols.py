"""Tests for acquisition ordering: hull geometry, embedding, and protocols."""
import hashlib
import re

import numpy as np
import pytest
from scipy.spatial import ConvexHull as QhullConvexHull

from kfunmix.fourier import build_basis
from kfunmix.protocols import (
    AcquisitionOrder,
    P2Config,
    convex_hull_phasor,
    load_order_csv,
    phasor_embedding,
    protocol_p1,
    protocol_p2,
    save_order_csv,
)
from kfunmix.synthdata import SynthConfig, generate_dataset


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def gift_wrap_vertices(points):
    """Exact hull vertex set by gift wrapping on integer coordinates.

    Works in integer arithmetic only, so every orientation test is exact;
    collinear points interior to an edge are skipped by always wrapping to
    the farthest collinear candidate.
    """
    unique = sorted({(int(x), int(y)) for x, y in points})
    if len(unique) <= 2:
        return set(unique)

    def dist2(a, b):
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

    start = unique[0]
    hull = [start]
    current = start
    while True:
        nxt = None
        for cand in unique:
            if cand == current:
                continue
            if nxt is None:
                nxt = cand
                continue
            turn = cross(current, nxt, cand)
            if turn < 0 or (turn == 0 and dist2(current, cand) > dist2(current, nxt)):
                nxt = cand
        if nxt == start:
            break
        hull.append(nxt)
        current = nxt
    return set(hull)


def signed_area(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestConvexHull:
    def test_square_with_center(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 1.0]])
        idx = convex_hull_phasor(pts)
        assert set(idx) == {0, 1, 2, 3}
        assert signed_area(pts[idx]) > 0.0

    def test_collinear_points_keep_extremes(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert set(convex_hull_phasor(pts)) == {0, 2}

    def test_edge_interior_point_excluded(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.0], [2.0, 3.0]])
        assert set(convex_hull_phasor(pts)) == {0, 1, 3}

    def test_identical_points_collapse_to_lowest_index(self):
        pts = np.array([[1.0, 1.0]] * 4)
        np.testing.assert_array_equal(convex_hull_phasor(pts), [0])

    def test_two_distinct_points(self):
        pts = np.array([[3.0, 1.0], [0.0, 0.0], [3.0, 1.0]])
        assert set(convex_hull_phasor(pts)) == {0, 1}

    def test_coincident_vertices_resolve_to_lowest_index(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
        idx = convex_hull_phasor(pts)
        assert set(idx) == {0, 1, 2}

    def test_matches_gift_wrap_on_integer_grids(self):
        """Dense small grids exercise collinearity and coincidence; the
        integer gift wrap is exact, so the vertex sets must agree."""
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(1, 25))
            pts = rng.integers(-6, 7, size=(n, 2)).astype(np.float64)
            idx = convex_hull_phasor(pts)
            got = {(int(x), int(y)) for x, y in pts[idx]}
            expected = gift_wrap_vertices(pts)
            assert got == expected, f"trial {trial}"
            assert len(set(idx.tolist())) == len(idx)
            if len(idx) >= 3:
                assert signed_area(pts[idx]) > 0.0

    def test_matches_qhull_in_general_position(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(300, 2))
        ours = {tuple(p) for p in pts[convex_hull_phasor(pts)]}
        reference = {tuple(p) for p in pts[QhullConvexHull(pts).vertices]}
        assert ours == reference

    def test_all_points_inside_hull(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(1000, 2))
        idx = convex_hull_phasor(pts)
        hull = pts[idx]
        for j in range(len(idx)):
            a, b = hull[j], hull[(j + 1) % len(idx)]
            side = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            assert np.min(side) > -1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            convex_hull_phasor(np.ones((4, 3)))
        with pytest.raises(ValueError, match="at least one point"):
            convex_hull_phasor(np.empty((0, 2)))


class TestPhasorEmbedding:
    def test_mixture_lies_on_segment(self):
        """Intensity normalization makes embedding affine over mixing: the
        mixture's point is the total-intensity-weighted combination."""
        rng = np.random.default_rng(3)
        r1 = rng.uniform(0.1, 1.0, size=50)
        r2 = rng.uniform(0.1, 1.0, size=50)
        a = 0.3
        mix = a * r1 + (1.0 - a) * r2
        p1, p2, pm = phasor_embedding(np.vstack([r1, r2, mix]))
        lam = a * r1.sum() / (a * r1.sum() + (1.0 - a) * r2.sum())
        np.testing.assert_allclose(pm, lam * p1 + (1.0 - lam) * p2, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        row = rng.uniform(0.1, 1.0, size=30)
        pts = phasor_embedding(np.vstack([row, 5.0 * row]))
        np.testing.assert_allclose(pts[0], pts[1], atol=1e-12)

    def test_uses_first_harmonic_pair(self):
        rows = np.vstack([np.cos(2 * np.pi * np.arange(16) / 16.0) + 1.1])
        basis = build_basis(16, 4)
        pt = phasor_embedding(rows, basis)[0]
        normalized = rows[0] / rows[0].sum()
        expected_re = np.sqrt(2.0 / 16.0) * np.sum(
            normalized * np.cos(2 * np.pi * np.arange(16) / 16.0)
        )
        np.testing.assert_allclose(pt[0], expected_re, atol=1e-12)


class TestProtocolP1:
    def test_native_order(self):
        order = protocol_p1(5)
        assert order.indices == (0, 1, 2, 3, 4)

    def test_seeded_shuffle_is_deterministic_permutation(self):
        a = protocol_p1(20, shuffle_seed=3)
        b = protocol_p1(20, shuffle_seed=3)
        assert a.indices == b.indices
        assert sorted(a.indices) == list(range(20))
        assert a.indices != tuple(range(20))

    def test_size_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            protocol_p1(0)


class TestProtocolP2:
    def planted_cluster_rows(self):
        rng = np.random.default_rng(5)
        length = 80
        grid = np.arange(length)
        centers = [(8, 3.0), (20, 4.0), (35, 3.5), (50, 5.0), (62, 3.0), (72, 4.0)]
        bases = [np.exp(-0.5 * ((grid - c) / w) ** 2) + 0.05 for c, w in centers]
        rows, owner = [], []
        for j, base in enumerate(bases):
            for _ in range(15):
                rows.append(base * rng.uniform(0.9, 1.1) + 0.004 * rng.uniform(size=length))
                owner.append(j)
        return np.asarray(rows), owner

    def test_first_round_spans_planted_clusters(self):
        """Six tight spectral families: the first six acquisitions must take
        one member from each family."""
        rows, owner = self.planted_cluster_rows()
        basis = build_basis(rows.shape[1], 2)
        order = protocol_p2(rows, basis, P2Config(n_essential=6, n_clusters=6, seed=0))
        assert len(order.indices) == 6
        first_owners = {owner[i] for i in order.indices}
        assert first_owners == {0, 1, 2, 3, 4, 5}

    def test_prefix_properties(self):
        rows, _ = self.planted_cluster_rows()
        basis = build_basis(rows.shape[1], 2)
        order = protocol_p2(rows, basis, P2Config(n_essential=30, n_clusters=5, seed=1))
        assert len(order.indices) == 30
        assert len(set(order.indices)) == 30
        assert all(0 <= i < rows.shape[0] for i in order.indices)

    def test_deterministic(self):
        rows, _ = self.planted_cluster_rows()
        basis = build_basis(rows.shape[1], 2)
        cfg = P2Config(n_essential=20, n_clusters=4, seed=9)
        assert protocol_p2(rows, basis, cfg).indices == protocol_p2(rows, basis, cfg).indices

    def test_least_mixed_spectra_arrive_sooner(self):
        """On Dirichlet mixtures the purest pixels should sit much earlier
        in the diversity-first order than in native order."""
        data = generate_dataset(
            SynthConfig(n_spectra=400, n_channels=200, n_endmembers=3, snr_db=20.0, seed=2)
        )
        purity = data.concentrations.values.max(axis=1)
        purest = np.argsort(-purity)[:9]
        basis = build_basis(200, 2)
        order = protocol_p2(
            data.spectra.values, basis, P2Config(n_essential=400, n_clusters=50, seed=0)
        )
        rank = {idx: pos for pos, idx in enumerate(order.indices)}
        mean_rank = np.mean([rank[i] for i in purest])
        assert mean_rank < np.mean(purest)
        assert mean_rank < 200.0

    def test_capped_benchmark_order_is_pinned(self):
        """The P2 order of one 1000x200 capped set, as the benchmark's p2
        workload builds it, hashed when hull peeling ran on NumPy scalars."""
        data = generate_dataset(
            SynthConfig(
                n_spectra=1000, n_channels=200, n_endmembers=3, snr_db=20.0,
                purity_cap=0.8, seed=7,
            )
        )
        order = protocol_p2(data.spectra.values, build_basis(200, 2), P2Config(340, 50, 7))
        digest = hashlib.sha256(",".join(map(str, order.indices)).encode()).hexdigest()
        assert order.indices[:8] == (713, 970, 135, 505, 6, 924, 39, 633)
        assert digest == "4b6f9a1a14c886b16c4fa5fb7d63a2c90adb4a66249a808ca7fbda5f69184337"

    def test_degenerate_embedding_falls_back(self):
        rows = np.tile(np.linspace(0.1, 1.0, 24), (8, 1))
        basis = build_basis(24, 2)
        with pytest.warns(UserWarning, match="falling back"):
            order = protocol_p2(rows, basis, P2Config(n_essential=4, n_clusters=2, seed=0))
        assert order.indices == tuple(range(8))

    def test_n_essential_capped_at_data_size(self):
        rows, _ = self.planted_cluster_rows()
        basis = build_basis(rows.shape[1], 2)
        order = protocol_p2(rows, basis, P2Config(n_essential=500, n_clusters=3, seed=0))
        assert len(order.indices) == rows.shape[0]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_essential"):
            P2Config(n_essential=0, n_clusters=1)
        with pytest.raises(ValueError, match="n_clusters must be in"):
            P2Config(n_essential=3, n_clusters=4)


class TestAcquisitionOrder:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one index"):
            AcquisitionOrder(())
        with pytest.raises(ValueError, match="duplicate"):
            AcquisitionOrder((1, 1))
        with pytest.raises(ValueError, match="negative"):
            AcquisitionOrder((0, -1))

    def test_csv_round_trip(self, tmp_path):
        order = AcquisitionOrder((4, 0, 2))
        path = tmp_path / "order.csv"
        save_order_csv(order, path)
        assert path.read_text() == "4\n0\n2\n"
        loaded = load_order_csv(path)
        assert loaded.indices == (4, 0, 2)
        assert loaded == order

    def test_csv_skips_blank_and_comments(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("# note\n3\n\n1\n")
        assert load_order_csv(path).indices == (3, 1)

    def test_csv_non_integer_line(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("3\nx\n")
        with pytest.raises(ValueError, match="line 2: non-integer index 'x'"):
            load_order_csv(path)

    def test_csv_error_counts_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("# comment\n\n0\n1\nx\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: non-integer index 'x'")):
            load_order_csv(path)
