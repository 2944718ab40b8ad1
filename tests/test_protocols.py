"""Tests for acquisition ordering: hull geometry, embedding, and protocols."""
import hashlib
import re

import numpy as np
import pytest
from scipy.spatial import ConvexHull as QhullConvexHull

from kfunmix import protocols
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


def reference_hull(points):
    """Hull of one layer as first written: dedup in a dict, sort, chain.

    The lowest index of each coincident site wins (the dict keeps the first
    key seen, and +0.0 == -0.0 hashes alike); the chains run on the sorted
    unique sites.
    """
    seen = {}
    for i, (x, y) in enumerate(np.asarray(points, dtype=np.float64).tolist()):
        seen.setdefault((x, y), i)
    unique = sorted(seen.items())
    if len(unique) <= 2:
        return np.array([i for _, i in unique], dtype=int)
    coords = [c for c, _ in unique]

    def chain(order):
        out = []
        for pos in order:
            while len(out) >= 2 and cross(coords[out[-2]], coords[out[-1]], coords[pos]) <= 0.0:
                out.pop()
            out.append(pos)
        return out

    lower = chain(range(len(coords)))
    upper = chain(range(len(coords) - 1, -1, -1))
    return np.array([unique[p][1] for p in lower[:-1] + upper[:-1]], dtype=int)


def reference_p2_order(points, config):
    """P2 on given phasor points as first written: one hull per layer over
    the remaining points, then a nearest-open pick per cluster and round
    with the distances recomputed for every pick."""
    n = points.shape[0]
    n_essential = min(config.n_essential, n)
    rng = np.random.default_rng(config.seed)
    remaining_mask = np.ones(n, dtype=bool)
    candidates = []
    while len(candidates) < n_essential and np.any(remaining_mask):
        remaining_idx = np.nonzero(remaining_mask)[0]
        for pos in remaining_idx[reference_hull(points[remaining_idx])]:
            candidates.append(int(pos))
            remaining_mask[pos] = False
    cand = np.array(sorted(candidates))
    k = min(config.n_clusters, cand.size)
    _, centroids = protocols._kmeans(points[cand], k, rng)
    taken = np.zeros(cand.size, dtype=bool)
    ordered = []
    while len(ordered) < n_essential and not np.all(taken):
        round_indices = []
        for j in range(k):
            open_pos = np.nonzero(~taken)[0]
            if open_pos.size == 0:
                break
            dist = np.sum((points[cand[open_pos]] - centroids[j]) ** 2, axis=1)
            chosen = open_pos[int(np.argmin(dist))]
            taken[chosen] = True
            round_indices.append(int(cand[chosen]))
        ordered.extend(int(i) for i in rng.permutation(round_indices))
    return tuple(ordered[:n_essential])


def coincident_points(rng, n):
    """Gaussian points where a third repeat earlier ones, some with the sign
    of a zero coordinate flipped."""
    pts = rng.normal(size=(n, 2))
    pts[rng.integers(n, size=n // 8), rng.integers(2, size=n // 8)] = 0.0
    for i in range(n // 3, n):
        if rng.uniform() < 0.5:
            pts[i] = pts[rng.integers(i)]
    pts[: n // 2] *= np.where(pts[: n // 2] == 0.0, -1.0, 1.0)
    return pts


def integer_grid_points(rng, n):
    return rng.integers(-6, 7, size=(n, 2)).astype(np.float64)


def collinear_points(rng, n):
    """Points on one line with exact coordinates, so every orientation test
    reads exactly zero."""
    t = rng.integers(-20, 21, size=n).astype(np.float64)
    return np.column_stack([0.5 + 3.0 * t, -1.0 + 2.0 * t])


def nearly_collinear_points(rng, n):
    """Points on one line up to the rounding of their coordinates."""
    t = rng.integers(-20, 21, size=n).astype(np.float64) / 7.0
    return np.column_stack([0.5 + 3.0 * t, -1.0 + 2.0 * t])


POINT_SETS = {
    "coincident": coincident_points,
    "integer_grid": integer_grid_points,
    "collinear": collinear_points,
}


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

    @pytest.mark.parametrize("kind", sorted(POINT_SETS))
    def test_matches_the_dict_and_sort_reference(self, kind):
        """Same vertices in the same order as the per-call dict-and-sort hull."""
        rng = np.random.default_rng(11)
        for trial in range(60):
            pts = POINT_SETS[kind](rng, int(rng.integers(1, 120)))
            np.testing.assert_array_equal(
                convex_hull_phasor(pts), reference_hull(pts), err_msg=f"trial {trial}"
            )

    def test_nearly_collinear_points_are_listed_once(self):
        """Rounding can put a site on both chains; it is one vertex."""
        rng = np.random.default_rng(13)
        repeated = 0
        for trial in range(60):
            pts = nearly_collinear_points(rng, int(rng.integers(3, 120)))
            idx = convex_hull_phasor(pts).tolist()
            reference = reference_hull(pts).tolist()
            repeated += len(reference) > len(set(reference))
            assert len(idx) == len(set(idx)), f"trial {trial}"
            assert set(idx) == set(reference), f"trial {trial}"
        assert repeated > 0

    def test_signed_zeros_are_one_site(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.5, 3.0]])
        np.testing.assert_array_equal(convex_hull_phasor(pts), [0, 2, 4])

    def test_rejects_a_non_finite_point(self):
        pts = np.array([[0.0, 0.0], [1.0, np.inf], [2.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="row 1 is not finite"):
            convex_hull_phasor(pts)

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


    def test_total_within_rounding_of_zero_names_the_row(self):
        """A baseline-subtracted spectrum (total ~1e-14) would land ~1e12 out."""
        data = generate_dataset(SynthConfig(n_spectra=200, n_channels=60, n_endmembers=3, seed=5))
        rows = data.spectra.values.copy()
        rows[17] -= rows[17].mean()
        assert 0.0 < rows[17].sum() < 60 * np.finfo(np.float64).eps * np.abs(rows[17]).sum()
        with pytest.raises(ValueError, match="spectrum row 17 has a total of 1.29e-14"):
            phasor_embedding(rows)
        with pytest.raises(ValueError, match="spectrum row 17 "):
            protocol_p2(rows, build_basis(60, 2), P2Config(20, 5, seed=0))
        rows[17, 0] -= 1e-3  # a total clearly below zero is embedded as it is
        assert np.all(np.isfinite(phasor_embedding(rows)))


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

    def test_rejects_a_non_finite_spectrum_naming_its_row(self):
        rows, _ = self.planted_cluster_rows()
        rows[9, 4] = np.inf
        rows[3, 10] = np.nan
        basis = build_basis(rows.shape[1], 2)
        with pytest.raises(ValueError, match="row 3 is not finite"):
            protocol_p2(rows, basis, P2Config(n_essential=6, n_clusters=3, seed=0))

    @pytest.mark.parametrize("seed", [0, 12])
    def test_noiseless_two_component_set_gives_an_order(self, seed):
        """Noiseless mixtures of two spectra embed on a line up to rounding.
        Listing a hull vertex twice once made it a candidate twice, and
        these two sets then raised "order contains duplicate indices"."""
        data = generate_dataset(
            SynthConfig(n_spectra=300, n_channels=100, n_endmembers=2,
                        snr_db=float("inf"), seed=seed)
        )
        order = protocol_p2(data.spectra.values, build_basis(100, 2), P2Config(300, 10, seed))
        assert sorted(order.indices) == list(range(300))

    def test_degenerate_embedding_falls_back(self):
        rows = np.tile(np.linspace(0.1, 1.0, 24), (8, 1))
        basis = build_basis(24, 2)
        with pytest.warns(UserWarning, match="falling back"):
            order = protocol_p2(rows, basis, P2Config(n_essential=4, n_clusters=2, seed=0))
        assert order.indices == tuple(range(4))
        with pytest.warns(UserWarning, match="falling back"):
            order = protocol_p2(rows, basis, P2Config(n_essential=None, n_clusters=2, seed=0))
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

    def test_no_n_essential_orders_every_spectrum(self):
        rows, _ = self.planted_cluster_rows()
        basis = build_basis(rows.shape[1], 2)
        every = protocol_p2(rows, basis, P2Config(None, 5, seed=2))
        assert every == protocol_p2(rows, basis, P2Config(rows.shape[0], 5, seed=2))

    def test_no_n_essential_checks_clusters_against_the_spectrum_count(self):
        with pytest.raises(ValueError, match="n_clusters must be in"):
            P2Config(n_essential=None, n_clusters=0)
        rows, _ = self.planted_cluster_rows()
        basis = build_basis(rows.shape[1], 2)
        assert len(protocol_p2(rows, basis, P2Config(None, rows.shape[0])).indices) == 90
        with pytest.raises(ValueError, match="n_clusters must be in"):
            protocol_p2(rows, basis, P2Config(None, rows.shape[0] + 1))


# (n_spectra, n_endmembers, purity_cap, n_essential, n_clusters): 40 generated sets,
# capped and uncapped, n from 200 to 1000, essentials from 10 to every spectrum.
GENERATED_SETS = [
    (n, k, cap, min(ess, n), min(clusters, ess, n))
    for n, k, cap in [
        (200, 3, None), (200, 3, 0.8), (350, 4, None), (500, 3, 0.8), (500, 5, 0.6),
        (650, 4, 0.9), (800, 3, None), (1000, 3, 0.8), (1000, 5, None), (1000, 4, 0.7),
    ]
    for ess, clusters in [(10, 1), (60, 7), (340, 50), (1000, 25)]
]


class TestP2MatchesReference:
    """The one-sort peel and the precomputed distance matrix give the orders
    of the per-layer hull peel and the per-pick distance loop exactly."""

    @pytest.mark.parametrize("n, k, cap, n_essential, n_clusters", GENERATED_SETS)
    def test_generated_sets(self, n, k, cap, n_essential, n_clusters):
        seed = n + 7 * k + n_essential
        data = generate_dataset(
            SynthConfig(
                n_spectra=n, n_channels=120, n_endmembers=k, snr_db=20.0,
                purity_cap=cap, seed=seed,
            )
        )
        basis = build_basis(120, 2)
        config = P2Config(n_essential, n_clusters, seed)
        points = phasor_embedding(data.spectra.values, basis)
        expected = reference_p2_order(points, config)
        assert protocol_p2(data.spectra.values, basis, config).indices == expected

    @pytest.mark.parametrize("kind", sorted(POINT_SETS))
    def test_point_sets(self, kind, monkeypatch):
        """Coincident (signed-zero), integer-grid and collinear points, fed
        to protocol_p2 in place of the phasor embedding."""
        rng = np.random.default_rng(12)
        for trial in range(15):
            n = int(rng.integers(3, 300))
            pts = POINT_SETS[kind](rng, n)
            if np.all(pts == pts[0]):
                continue
            n_essential = int(rng.integers(1, n + 1))
            config = P2Config(n_essential, int(rng.integers(1, n_essential + 1)), trial)
            monkeypatch.setattr(protocols, "phasor_embedding", lambda rows, basis: pts)
            got = protocol_p2(np.zeros((n, 4)), None, config).indices
            assert got == reference_p2_order(pts, config), f"trial {trial}"


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
