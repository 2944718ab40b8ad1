"""Tests for pure-pixel endmember extraction."""
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfunmix import vca as vca_module
from kfunmix.datamodel import SpectraMatrix
from kfunmix.fourier import build_basis
from kfunmix.metrics import sad
from kfunmix.protocols import P2Config, protocol_p2
from kfunmix.synthdata import SynthConfig, generate_dataset
from kfunmix.vca import vca

import vca_reference as reference


def planted_dataset(seed=3, n=200, n_channels=60):
    """Noiseless mixtures with the true pure spectra planted as rows."""
    cfg = SynthConfig(
        n_spectra=n, n_channels=n_channels, n_endmembers=3, snr_db=np.inf, seed=seed
    )
    data = generate_dataset(cfg)
    rows = data.spectra.values.copy()
    truth = data.endmembers.values
    rows[10] = truth[:, 0]
    rows[77] = truth[:, 1]
    rows[150] = truth[:, 2]
    return rows, truth


def spy_svd(monkeypatch):
    """Record each np.linalg.svd call as 'centred', 'raw' or 'sketch'.

    A call for singular values alone is the certificate's sketch; a full
    SVD is of the centred data when its rows average to zero.
    """
    calls = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            calls.append("sketch")
        else:
            a = np.asarray(a)
            centred = np.abs(a.mean(axis=1)).max() <= 1e-9 * np.abs(a).max()
            calls.append("centred" if centred else "raw")
        return original(a, *args, **kwargs)

    monkeypatch.setattr("kfunmix.vca.np.linalg.svd", spy)
    return calls


def full_svds(calls):
    return [kind for kind in calls if kind != "sketch"]


def capture(extract, rows, k, seed=0):
    """The endmembers ``extract`` picks and the warnings it raises on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = extract(rows, k, seed).values
    return values, [(w.category, str(w.message)) for w in caught]


def assert_same_output(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


def assert_matches_reference(rows, k, seed=0):
    assert_same_output(capture(vca, rows, k, seed), capture(reference.vca, rows, k, seed))


def p2_stream(seed):
    """A capped 1000 x 200 K3 set in P2 order (340 spectra, 50 clusters)."""
    rows = generate_dataset(
        SynthConfig(n_spectra=1000, n_channels=200, n_endmembers=3, purity_cap=0.8, seed=seed)
    ).spectra.values
    order = protocol_p2(rows, build_basis(200, 2), P2Config(340, 50, seed))
    return rows[list(order.indices)]


# The init prefix and the prefixes at which a run with baseline stride 20 calls VCA.
P2_PREFIXES = (30, *range(31, 340, 20), 340)


def duplicated_rows():
    rows = generate_dataset(SynthConfig(n_spectra=40, n_channels=60, n_endmembers=3, seed=5))
    return np.repeat(rows.spectra.values, 5, axis=0)


def rank_deficient_rows():
    """Mixtures of two spectra, asked for four endmembers."""
    rng = np.random.default_rng(10)
    a, b = rng.uniform(0.1, 1.0, size=(2, 60))
    weights = rng.uniform(size=80)
    return np.outer(weights, a) + np.outer(1.0 - weights, b)


def planted_noisy_rows():
    rows, _ = planted_dataset(seed=7)
    return rows + 1e-3 * np.random.default_rng(8).normal(size=rows.shape)


SPECIAL_CASES = {
    "planted": (lambda: planted_dataset()[0], 3),
    "planted-noisy": (planted_noisy_rows, 3),
    "rank-deficient": (rank_deficient_rows, 4),
    "rank-deficient-k2": (rank_deficient_rows, 2),
    "duplicated-rows": (duplicated_rows, 3),
    "duplicated-halves": (lambda: np.vstack([planted_noisy_rows()] * 2), 3),
}


class TestVca:
    def test_recovers_planted_pure_pixels(self):
        rows, truth = planted_dataset()
        with pytest.warns(UserWarning, match="significant directions"):
            picked = vca(rows, 3, seed=0).values
        angles = []
        for j in range(3):
            best = min(
                sad(picked[:, q], truth[:, j]) for q in range(3)
            )
            angles.append(best)
        assert max(angles) < 1e-6

    def test_selected_columns_are_data_rows(self):
        """Every endmember is one of the observations, clamped at zero."""
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.05, 1.0, size=(50, 30))
        picked = vca(rows, 4, seed=1).values
        row_set = {tuple(np.round(r, 12)) for r in rows}
        for q in range(4):
            assert tuple(np.round(picked[:, q], 12)) in row_set

    def test_single_endmember_takes_dominant_row(self):
        rows = np.vstack([np.full(10, 0.1), np.full(10, 2.0), np.full(10, 0.5)])
        picked = vca(rows, 1).values
        np.testing.assert_array_equal(picked[:, 0], rows[1])

    def test_segment_data_picks_extremes(self):
        """Points on a segment between two spectra: the ends are the vertices."""
        rng = np.random.default_rng(1)
        a = rng.uniform(0.2, 1.0, size=25)
        b = rng.uniform(0.2, 1.0, size=25)
        weights = np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, size=40)])
        rows = np.outer(weights, a) + np.outer(1.0 - weights, b)
        rows += 1e-9 * rng.normal(size=rows.shape)
        picked = vca(rows, 2, seed=0).values
        got = {int(np.argmin(np.linalg.norm(rows - picked[:, q], axis=1))) for q in range(2)}
        assert got == {0, 1}

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        rows = rng.uniform(size=(80, 40))
        first = vca(rows, 3, seed=5).values
        second = vca(rows, 3, seed=5).values
        np.testing.assert_array_equal(first, second)

    def test_row_shuffle_leaves_selection_set_unchanged(self):
        """The extracted spectra do not depend on observation order."""
        rows, _ = planted_dataset(seed=4)
        with pytest.warns(UserWarning, match="significant directions"):
            base = vca(rows, 3, seed=0).values
        perm = np.random.default_rng(9).permutation(rows.shape[0])
        with pytest.warns(UserWarning, match="significant directions"):
            shuffled = vca(rows[perm], 3, seed=0).values
        base_set = {tuple(np.round(base[:, q], 9)) for q in range(3)}
        shuffled_set = {tuple(np.round(shuffled[:, q], 9)) for q in range(3)}
        assert base_set == shuffled_set

    def test_accepts_spectra_matrix(self):
        rng = np.random.default_rng(6)
        rows = rng.uniform(0.1, 1.0, size=(30, 20))
        picked = vca(SpectraMatrix(rows), 2, seed=0)
        assert picked.values.shape == (20, 2)

    def test_too_many_endmembers(self):
        with pytest.raises(ValueError, match="cannot extract 5 endmembers"):
            vca(np.ones((4, 10)), 5)

    def test_low_snr_branch_still_picks_vertices(self, monkeypatch):
        """Forcing the noisy-regime projection must still find the corners
        of a well-separated simplex."""
        monkeypatch.setattr("kfunmix.vca._estimate_snr_db", lambda *args: 5.0)
        rows, truth = planted_dataset(seed=7)
        rng = np.random.default_rng(8)
        noisy = rows + 0.01 * rng.normal(size=rows.shape)
        calls = spy_svd(monkeypatch)
        picked = vca(noisy, 3, seed=0).values
        # The noisy branch's only full SVD is of the centred data.
        assert full_svds(calls) == ["centred"]
        for j in range(3):
            best = min(sad(picked[:, q], truth[:, j]) for q in range(3))
            assert best < 10.0

    def test_rank_deficiency_warns(self):
        rng = np.random.default_rng(10)
        a, b = rng.uniform(0.1, 1.0, size=(2, 15))
        weights = rng.uniform(size=30)
        rows = np.outer(weights, a) + np.outer(1.0 - weights, b)
        with pytest.warns(UserWarning, match="significant directions"):
            vca(rows, 3, seed=0)

    def test_rejects_zero_endmembers(self):
        with pytest.raises(ValueError, match="n_endmembers"):
            vca(np.ones((4, 10)), 0)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_is_named_before_any_svd(self, value, k, monkeypatch):
        rows = np.random.default_rng(11).uniform(0.1, 1.0, size=(40, 20))
        rows[7, 3] = value
        rows[12, 0] = value
        calls = spy_svd(monkeypatch)
        with pytest.raises(ValueError, match=r"^spectrum 7 is not finite$"):
            vca(rows, k)
        assert calls == []


class TestMatchesReference:
    """The sketch decides nothing but which path runs: picks and warnings
    equal those of the two-SVD reference bit for bit."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_p2_prefixes_are_certified_and_match(self, seed, monkeypatch):
        stream = p2_stream(seed)
        calls = spy_svd(monkeypatch)
        for t in P2_PREFIXES:
            calls.clear()
            got = capture(vca, stream[:t], 3, seed)
            # Certified: the clean branch's raw-data SVD is the only full one.
            assert calls == ["sketch", "raw"], t
            assert_same_output(got, capture(reference.vca, stream[:t], 3, seed))

    @pytest.mark.parametrize(
        "n_channels, n_spectra", [(60, 30), (60, 80), (200, 100), (200, 220), (400, 200), (400, 420)]
    )
    def test_every_k_and_snr_matches(self, n_channels, n_spectra):
        for k in range(2, 9):
            for snr_db in (10.0, 20.0, 40.0, np.inf):
                rows = generate_dataset(
                    SynthConfig(n_spectra, n_channels, k, snr_db=snr_db, seed=k)
                ).spectra.values
                assert_matches_reference(rows, k, seed=k)

    @pytest.mark.parametrize("case", sorted(SPECIAL_CASES))
    def test_special_data_matches(self, case):
        build, k = SPECIAL_CASES[case]
        assert_matches_reference(build(), k)

    @pytest.mark.parametrize("log_scale", [-170.0, -150.0, 152.5, 153.5, 154.5])
    def test_extreme_scales_match(self, log_scale):
        """From about 1e152 the sketch overflows and must leave the call to
        the exact test, silently."""
        rows = generate_dataset(SynthConfig(n_spectra=200, n_channels=60, n_endmembers=3, seed=1))
        rows = rows.spectra.values * 10.0**log_scale
        got, want = capture(vca, rows, 3), capture(reference.vca, rows, 3)
        np.testing.assert_array_equal(got[0], want[0])
        # Overflowing sums warn in another order: the exact path now sums
        # the top-K energy before the total energy.
        assert Counter(got[1]) == Counter(want[1])


class TestCertificate:
    @settings(max_examples=80, deadline=None)
    @given(
        n_channels=st.integers(2, 40),
        n_spectra=st.integers(2, 40),
        rank=st.integers(1, 40),
        log_scale=st.floats(-6.0, 6.0),
        noise=st.sampled_from([0.0, 1e-8, 1e-3, 1.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_bounds_never_exceed_the_exact_values(
        self, n_channels, n_spectra, rank, log_scale, noise, seed, data
    ):
        k = data.draw(st.integers(2, min(n_channels, n_spectra)))
        rank = min(rank, n_channels, n_spectra)
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n_channels, rank)) @ rng.uniform(size=(rank, n_spectra))
        x += noise * rng.standard_normal(x.shape) + rng.uniform(0.0, 5.0, size=(n_channels, 1))
        x *= 10.0**log_scale
        centered = x - x.mean(axis=1, keepdims=True)
        top, sigma_last, frobenius = vca_module._sketch_bounds(centered, k)
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        assert top <= float(np.sum(s[:k] ** 2))
        # The energy the exact path feeds its SNR estimate.
        assert top <= float(np.sum((u[:, :k].T @ centered) ** 2))
        assert sigma_last <= s[k - 1]
        if sigma_last > vca_module.SIGNIFICANCE * frobenius:
            assert s[k - 1] > vca_module.SIGNIFICANCE * s[0]

    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 1), (5, 2)])
    def test_data_at_the_threshold_takes_the_exact_path_when_noisy(self, k, seed, monkeypatch):
        clean = generate_dataset(
            SynthConfig(n_spectra=200, n_channels=60, n_endmembers=k, snr_db=np.inf, seed=seed)
        ).spectra.values
        noise = np.random.default_rng(seed).standard_normal(clean.shape)
        threshold = reference.snr_threshold_db(k)

        def snr(level):
            return reference.exact_snr_db(clean + level * noise, k)

        # Bisect on the noise level: lo stays clean, hi noisy by the exact test.
        lo, hi = 0.0, 1.0
        assert snr(lo) >= threshold > snr(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if snr(mid) < threshold:
                hi = mid
            else:
                lo = mid
        assert snr(lo) - threshold < 1e-9 and threshold - snr(hi) < 1e-9
        calls = spy_svd(monkeypatch)
        for level in (lo, hi):
            rows = clean + level * noise
            noisy = snr(level) < threshold
            calls.clear()
            got = capture(vca, rows, k)
            if noisy:
                assert full_svds(calls) == ["centred"]
            assert_same_output(got, capture(reference.vca, rows, k))

    def test_a_certified_call_runs_one_full_svd(self, monkeypatch):
        rows = generate_dataset(SynthConfig(n_spectra=340, n_channels=200, n_endmembers=3, seed=1))
        calls = spy_svd(monkeypatch)
        vca(rows.spectra.values, 3)
        assert calls == ["sketch", "raw"]

    @pytest.mark.parametrize(
        "case, expected",
        [("noisy", ["centred"]), ("planted", ["centred", "raw"]), ("rank-deficient", ["centred", "raw"])],
    )
    def test_an_uncertified_call_runs_the_reference_svds(self, case, expected, monkeypatch):
        if case == "noisy":
            rows, k = generate_dataset(SynthConfig(340, 400, 5, seed=1)).spectra.values, 5
        else:
            build, k = SPECIAL_CASES[case]
            rows = build()
        calls = spy_svd(monkeypatch)
        capture(vca, rows, k)
        assert calls == ["sketch", *expected]
        calls.clear()
        capture(reference.vca, rows, k)
        assert calls == expected
