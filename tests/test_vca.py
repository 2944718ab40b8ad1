"""Tests for pure-pixel endmember extraction."""
import numpy as np
import pytest

from kfunmix.datamodel import SpectraMatrix
from kfunmix.metrics import sad
from kfunmix.synthdata import SynthConfig, generate_dataset
from kfunmix.vca import vca


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
        picked = vca(noisy, 3, seed=0).values
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
