"""Tests for simplex-constrained abundance estimation against grid oracles."""
import warnings

import numpy as np
import pytest

from kfunmix.abundance import (
    COND_WARN,
    MAX_ENDMEMBERS,
    RIDGE,
    FclsConfig,
    estimate_concentration,
    estimate_concentrations,
    project_simplex,
)
from kfunmix.datamodel import EndmemberMatrix
from kfunmix.kalman import NumericalError
from kfunmix.pipeline import PipelineConfig


def grid_oracle_two_components(y, s, step=1e-4):
    """Exhaustive search over the 1-D simplex for K = 2.

    The feasible set is the segment c = (a, 1-a), so a dense sweep of `a`
    brackets the optimum to within the grid step.
    """
    alphas = np.arange(0.0, 1.0 + step, step)
    candidates = np.outer(alphas, s[:, 0]) + np.outer(1.0 - alphas, s[:, 1])
    best = int(np.argmin(np.sum((candidates - y[None, :]) ** 2, axis=1)))
    return np.array([alphas[best], 1.0 - alphas[best]])


def with_condition(cond, n_channels=40, k=3, seed=0):
    """An (L, K) matrix whose singular values run from 1 down to 1 / cond."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n_channels, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, k)) @ v.T


def ill_conditioning_warnings(rows, s):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_concentrations(rows, s)
    return [str(w.message) for w in caught if "ill-conditioned" in str(w.message)]


def assert_kkt(rows, s, conc, tol=1e-10):
    """Karush-Kuhn-Tucker conditions of the ridged simplex least squares.

    With gradient g = (S^T S + ridge I) c - S^T y, a minimiser over the
    simplex has equal g on its support (the equality multiplier) and g no
    lower off it (nonnegative bound multipliers).
    """
    assert np.all(conc >= 0.0)
    np.testing.assert_allclose(conc.sum(axis=1), 1.0, rtol=0.0, atol=tol)
    gram = s.T @ s + RIDGE * np.eye(s.shape[1])
    for y, c in zip(rows, conc):
        grad = gram @ c - s.T @ y
        support = c > 1e-8
        level = grad[support].mean()
        np.testing.assert_allclose(grad[support], level, rtol=0.0, atol=tol)
        assert np.all(grad[~support] - level >= -tol)


class TestProjectSimplex:
    def test_hand_cases(self):
        np.testing.assert_allclose(project_simplex(np.array([-1.0, 1.0])), [0.0, 1.0])
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
        np.testing.assert_allclose(
            project_simplex(np.array([0.5, 0.5])), [0.5, 0.5]
        )

    def test_interior_point_shifts_uniformly(self):
        out = project_simplex(np.array([0.2, 0.4, 0.1]))
        np.testing.assert_allclose(out, [0.3, 0.5, 0.2], atol=1e-12)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = project_simplex(rng.normal(scale=5.0, size=rng.integers(1, 8)))
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) < 1e-9

    def test_projection_is_nearest_feasible_point(self):
        """Check the variational property against random simplex points."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=4)
            proj = project_simplex(v)
            dist = np.sum((proj - v) ** 2)
            for _ in range(40):
                other = rng.dirichlet(np.ones(4))
                assert dist <= np.sum((other - v) ** 2) + 1e-9


class TestEstimateConcentrations:
    def test_two_component_grid_oracle(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(0.1, 1.0, size=(12, 2))
        for _ in range(100):
            truth = rng.dirichlet(np.ones(2))
            y = s @ truth + 0.02 * rng.normal(size=12)
            got = estimate_concentration(y, s)
            expected = grid_oracle_two_components(y, s)
            np.testing.assert_allclose(got, expected, atol=1e-3)

    def test_pure_pixel_recovered(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.1, 1.0, size=(20, 3))
        got = estimate_concentration(s[:, 1], s)
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-6)

    def test_single_component_is_trivial(self):
        s = np.ones((5, 1))
        out = estimate_concentrations(np.random.default_rng(4).normal(size=(3, 5)), s)
        np.testing.assert_array_equal(out, np.ones((3, 1)))

    def test_rows_land_on_simplex(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.1, 1.0, size=(15, 4))
        out = estimate_concentrations(rng.normal(size=(30, 15)), s)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_batch_equals_single(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(0.1, 1.0, size=(10, 3))
        rows = rng.uniform(size=(6, 10))
        batch = estimate_concentrations(rows, s)
        for i in range(6):
            np.testing.assert_allclose(
                batch[i], estimate_concentration(rows[i], s), atol=1e-12
            )

    def test_component_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.1, 1.0, size=(10, 3))
        y = s @ np.array([0.2, 0.5, 0.3])
        base = estimate_concentration(y, s)
        perm = [2, 0, 1]
        permuted = estimate_concentration(y, s[:, perm])
        np.testing.assert_allclose(permuted, base[perm], atol=1e-8)

    def test_objective_not_worse_than_simplex_grid(self):
        """The solver's residual must match the best feasible grid point."""
        rng = np.random.default_rng(8)
        s = rng.uniform(0.1, 1.0, size=(8, 3))
        y = rng.uniform(size=8)
        got = estimate_concentration(y, s)
        obj = np.sum((y - s @ got) ** 2)
        ticks = np.linspace(0.0, 1.0, 101)
        best = min(
            np.sum((y - s @ np.array([a, b, 1.0 - a - b])) ** 2)
            for a in ticks
            for b in ticks
            if a + b <= 1.0
        )
        assert obj <= best + 1e-6

    def test_accepts_endmember_matrix_wrapper(self):
        s = EndmemberMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        got = estimate_concentration(np.array([0.3, 0.7, 0.5]), s)
        np.testing.assert_allclose(got, [0.3, 0.7], atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="does not match spectra"):
            estimate_concentrations(np.ones((2, 5)), np.ones((4, 2)))

    def test_vector_required_for_single(self):
        with pytest.raises(ValueError, match="must be a vector"):
            estimate_concentration(np.ones((2, 5)), np.ones((5, 2)))

    def test_near_collinear_endmembers_warn(self):
        base = np.linspace(0.1, 1.0, 10)
        s = np.column_stack([base, base * (1.0 + 1e-9)])
        with pytest.warns(UserWarning, match="ill-conditioned"):
            out = estimate_concentration(base, s)
        assert np.all(np.isfinite(out))

    def test_config_validation(self):
        with pytest.raises(TypeError):
            FclsConfig(max_iters=200)
        too_many = MAX_ENDMEMBERS + 1
        with pytest.raises(ValueError, match="at most 12 endmembers"):
            estimate_concentrations(np.ones((2, 20)), np.ones((20, too_many)))
        with pytest.raises(ValueError, match="n_endmembers"):
            PipelineConfig(n_endmembers=too_many, n_init=30)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_kkt_oracle(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            n_channels = int(rng.integers(3 * k, 30))
            s = rng.uniform(0.1, 1.0, size=(n_channels, k))
            mix = rng.dirichlet(np.full(k, 0.5), size=15)
            rows = mix @ s.T + 0.2 * rng.normal(size=(15, n_channels))
            batch = estimate_concentrations(rows, s)
            assert_kkt(rows, s, batch)
            single = np.array([estimate_concentration(y, s) for y in rows])
            assert_kkt(rows, s, single)

    def test_largest_supported_k_spans_several_chunks(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.1, 1.0, size=(40, MAX_ENDMEMBERS))
        rows = rng.dirichlet(np.ones(MAX_ENDMEMBERS), size=50) @ s.T
        rows += 0.05 * rng.normal(size=rows.shape)
        assert_kkt(rows, s, estimate_concentrations(rows, s))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises(self, bad):
        rng = np.random.default_rng(12)
        s = rng.uniform(0.1, 1.0, size=(10, 3))
        rows = rng.uniform(size=(4, 10))
        rows[2, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="spectrum 2 is not finite"):
                estimate_concentrations(rows, s)

    def test_empty_batch(self):
        out = estimate_concentrations(np.zeros((0, 6)), np.ones((6, 3)) + np.eye(6, 3))
        assert out.shape == (0, 3)


class TestConditionScreen:
    """The Gram eigenvalue screen in front of the SVD that decides the warning."""

    @pytest.fixture
    def cond_calls(self, monkeypatch):
        calls = []
        svd_cond = np.linalg.cond

        def counted(x, *args, **kwargs):
            calls.append(np.shape(x))
            return svd_cond(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted)
        return calls

    def test_just_above_the_threshold_warns_with_the_same_message(self, cond_calls):
        s = with_condition(1.5e8)
        rows = np.random.default_rng(1).normal(size=(4, 40))
        assert ill_conditioning_warnings(rows, s) == [
            "endmember matrix is ill-conditioned (cond=1.5e+08); abundances may be unstable"
        ]
        assert cond_calls == [(40, 3)]

    def test_inside_the_fallback_band_the_svd_runs_and_does_not_warn(self, cond_calls):
        s = with_condition(1e7)
        rows = np.random.default_rng(2).normal(size=(4, 40))
        assert ill_conditioning_warnings(rows, s) == []
        assert cond_calls == [(40, 3)]

    def test_well_conditioned_endmembers_run_no_svd(self, cond_calls):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.1, 1.0, size=(200, 5))
        rows = rng.dirichlet(np.ones(5), size=6) @ s.T
        estimate_concentrations(rows, s)
        estimate_concentration(rows[0], s)
        assert cond_calls == []

    def test_infinite_endmember_entry_is_left_to_the_svd(self, cond_calls):
        """A non-finite Gram skips the eigenvalue screen, so the SVD decides
        as it always has: cond = inf warns."""
        s = with_condition(10.0)
        s[0, 0] = np.inf
        rows = np.random.default_rng(5).normal(size=(2, 40))
        assert any("cond=inf" in m for m in ill_conditioning_warnings(rows, s))
        assert cond_calls == [(40, 3)]

    @pytest.mark.parametrize("cond", [1e3, 1e6, 3e6, 1e7, 9e7, 1.1e8, 1e10, 1e14])
    def test_warns_exactly_when_the_svd_condition_passes_the_bound(self, cond):
        s = with_condition(cond, k=4, seed=int(np.log10(cond)))
        rows = np.random.default_rng(4).normal(size=(3, 40))
        warned = bool(ill_conditioning_warnings(rows, s))
        assert warned == (np.linalg.cond(s) > COND_WARN)
