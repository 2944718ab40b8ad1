"""The support-enumeration NNLS against scipy's Lawson-Hanson ``nnls`` as an oracle."""

import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

from kfunmix.abundance import MAX_ENDMEMBERS, nonneg_least_squares


def rotated(rng, n, k, cond):
    """An (n, K) design whose singular values run from 1 down to 1 / cond."""
    u, _ = np.linalg.qr(rng.normal(size=(n, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, k)) @ v.T


def column_scaled(rng, n, k, cond):
    """A nonnegative design whose last column is 1 / cond of a uniform one:
    a component that barely appears in an abundance matrix."""
    c = rng.uniform(0.0, 1.0, size=(n, k))
    c[:, -1] /= cond
    return c


def targets_for(rng, c, n_targets=30):
    """Noisy targets from signed coefficients, so that many bounds are active."""
    return c @ rng.normal(size=(c.shape[1], n_targets)) + 0.1 * rng.normal(
        size=(c.shape[0], n_targets)
    )


def oracle(c, y):
    """scipy's solution and residual norm for every column of y."""
    runs = [nnls(c, col, maxiter=100 * c.shape[1]) for col in y.T]
    return np.array([x for x, _ in runs]), np.array([r for _, r in runs])


def residuals(c, y, x):
    return np.linalg.norm(c @ x.T - y, axis=0)


class TestAgainstScipy:
    @pytest.mark.parametrize("k", range(1, MAX_ENDMEMBERS + 1))
    def test_random_designs_agree_within_1e10(self, k):
        """Measured: 2.7e-14 at worst over K = 1..12."""
        rng = np.random.default_rng(k)
        for _ in range(3):
            c = rng.uniform(0.0, 1.0, size=(40, k))
            assert np.linalg.cond(c) <= 1e3
            y = targets_for(rng, c)
            got = nonneg_least_squares(c, y)
            want, _ = oracle(c, y)
            gap = np.linalg.norm(got - want, axis=1)
            assert np.all(gap <= 1e-10 * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize(
        "family, cond",
        [(column_scaled, 1e3), (column_scaled, 1e5), (column_scaled, 1e7),
         (rotated, 1e3), (rotated, 1e4)],
    )
    def test_residual_at_most_1e12_above_scipys(self, family, cond):
        """The solution comes from the normal equations, so it moves by up to
        eps cond(C)^2 from scipy's, but the residual is second order in
        that move.  Measured excess: 1.0e-15 on column-scaled designs to
        cond 1e7, 9.9e-14 on rotated ones at cond 1e4.  Rotated designs
        read 1.6e-13 to 6e-13 at cond 1e5 by seed; from cond 1e6 the
        rounding of their candidates flips the sign of small entries, the
        support differs from scipy's, and the residual reads 1e-7 (1e6) to
        2.5e-3 (1e7) above it.  A near tie can also be ranked the wrong
        way round (module docstring of kfunmix.abundance)."""
        rng = np.random.default_rng(int(np.log10(cond)))
        for k in range(2, MAX_ENDMEMBERS + 1):
            c = family(rng, 40, k, cond)
            y = targets_for(rng, c)
            _, want = oracle(c, y)
            got = residuals(c, y, nonneg_least_squares(c, y))
            assert np.all(got - want <= 1e-12 * want)


class TestEdgeCases:
    def test_nonpositive_and_zero_targets_give_exact_zeros(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(0.1, 1.0, size=(30, 4))
        y = np.column_stack([-c @ rng.uniform(0.1, 1.0, size=4), np.zeros(30), c[:, 1]])
        assert np.all(c.T @ y[:, 0] <= 0.0)
        got = nonneg_least_squares(c, y)
        assert np.array_equal(got[:2], np.zeros((2, 4)))
        want, _ = oracle(c, y)
        np.testing.assert_array_equal(want[:2], 0.0)
        np.testing.assert_allclose(got[2], [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_exact_targets_on_a_face_come_back_nonnegative(self):
        """Zero coefficients of exact targets leave candidates a few ulps
        below 0 (64 of 327 such entries here); the clamp removes them."""
        rng = np.random.default_rng(10)
        c = rng.uniform(0.0, 1.0, size=(30, 4))
        x = rng.uniform(0.5, 2.0, size=(4, 200))
        x[rng.uniform(size=x.shape) < 0.4] = 0.0
        got = nonneg_least_squares(c, c @ x)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, x.T, rtol=0.0, atol=1e-13)

    def test_rank_deficient_design_warns_and_stays_finite(self):
        c = np.tile(np.array([[0.3, 0.7]]), (10, 1))  # two proportional columns
        y = np.linspace(0.5, 1.5, 10)[:, None] * np.ones((1, 5))
        with pytest.warns(UserWarning, match="rank deficient"):
            got = nonneg_least_squares(c, y)
        assert got.shape == (5, 2)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)

    @pytest.mark.parametrize(
        "cond, seed",
        [(1e9, 25), (1e10, 5), (1e10, 23), (1e10, 37), (1e11, 2), (1e11, 5), (1e11, 15),
         (1e11, 29), (1e12, 1), (1e12, 13)],
    )
    def test_a_gram_singular_below_the_cond_limit_is_ridged(self, cond, seed):
        """cond(C) <= COND_LIMIT, yet G = C^T C has condition number
        cond(C)^2, and these designs leave it singular on some support.
        Measured excess over scipy's residual: at most 3.1e-16 relative."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.random((60, 3)))
        v, _ = np.linalg.qr(rng.random((3, 3)))
        c = u @ np.diag([1.0, cond**-0.5, 1.0 / cond]) @ v.T
        y = rng.random((60, 4))
        with pytest.warns(UserWarning, match="rank deficient"):
            got = nonneg_least_squares(c, y)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        _, want = oracle(c, y)
        assert np.all(residuals(c, y, got) - want <= 1e-12 * want)

    def test_well_conditioned_design_does_not_warn(self):
        rng = np.random.default_rng(8)
        c = rng.uniform(0.0, 1.0, size=(20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nonneg_least_squares(c, targets_for(rng, c))

    def test_output_is_nonnegative_one_row_per_target(self):
        rng = np.random.default_rng(9)
        c = rng.uniform(0.0, 1.0, size=(25, 5))
        got = nonneg_least_squares(c, targets_for(rng, c, n_targets=17))
        assert got.shape == (17, 5) and got.dtype == np.float64
        assert np.all(got >= 0.0)

    def test_at_most_max_endmembers_columns(self):
        with pytest.raises(ValueError, match="at most"):
            nonneg_least_squares(np.ones((20, MAX_ENDMEMBERS + 1)), np.ones((20, 2)))
