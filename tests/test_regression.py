"""Tests for the cone-constrained subspace regression and its cached solver."""
import numpy as np
import pytest

from kfunmix.fourier import ReducedMatrix, build_basis
from kfunmix.kalman import NumericalError
from kfunmix.regression import (
    AdmmConfig,
    RegressorSet,
    build_regressor_set,
    solve_regression,
)


def make_instance(seed, n_regressors=5, n_channels=8, n_harmonics=2, n_out=2):
    """Random system plus a target that keeps the constraint active."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 1.0, size=(n_regressors, n_channels))
    basis = build_basis(n_channels, n_harmonics)
    regressors = build_regressor_set(rows, basis, rho=1.0)
    mix = rng.uniform(0.2, 1.0, size=(n_regressors, n_out))
    noise = rng.normal(size=(2 * n_harmonics, n_out))
    target = ReducedMatrix(regressors.reduced_space @ mix + noise, n_harmonics)
    return regressors, target


def qp_oracle(regressors, target):
    """Reference solution of the constrained quadratic program."""
    cvxpy = pytest.importorskip("cvxpy")
    coeff = cvxpy.Variable((regressors.n_regressors, target.values.shape[1]))
    objective = cvxpy.Minimize(
        cvxpy.sum_squares(regressors.reduced_space @ coeff - target.values)
    )
    problem = cvxpy.Problem(objective, [regressors.full_space @ coeff >= 0])
    problem.solve()
    return float(problem.value)


def admm_objective(regressors, target, result):
    resid = regressors.reduced_space @ result.coefficients - target.values
    return float(np.sum(resid**2))


class TestBuildRegressorSet:
    def test_shapes_and_factorization(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.1, 1.0, size=(6, 20))
        basis = build_basis(20, 3)
        regs = build_regressor_set(rows, basis, rho=2.0)
        assert regs.full_space.shape == (20, 6)
        assert regs.reduced_space.shape == (6, 6)
        assert regs.n_regressors == 6
        assert regs.rho == 2.0
        np.testing.assert_array_equal(regs.full_space, rows.T)

    def test_duplicate_rows_are_singular(self):
        rows = np.vstack([np.linspace(0.1, 1.0, 12)] * 3)
        with pytest.raises(ValueError, match="regression system is singular"):
            build_regressor_set(rows, build_basis(12, 2), rho=1.0)

    def test_near_duplicate_rows_warn(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 1.0, size=40)
        rows = np.vstack(
            [base, base + 1e-4 * rng.uniform(0.1, 1.0, size=40), rng.uniform(size=40)]
        )
        with pytest.warns(UserWarning, match="poorly conditioned"):
            regs = build_regressor_set(rows, build_basis(40, 4), rho=1.0)
        assert 1e8 < regs.cache_cond < 1e12

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            build_regressor_set(np.ones(8), build_basis(8, 2), rho=1.0)

    def test_regressor_set_validation(self):
        with pytest.raises(ValueError, match="counts disagree"):
            RegressorSet(
                np.ones((8, 3)), np.ones((4, 2)), 1.0, 10.0, np.ones((2, 4)), np.ones((3, 8))
            )

    def test_admm_config_validation(self):
        with pytest.raises(ValueError, match="rho"):
            AdmmConfig(rho=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            AdmmConfig(max_iters=0)
        with pytest.raises(ValueError, match="primal_tol"):
            AdmmConfig(primal_tol=-1.0)


class TestSolveRegression:
    def test_matches_quadratic_program(self):
        """Long runs must close the objective gap to the QP reference."""
        for seed in range(5):
            regressors, target = make_instance(seed)
            result = solve_regression(regressors, target, AdmmConfig(1.0, 10000))
            gap = admm_objective(regressors, target, result) - qp_oracle(
                regressors, target
            )
            assert abs(gap) <= 1e-4

    def test_estimate_is_nonnegative(self):
        regressors, target = make_instance(11)
        result = solve_regression(regressors, target, AdmmConfig(1.0, 50))
        assert np.min(result.endmembers.values) >= 0.0

    def test_exact_representation_recovered(self):
        """A target already in the cone's image comes back residual-free."""
        rng = np.random.default_rng(2)
        rows = rng.uniform(0.1, 1.0, size=(5, 16))
        basis = build_basis(16, 3)
        regressors = build_regressor_set(rows, basis, rho=1.0)
        mix = rng.uniform(0.2, 1.0, size=(5, 2))
        target = ReducedMatrix(regressors.reduced_space @ mix, 3)
        result = solve_regression(regressors, target, AdmmConfig(1.0, 5000))
        assert admm_objective(regressors, target, result) < 1e-10

    def test_feasible_warm_start_is_fixed_point(self):
        """Warm-starting on a feasible optimum must not move the iterates."""
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.1, 1.0, size=(5, 16))
        basis = build_basis(16, 3)
        regressors = build_regressor_set(rows, basis, rho=1.0)
        mix = rng.uniform(0.2, 1.0, size=(5, 2))
        recon = rows.T @ mix
        target = ReducedMatrix(regressors.reduced_space @ mix, 3)
        result = solve_regression(
            regressors,
            target,
            AdmmConfig(1.0, 50),
            warm_start=(recon, np.zeros_like(recon)),
        )
        np.testing.assert_allclose(result.coefficients, mix, atol=1e-10)
        np.testing.assert_allclose(result.endmembers.values, recon, atol=1e-10)

    def test_matches_dense_reimplementation(self):
        """The cached Cholesky path equals a from-scratch dense iteration."""
        regressors, target = make_instance(4)
        result = solve_regression(regressors, target, AdmmConfig(1.0, 30))

        full, reduced = regressors.full_space, regressors.reduced_space
        normal = 2.0 * reduced.T @ reduced + 1.0 * full.T @ full
        t = target.values
        u = np.zeros((full.shape[0], t.shape[1]))
        lam = np.zeros_like(u)
        for _ in range(30):
            coeff = np.linalg.solve(normal, 2.0 * reduced.T @ t + full.T @ (lam + u))
            recon = full @ coeff
            u = np.maximum(recon - lam, 0.0)
            lam = lam + u - recon
        np.testing.assert_allclose(result.coefficients, coeff, atol=1e-10)

    def test_feasibility_gap_closes_without_being_monotone(self):
        """The split-variable gap converges to zero but may tick upward on
        the way; chained warm starts expose the sampled trajectory."""
        regressors, target = make_instance(5)
        gaps = []
        warm = None
        for _ in range(100):
            result = solve_regression(
                regressors, target, AdmmConfig(1.0, 100), warm_start=warm
            )
            warm = result.duals
            recon = regressors.full_space @ result.coefficients
            gaps.append(float(np.linalg.norm(result.duals[0] - recon)))
        assert gaps[0] > 0.0
        assert gaps[-1] <= 1e-10

    def test_primal_tol_stops_early(self):
        rng = np.random.default_rng(6)
        rows = rng.uniform(0.1, 1.0, size=(5, 16))
        basis = build_basis(16, 3)
        regressors = build_regressor_set(rows, basis, rho=1.0)
        mix = rng.uniform(0.2, 1.0, size=(5, 2))
        target = ReducedMatrix(regressors.reduced_space @ mix, 3)
        lazy = solve_regression(
            regressors, target, AdmmConfig(1.0, 10**6, primal_tol=1e-6)
        )
        assert float(np.linalg.norm(lazy.duals[0] - regressors.full_space @ lazy.coefficients)) <= 1e-6

    def test_tiny_target_scales_down(self):
        """Positive homogeneity: a barely nonzero target gives a barely
        nonzero estimate instead of collapsing."""
        rng = np.random.default_rng(7)
        rows = rng.uniform(0.1, 1.0, size=(4, 12))
        basis = build_basis(12, 2)
        regressors = build_regressor_set(rows, basis, rho=1.0)
        mix = rng.uniform(0.2, 1.0, size=(4, 2))
        target = ReducedMatrix(1e-8 * (regressors.reduced_space @ mix), 2)
        result = solve_regression(regressors, target, AdmmConfig(1.0, 200))
        assert 0.0 < np.linalg.norm(result.endmembers.values) < 1e-6
        assert np.linalg.norm(result.coefficients) < 1e-6

    def test_zero_target_collapses_to_numerical_error(self):
        regressors, _ = make_instance(8)
        target = ReducedMatrix(np.zeros((4, 2)), 2)
        with pytest.raises(NumericalError, match="collapsed endmember column"):
            solve_regression(regressors, target, AdmmConfig(1.0, 50))

    def test_rho_mismatch(self):
        regressors, target = make_instance(9)
        with pytest.raises(ValueError, match="does not match the cached system rho"):
            solve_regression(regressors, target, AdmmConfig(rho=2.0))

    def test_target_row_mismatch(self):
        regressors, _ = make_instance(10)
        bad = ReducedMatrix(np.zeros((6, 2)), 3)
        with pytest.raises(ValueError, match="reduced rows"):
            solve_regression(regressors, bad)

    def test_warm_start_shape_mismatch(self):
        regressors, target = make_instance(12)
        wrong = np.zeros((3, 2))
        with pytest.raises(ValueError, match="warm start shapes"):
            solve_regression(
                regressors, target, AdmmConfig(1.0, 10), warm_start=(wrong, wrong)
            )
