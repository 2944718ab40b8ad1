"""Tests for the cone-constrained subspace regression and its cached solver."""
import re
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import blas
from scipy.optimize import minimize

from kfunmix import regression
from kfunmix.datamodel import EndmemberMatrix
from kfunmix.fourier import build_basis
from kfunmix.kalman import NumericalError
from kfunmix.metrics import asad
from kfunmix.pipeline import PipelineConfig, init_pipeline, pipeline_step
from kfunmix.regression import (
    ADMM_ITERS,
    RHO,
    RegressorSet,
    build_regressor_set,
    solve_regression,
)
from kfunmix.synthdata import SynthConfig, generate_dataset
from qp_oracle import cvxpy_minimum, qp_minimum


def make_instance(
    seed, n_regressors=5, n_channels=8, n_harmonics=2, n_out=2, noise_scale=1.0
):
    """Random system, its basis, and a target that keeps the constraint active.

    The reduced target T = Yr mix + noise is handed over in channels, as
    F^T T, whose reduction is T: F's rows are orthonormal but for the zero
    DC-sine row, which Yr shares, so T's entry there enters no fit."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 1.0, size=(n_regressors, n_channels))
    basis = build_basis(n_channels, n_harmonics)
    regressors = build_regressor_set(rows, basis)
    mix = rng.uniform(0.2, 1.0, size=(n_regressors, n_out))
    noise = noise_scale * rng.normal(size=(2 * n_harmonics, n_out))
    reduced = basis.operator @ regressors.full_space
    return regressors, basis, basis.operator.T @ (reduced @ mix + noise)


def reduced_problem(regressors, basis, target):
    """The paper's reduced-domain problem of a channel target S:
    (Yr, Y, T) with Yr = F Y and T = F S."""
    operator = basis.operator
    return operator @ regressors.full_space, regressors.full_space, operator @ target


# (seed, P, L, M, K, noise scale, iterations): the small instance, the L400
# K5 stream operating point, and an L200 instance with 2M - 1 < P.  In the
# two large cases the noise is about a tenth of the largest clean target
# entry, enough to make the constraint active.
DENSE_CASES = [
    (4, 5, 8, 2, 2, 1.0, 30),
    (13, 30, 400, 16, 5, 20.0, ADMM_ITERS),
    (14, 30, 200, 8, 3, 12.0, ADMM_ITERS),
]


# (seed, P, L, M, K, noise scale) of the kernel checks: the L400 K5 and L200
# K3 stream operating points (2M - 1 < P in the second) and a single
# component, whose (P, 1) and (L, 1) arrays are both C- and F-contiguous.
KERNEL_CASES = [
    (13, 30, 400, 16, 5, 20.0),
    (14, 30, 200, 8, 3, 12.0),
    (15, 30, 200, 8, 1, 12.0),
]


def admm_loop(regressors, target, iterations, lift_product, full_product):
    """The ADMM recursion with one allocating call per operation, as
    ``solve_regression`` ran it before the BLAS kernel, with the two
    products of each iteration formed by ``lift_product`` and
    ``full_product``."""
    const = regressors.target_map @ target
    v = np.zeros((regressors.full_space.shape[0], target.shape[1]))
    for _ in range(iterations):
        coeff = const + lift_product(regressors.lift, np.abs(v))
        recon = full_product(regressors.full_space, coeff)
        v = recon + np.minimum(v, 0.0)
    return coeff, np.maximum(recon, 0.0), np.maximum(v, 0.0), RHO * np.maximum(-v, 0.0)


def dgemm_nn(a, b):
    return blas.dgemm(1.0, a, b)


def dgemm_tn(a, b):
    """a @ b as dgemm's transposed op on a's transpose, the kernel's form of
    the lift product."""
    return blas.dgemm(1.0, a.T, b, trans_a=1)


def relaid(regressors, layout):
    """The same regressor set as ``build_regressor_set`` returns it
    ("built") or rebuilt by hand from all C- or all Fortran-ordered arrays."""
    if layout == "built":
        return regressors
    order = np.ascontiguousarray if layout == "c" else np.asfortranarray
    return RegressorSet(
        order(regressors.full_space), order(regressors.target_map), order(regressors.lift)
    )


def solve_for(monkeypatch, iterations, regressors, target):
    """``solve_regression`` run for ``iterations`` ADMM iterations from zero."""
    monkeypatch.setattr(regression, "ADMM_ITERS", iterations)
    return solve_regression(regressors, target)


def kernel_outputs(monkeypatch, regressors, target, iterations):
    result = solve_for(monkeypatch, iterations, regressors, target)
    return result.coefficients, result.endmembers.values, *result.duals


def qp_oracle(regressors, basis, target):
    """Optimal objective of the reduced-domain quadratic program, exact by enumeration."""
    return qp_minimum(*reduced_problem(regressors, basis, target))[1]


def admm_objective(regressors, basis, target, result):
    reduced, _, t = reduced_problem(regressors, basis, target)
    resid = reduced @ result.coefficients - t
    return float(np.sum(resid**2))


class TestBuildRegressorSet:
    def test_shapes_and_factorization(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.1, 1.0, size=(6, 20))
        basis = build_basis(20, 3)
        regs = build_regressor_set(rows, basis)
        assert [field.name for field in fields(regs)] == ["full_space", "target_map", "lift"]
        assert regs.full_space.shape == (20, 6)
        assert regs.target_map.shape == regs.lift.shape == (6, 20)
        np.testing.assert_array_equal(regs.full_space, rows.T)
        full, reduced = regs.full_space, basis.operator @ regs.full_space
        normal = 2.0 * reduced.T @ reduced + RHO * full.T @ full
        np.testing.assert_allclose(
            normal @ regs.target_map, 2.0 * reduced.T @ basis.operator, atol=1e-10
        )
        np.testing.assert_allclose(normal @ regs.lift, RHO * full.T, atol=1e-10)

    def test_duplicate_rows_are_singular(self):
        rows = np.vstack([np.linspace(0.1, 1.0, 12)] * 3)
        with pytest.raises(ValueError, match="regression system is singular"):
            build_regressor_set(rows, build_basis(12, 2))

    def test_near_duplicate_rows_warn(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 1.0, size=40)
        rows = np.vstack(
            [base, base + 1e-4 * rng.uniform(0.1, 1.0, size=40), rng.uniform(size=40)]
        )
        with pytest.warns(UserWarning, match=r"poorly conditioned \(cond=") as caught:
            build_regressor_set(rows, build_basis(40, 4))
        cond = float(str(caught[0].message).split("cond=")[1].rstrip(")"))
        assert 1e8 < cond < 1e12

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="spectra must be 2-dimensional, got ndim=1"):
            build_regressor_set(np.ones(8), build_basis(8, 2))

    def test_regressor_set_validation(self):
        for target_map, lift in (((4, 8), (3, 8)), ((3, 8), (8, 3))):
            with pytest.raises(ValueError, match=r"must be \(P, L\) for \(L, P\) = \(8, 3\)"):
                RegressorSet(np.ones((8, 3)), np.ones(target_map), np.ones(lift))


class TestQpOracle:
    """The enumeration oracle against an independent solver and known optima."""

    @staticmethod
    def slsqp_objective(reduced, full, target):
        total = 0.0
        start = np.linalg.lstsq(full, np.ones(full.shape[0]), rcond=None)[0]
        for col in target.T:
            res = minimize(
                lambda r: np.sum((reduced @ r - col) ** 2),
                start,
                jac=lambda r: 2.0 * reduced.T @ (reduced @ r - col),
                constraints=[{"type": "ineq", "fun": lambda r: full @ r, "jac": lambda r: full}],
                method="SLSQP",
                options={"ftol": 1e-15, "maxiter": 1000},
            )
            assert res.success
            total += float(res.fun)
        return total

    def test_matches_slsqp(self):
        """On instances with an active constraint, no feasible point found
        by SLSQP beats the oracle, and the oracle's own point is feasible
        with the objective it reports."""
        active = 0
        for seed in range(20):
            reduced, full, target = reduced_problem(*make_instance(seed))
            coeff, optimum = qp_minimum(reduced, full, target)
            assert np.min(full @ coeff) >= -1e-9
            resid = reduced @ coeff - target
            assert np.sum(resid**2) == pytest.approx(optimum, rel=1e-12)
            reference = self.slsqp_objective(reduced, full, target)
            assert optimum <= reference + 1e-10 * max(1.0, reference)
            assert reference - optimum <= 1e-6 * max(1.0, reference)
            unconstrained = np.linalg.lstsq(reduced, target, rcond=None)[0]
            active += np.min(full @ unconstrained) < 0.0
        assert active >= 10

    def test_target_in_the_cone_image_has_zero_objective(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.1, 1.0, size=(5, 8))
        basis = build_basis(8, 2)
        regressors = build_regressor_set(rows, basis)
        target = regressors.full_space @ rng.uniform(0.2, 1.0, size=(5, 2))
        _, optimum = qp_minimum(*reduced_problem(regressors, basis, target))
        assert optimum <= 1e-20

    def test_infeasible_unconstrained_fit_is_rejected(self):
        """Targets whose least-squares fit needs a negative spectrum: the
        optimum is the nearest point of the cone, not the free fit, and for
        an all-negative target it is the apex, where all P constraints bind."""
        full = np.eye(3)
        reduced = np.eye(3)
        target = np.array([[1.0, -1.0], [-2.0, -2.0], [0.5, -0.5]])
        coeff, optimum = qp_minimum(reduced, full, target)
        np.testing.assert_allclose(coeff, [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]], atol=1e-15)
        assert optimum == pytest.approx(4.0 + 5.25, rel=1e-14)


class TestSolveRegression:
    def test_matches_quadratic_program(self, monkeypatch):
        """Long runs must close the objective gap to the QP reference."""
        for seed in range(5):
            regressors, basis, target = make_instance(seed)
            result = solve_for(monkeypatch, 10000, regressors, target)
            optimum = qp_oracle(regressors, basis, target)
            gap = admm_objective(regressors, basis, target, result) - optimum
            assert abs(gap) <= 1e-4
            reference = cvxpy_minimum(*reduced_problem(regressors, basis, target))
            if reference is not None:
                assert abs(reference - optimum) <= 1e-4

    def test_estimate_is_nonnegative(self):
        regressors, _, target = make_instance(11)
        result = solve_regression(regressors, target)
        assert np.min(result.endmembers.values) >= 0.0

    def test_exact_representation_recovered(self, monkeypatch):
        """A target already in the cone's image comes back residual-free."""
        rng = np.random.default_rng(2)
        rows = rng.uniform(0.1, 1.0, size=(5, 16))
        basis = build_basis(16, 3)
        regressors = build_regressor_set(rows, basis)
        mix = rng.uniform(0.2, 1.0, size=(5, 2))
        target = regressors.full_space @ mix
        result = solve_for(monkeypatch, 5000, regressors, target)
        assert admm_objective(regressors, basis, target, result) < 1e-10

    def test_matches_dense_reimplementation(self, monkeypatch):
        """The single-iterate recursion on cached maps equals the textbook
        (U, lambda) iteration with a dense solve each step, from a small
        instance up to the stream's operating points, including one where
        2M - 1 < P leaves the objective without a unique minimiser."""
        for seed, n_regressors, n_channels, n_harmonics, n_out, scale, iterations in DENSE_CASES:
            regressors, basis, target = make_instance(
                seed, n_regressors, n_channels, n_harmonics, n_out, scale
            )
            result = solve_for(monkeypatch, iterations, regressors, target)

            reduced, full, t = reduced_problem(regressors, basis, target)
            normal = 2.0 * reduced.T @ reduced + RHO * full.T @ full
            u = np.zeros((full.shape[0], t.shape[1]))
            lam = np.zeros_like(u)
            for _ in range(iterations):
                coeff = np.linalg.solve(
                    normal, 2.0 * reduced.T @ t + full.T @ (lam + RHO * u)
                )
                recon = full @ coeff
                u = np.maximum(recon - lam / RHO, 0.0)
                lam = lam + RHO * (u - recon)
            case = f"L={n_channels} M={n_harmonics} P={n_regressors} K={n_out}"
            assert np.any(lam > 0.0), case
            for got, want in zip((result.coefficients, *result.duals), (coeff, u, lam)):
                gap = np.abs(got - want).max()
                assert gap <= 1e-10 * np.abs(want).max(), case

    def test_feasibility_gap_closes_without_being_monotone(self, monkeypatch):
        """The split-variable gap is open after 100 iterations and closed
        after 10 000; the iteration state is exactly (U, lambda), so these
        are two samples of one trajectory from zero."""
        regressors, _, target = make_instance(5)
        gaps = []
        for iterations in (100, 10_000):
            result = solve_for(monkeypatch, iterations, regressors, target)
            recon = regressors.full_space @ result.coefficients
            gaps.append(float(np.linalg.norm(result.duals[0] - recon)))
        assert gaps[0] > 0.0
        assert gaps[-1] <= 1e-10

    def test_tiny_target_scales_down(self, monkeypatch):
        """Positive homogeneity: a barely nonzero target gives a barely
        nonzero estimate instead of collapsing."""
        rng = np.random.default_rng(7)
        rows = rng.uniform(0.1, 1.0, size=(4, 12))
        basis = build_basis(12, 2)
        regressors = build_regressor_set(rows, basis)
        mix = rng.uniform(0.2, 1.0, size=(4, 2))
        target = 1e-8 * (regressors.full_space @ mix)
        result = solve_for(monkeypatch, 200, regressors, target)
        assert 0.0 < np.linalg.norm(result.endmembers.values) < 1e-6
        assert np.linalg.norm(result.coefficients) < 1e-6

    def test_budget_is_the_module_constant_read_at_each_call(self, monkeypatch):
        """Without a keyword the kernel runs ADMM_ITERS iterations, the
        constant as it stands when called: the default run equals the loop
        at ADMM_ITERS, and a budget set afterwards takes effect."""
        seed, n_regressors, n_channels, n_harmonics, n_out, scale = KERNEL_CASES[1]
        regressors, _, target = make_instance(
            seed, n_regressors, n_channels, n_harmonics, n_out, scale
        )
        default = solve_regression(regressors, target)
        want = admm_loop(regressors, target, ADMM_ITERS, dgemm_tn, dgemm_nn)
        np.testing.assert_array_equal(default.coefficients, want[0])
        shorter = solve_for(monkeypatch, ADMM_ITERS // 2, regressors, target)
        assert not np.array_equal(shorter.coefficients, default.coefficients)
        with pytest.raises(TypeError, match="iterations"):
            solve_regression(regressors, target, iterations=ADMM_ITERS)

    def test_zero_target_collapses_to_numerical_error(self):
        regressors, _, _ = make_instance(8)
        target = np.zeros((8, 2))
        with pytest.raises(NumericalError, match="collapsed endmember column"):
            solve_regression(regressors, target)

    def test_target_row_mismatch(self):
        """A target without the L channel rows, a reduced (2M, K) one among
        them, is named with the regressors' shape."""
        regressors, _, _ = make_instance(10)
        for bad in (np.ones((4, 2)), np.ones((9, 2)), np.ones(8)):
            shape = re.escape(str(bad.shape))
            with pytest.raises(
                ValueError,
                match=rf"target of shape {shape} does not have the L rows of the "
                r"\(L, P\) = \(8, 5\) regressors",
            ):
                solve_regression(regressors, bad)

    @pytest.mark.parametrize("case", KERNEL_CASES[:2], ids=["L400-M16-K5", "L200-M8-K3"])
    def test_what_the_subspace_drops_changes_nothing(self, monkeypatch, case):
        """The fit sees the target only through its retained harmonics:
        adding Z - F^T (F Z), which F maps to zero, moves no output by more
        than rounding."""
        seed, n_regressors, n_channels, n_harmonics, n_out, scale = case
        regressors, basis, target = make_instance(
            seed, n_regressors, n_channels, n_harmonics, n_out, scale
        )
        z = np.random.default_rng(seed).normal(scale=scale, size=target.shape)
        dropped = z - basis.operator.T @ (basis.operator @ z)
        assert np.abs(dropped).max() > 0.1 * np.abs(target).max()
        want = kernel_outputs(monkeypatch, regressors, target, ADMM_ITERS)
        got = kernel_outputs(monkeypatch, regressors, target + dropped, ADMM_ITERS)
        for name, g, w in zip(("coefficients", "endmembers", "U", "lambda"), got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name

    def test_non_finite_target_rejected(self):
        regressors, _, target = make_instance(10)
        for bad in (np.nan, np.inf, -np.inf):
            target[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                solve_regression(regressors, target)


class TestBlasKernel:
    """The dgemm kernel of ``solve_regression`` against the loop it replaced."""

    @pytest.mark.parametrize("iterations", [2, 50, 500])
    @pytest.mark.parametrize("layout", ["built", "c", "fortran"])
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: f"L{c[2]}-M{c[3]}-K{c[4]}")
    def test_bit_identical_to_the_loop_on_the_same_blas(
        self, monkeypatch, case, layout, iterations
    ):
        """With the products formed by the same BLAS in the kernel's forms
        (the lift product transposed, Y R untransposed), the beta = 1 sums,
        the in-place buffers and the peeled first and last iterations change
        no bit of the coefficients, the estimate or either dual, whatever the
        layout.  At two iterations the peeled ones meet."""
        seed, n_regressors, n_channels, n_harmonics, n_out, scale = case
        regressors, _, target = make_instance(
            seed, n_regressors, n_channels, n_harmonics, n_out, scale
        )
        regressors = relaid(regressors, layout)
        want = admm_loop(regressors, target, iterations, dgemm_tn, dgemm_nn)
        got = kernel_outputs(monkeypatch, regressors, target, iterations)
        for name, g, w in zip(("coefficients", "endmembers", "U", "lambda"), got, want):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("iterations", [2, 50, 500])
    @pytest.mark.parametrize("case", KERNEL_CASES[1:2], ids=["L200-M8-K3"])
    def test_bit_identical_to_the_numpy_loop_at_the_operating_points(
        self, monkeypatch, case, iterations
    ):
        """NumPy and SciPy each ship a BLAS build; at the L200 K3 operating
        point, with the set ``build_regressor_set`` returns, the ``@`` loop
        and the kernel agree bit for bit.  At L400 K5 NumPy's kernel for the
        C-ordered lift sums in another order, and only the rounding bound
        of the next test holds."""
        seed, n_regressors, n_channels, n_harmonics, n_out, scale = case
        regressors, _, target = make_instance(
            seed, n_regressors, n_channels, n_harmonics, n_out, scale
        )
        assert regressors.full_space.flags.f_contiguous
        assert regressors.lift.flags.c_contiguous
        want = admm_loop(regressors, target, iterations, np.matmul, np.matmul)
        got = kernel_outputs(monkeypatch, regressors, target, iterations)
        for name, g, w in zip(("coefficients", "endmembers", "U", "lambda"), got, want):
            assert np.array_equal(g, w), name
            # Later BLAS calls round differently on the other memory layout.
            assert g.flags.c_contiguous == w.flags.c_contiguous, name

    @pytest.mark.parametrize("layout", ["built", "c", "fortran"])
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: f"L{c[2]}-M{c[3]}-K{c[4]}")
    def test_numpy_loop_within_rounding_anywhere(self, monkeypatch, case, layout):
        """Where NumPy's BLAS forms a product in another order (gemv at
        K = 1, other kernels for the C-ordered lift at L400) the two stay
        within rounding: 500 iterations move no entry by 1e-12 of the
        largest."""
        seed, n_regressors, n_channels, n_harmonics, n_out, scale = case
        regressors, _, target = make_instance(
            seed, n_regressors, n_channels, n_harmonics, n_out, scale
        )
        regressors = relaid(regressors, layout)
        want = admm_loop(regressors, target, 500, np.matmul, np.matmul)
        got = kernel_outputs(monkeypatch, regressors, target, 500)
        for name, g, w in zip(("coefficients", "endmembers", "U", "lambda"), got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name

    def test_inputs_are_left_untouched(self):
        """The beta = 1 product writes into a copy of the constant term and
        into the kernel's own iterate, never into the caller's arrays."""
        regressors, _, target = make_instance(15, 30, 200, 8, 1, 12.0)
        saved = [a.copy() for a in (regressors.full_space, regressors.lift,
                                    regressors.target_map, target)]
        solve_regression(regressors, target)
        for before, after in zip(saved, (regressors.full_space, regressors.lift,
                                         regressors.target_map, target)):
            assert np.array_equal(before, after)


def nn_form_solve(regressors, posterior):
    """The estimate of ``solve_regression`` with the lift product in the NN
    form it took before: SciPy's dgemm on a Fortran-ordered copy of the lift.
    The step hands over its posterior state and reads only the estimate."""
    _, estimate, _, _ = admm_loop(regressors, posterior.mean, ADMM_ITERS, dgemm_nn, dgemm_nn)
    return SimpleNamespace(endmembers=EndmemberMatrix(estimate))


class TestStreamEquivalence:
    """Whole streams through the kernel and through the NN-form solve."""

    def test_build_stores_fortran_regressors_and_a_c_ordered_lift(self):
        regressors, _, _ = make_instance(*KERNEL_CASES[0])
        assert regressors.full_space.flags.f_contiguous
        assert regressors.lift.flags.c_contiguous
        assert not regressors.lift.flags.f_contiguous

    # (L, K, M or None for the eta criterion, data seed): the two stream
    # operating points, 300 acquisitions after 30 init spectra each.
    @pytest.mark.parametrize(
        "n_channels, n_out, n_harmonics, seed",
        [(400, 5, 16, 1), (200, 3, None, 2)],
        ids=["L400-K5-M16", "L200-K3"],
    )
    def test_stream_matches_the_nn_form(self, monkeypatch, n_channels, n_out, n_harmonics, seed):
        data = generate_dataset(
            SynthConfig(n_spectra=330, n_channels=n_channels, n_endmembers=n_out, seed=seed)
        )
        rows = data.spectra.values
        config = PipelineConfig(n_endmembers=n_out, n_harmonics=n_harmonics)

        def final_endmembers():
            state = init_pipeline(rows[:30], config)
            for row in rows[30:]:
                state, _ = pipeline_step(state, row)
            return state.endmembers.full.values

        got = final_endmembers()
        monkeypatch.setattr("kfunmix.pipeline.solve_regression", nn_form_solve)
        want = final_endmembers()
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert abs(asad(got, data.endmembers) - asad(want, data.endmembers)) <= 1e-9

