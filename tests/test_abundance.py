"""Tests for simplex-constrained abundance estimation against grid oracles."""
import re
import warnings

import numpy as np
import pytest

from kfunmix.abundance import (
    MAX_ENDMEMBERS,
    FclsConfig,
    estimate_concentration,
    estimate_concentrations,
)
from kfunmix.datamodel import COND_WARN, RIDGE, EndmemberMatrix, NumericalError
from kfunmix.metrics import asad
from kfunmix.pipeline import PipelineConfig, init_pipeline, pipeline_step, run_experiment
from kfunmix.protocols import protocol_p1
from kfunmix.synthdata import SynthConfig, generate_dataset

from fcls_reference import (
    candidates,
    reference_concentration,
    reference_concentrations,
    support_masks,
)


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

    # n = 1 takes the batched solve, n = 3 the stacked inverse.
    @pytest.mark.parametrize("n", [1, 3])
    def test_single_component_is_trivial(self, n):
        s = np.ones((5, 1))
        out = estimate_concentrations(np.random.default_rng(4).normal(size=(n, 5)), s)
        np.testing.assert_array_equal(out, np.ones((n, 1)))

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

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 2)])
    def test_endmembers_must_be_a_matrix(self, shape):
        s = np.ones(shape)
        match = re.escape(f"(L, K) matrix, got shape {shape}")
        with pytest.raises(ValueError, match=match):
            estimate_concentrations(np.ones((2, 5)), s)
        with pytest.raises(ValueError, match=match):
            estimate_concentration(np.ones(5), s)

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

    @pytest.mark.parametrize("scale, singular", [(1.0, False), (1e3, True), (1e4, True)])
    def test_duplicate_columns_solve_or_raise_numerical_error(self, scale, singular):
        """Two identical columns leave the Gram singular up to the 1e-10
        ridge.  At scale 1 the ridge still counts and the solve goes on; at
        1e3 and beyond lambda_min(G) + ridge falls under K eps lambda_max(G),
        and the solve raises NumericalError before any inverse is formed."""
        rng = np.random.default_rng(13)
        s = rng.uniform(0.1, 1.0, size=(40, 3))
        s[:, 1] = s[:, 0]
        s *= scale
        rows = rng.dirichlet(np.ones(3), size=4) @ s.T
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "endmember matrix is ill-conditioned")
            if singular:
                with pytest.raises(NumericalError, match="singular to working precision"):
                    estimate_concentrations(rows, s)
                return
            out = estimate_concentrations(rows, s)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_duplicate_synthetic_endmembers_have_one_outcome_per_scale(self, scale):
        """Whether LAPACK meets an exact zero pivot on a duplicated column
        depends on the rounding of its squared norm; the eigenvalue rule
        does not.  At 1e3 all 20 datasets raise (LAPACK alone let 2 of them
        through), and at scale 1 all 20 solve."""
        outcomes = []
        for seed in range(20):
            data = generate_dataset(
                SynthConfig(n_spectra=60, n_channels=40, n_endmembers=2, seed=seed)
            )
            s = data.endmembers.values.copy()
            s[:, 1] = s[:, 0]
            s *= scale
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "endmember matrix is ill-conditioned")
                try:
                    estimate_concentrations(data.spectra.values[:5] * scale, s)
                    outcomes.append("solved")
                except NumericalError:
                    outcomes.append("raised")
        assert outcomes == ["raised" if scale > 1.0 else "solved"] * 20

    def test_mixtures_on_a_face_come_back_nonnegative(self):
        """Noise-free mixtures with some zero abundances lie on a face of the
        simplex, where the larger supports' candidates carry entries of
        rounding size and either sign (18 chosen entries in (-1e-12, 0) on
        this data); the exit clamps those at 0."""
        rng = np.random.default_rng(0)
        s = rng.uniform(0.1, 1.0, size=(30, 6))
        mix = rng.dirichlet(np.ones(6), size=400) * (rng.uniform(size=(400, 6)) < 0.6)
        mix = mix[mix.sum(axis=1) > 0]
        mix /= mix.sum(axis=1, keepdims=True)
        out = estimate_concentrations(mix @ s.T, s)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(out, mix, rtol=0.0, atol=1e-9)

    def test_output_is_c_ordered_float64_with_exact_zeros_off_support(self):
        rng = np.random.default_rng(14)
        s = rng.uniform(0.1, 1.0, size=(30, 5))
        rows = rng.dirichlet(np.full(5, 0.3), size=40) @ s.T + 0.05 * rng.normal(size=(40, 30))
        out = estimate_concentrations(rows, s)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        _, objective = candidates(rows, s)
        support = support_masks(5).astype(bool)[np.argmin(objective, axis=0)]
        assert np.all(out[~support] == 0.0)
        assert np.all(out[support] > 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_non_finite_endmember_entry_is_rejected_before_the_svd(self, cond_calls, bad, k):
        """A NaN or an infinity in S reaches the diagonal of the Gram, which
        rejects it before the screen, the SVD or the solve can run."""
        s = with_condition(10.0, k=k)
        s[7, k - 1] = bad
        rows = np.random.default_rng(5).normal(size=(2, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or an infinity"):
                estimate_concentrations(rows, s)
        assert cond_calls == []

    @pytest.mark.parametrize("cond", [1e3, 1e6, 3e6, 1e7, 9e7, 1.1e8, 1e10, 1e14])
    def test_warns_exactly_when_the_svd_condition_passes_the_bound(self, cond):
        s = with_condition(cond, k=4, seed=int(np.log10(cond)))
        rows = np.random.default_rng(4).normal(size=(3, 40))
        warned = bool(ill_conditioning_warnings(rows, s))
        assert warned == (np.linalg.cond(s) > COND_WARN)


def design(kind, k, n, seed):
    """Endmembers and noisy mixtures: ``random`` columns, or columns sharing one
    base spectrum plus a perturbation of relative size 1e-1 or 1e-2, with
    cond(G) near 1e3-1e4 and 1e5-1e6."""
    rng = np.random.default_rng(seed)
    n_channels = 80
    if kind == "random":
        s = rng.uniform(0.1, 1.0, size=(n_channels, k))
    else:
        amplitude = {"near-collinear-1e-1": 1e-1, "near-collinear-1e-2": 1e-2}[kind]
        s = rng.uniform(0.1, 1.0, size=(n_channels, 1)) + amplitude * rng.uniform(
            size=(n_channels, k)
        )
    rows = rng.dirichlet(np.full(k, 0.5), size=n) @ s.T + 0.02 * rng.normal(size=(n, n_channels))
    return rows, s


def assert_matches_reference(rows, s):
    """Wherever the reference's best objective beats its second best by more
    than 1e-9, the support is the same, with exact zeros off it, and the
    rows agree within 1e-12, or within 10 eps cond(G) where the Gram's
    conditioning makes either formulation's rounding larger.  On a closer
    call the solver may take the other support, whose objective is then
    within 1e-9."""
    k = s.shape[1]
    got = estimate_concentrations(rows, s)
    want = reference_concentrations(rows, s)
    gram = s.T @ s + RIDGE * np.eye(k)
    _, objective = candidates(rows, s)
    ordered = np.sort(objective, axis=0)
    clear = ordered[1] - ordered[0] > 1e-9
    support = support_masks(k).astype(bool)[np.argmin(objective, axis=0)]
    np.testing.assert_array_equal((got != 0.0)[clear], support[clear])
    tol = max(1e-12, 10 * np.finfo(np.float64).eps * np.linalg.cond(gram))
    np.testing.assert_allclose(got[clear], want[clear], rtol=0.0, atol=tol)
    got_objective = 0.5 * np.einsum("nk,kj,nj->n", got, gram, got) - np.einsum(
        "nk,kn->n", got, s.T @ rows.T
    )
    assert np.all(got_objective <= ordered[0] + 1e-9)
    return got


# (K, n) on both sides of the row-count rule: up to (K + 1) // 2 rows solve
# the bordered systems directly, more rows invert them once.
ROW_COUNT_CASES = sorted(
    {
        (k, n)
        for k in (2, 3, 4, 5, 6, 7, 8, 12)
        for n in (1, 2, (k + 1) // 2, (k + 1) // 2 + 1, k + 1)
    }
)


class TestAgainstReference:
    """The bordered-KKT solver against the H_A/Schur enumeration it replaced."""

    @pytest.mark.parametrize("kind", ["random", "near-collinear-1e-1", "near-collinear-1e-2"])
    @pytest.mark.parametrize("n", [1, 15, 215])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_rows_and_supports_match(self, k, n, kind):
        rows, s = design(kind, k, n, seed=1000 * k + n)
        assert_matches_reference(rows, s)

    @pytest.mark.parametrize("kind", ["random", "near-collinear-1e-1", "near-collinear-1e-2"])
    @pytest.mark.parametrize("k, n", ROW_COUNT_CASES)
    def test_both_sides_of_the_row_count_rule(self, k, n, kind):
        rows, s = design(kind, k, n, seed=100 * k + n)
        got = assert_matches_reference(rows, s)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        if n == 1:
            single = estimate_concentration(rows[0], s)
            assert single.dtype == np.float64 and single.flags.c_contiguous
            np.testing.assert_array_equal(single, got[0])

    @pytest.mark.parametrize("n, solver", [(1, "solve"), (3, "solve"), (4, "inv")])
    def test_singular_bordered_system_raises_numerical_error(self, monkeypatch, n, solver):
        """LAPACK's verdict on a bordered matrix is the backstop behind the
        eigenvalue rule, on either side of the row-count rule (K = 5)."""

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        rows, s = design("random", 5, n, seed=n)
        monkeypatch.setattr(np.linalg, solver, singular)
        with pytest.raises(NumericalError, match="singular on some support"):
            estimate_concentrations(rows, s)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("kind", ["near-collinear-1e-1", "near-collinear-1e-2"])
    def test_within_two_eps_cond_of_the_exact_support_solution(self, k, kind):
        """On the support the reference picks, the bordered system solved in
        40-digit arithmetic gives the exact candidate; the solver stays
        within 2 eps cond(G) of it (measured: up to 1.1 eps cond(G); the
        H_A/Schur reference reads up to 1.9 on the same rows)."""
        mpmath = pytest.importorskip("mpmath")
        rows, s = design(kind, k, 12, seed=k)
        got = estimate_concentrations(rows, s)
        _, objective = candidates(rows, s)
        masks = support_masks(k)[np.argmin(objective, axis=0)]
        bound = 2 * np.finfo(np.float64).eps * np.linalg.cond(s.T @ s)
        with mpmath.workdps(40):
            for y, mask, row in zip(rows, masks, got):
                idx = np.flatnonzero(mask)
                sa = mpmath.matrix(s[:, idx].tolist())
                kkt = mpmath.matrix(idx.size + 1, idx.size + 1)
                rhs = mpmath.matrix(idx.size + 1, 1)
                gram = sa.T * sa
                b = sa.T * mpmath.matrix(y.tolist())
                for i in range(idx.size):
                    for j in range(idx.size):
                        kkt[i, j] = gram[i, j] + (mpmath.mpf(RIDGE) if i == j else 0)
                    kkt[i, idx.size] = kkt[idx.size, i] = 1
                    rhs[i] = b[i]
                rhs[idx.size] = 1
                exact = mpmath.lu_solve(kkt, rhs)
                want = np.zeros(k)
                want[idx] = [float(exact[i]) for i in range(idx.size)]
                assert np.abs(row - want).max() <= bound


class TestStreamEquivalence:
    """Whole streams through the solver and through the reference enumeration."""

    @staticmethod
    def use_reference(monkeypatch):
        monkeypatch.setattr("kfunmix.pipeline.estimate_concentration", reference_concentration)
        monkeypatch.setattr(
            "kfunmix.pipeline.estimate_concentrations", reference_concentrations
        )

    # (L, K, M or None for the eta criterion, data seed): the two stream
    # operating points, 300 acquisitions after 30 init spectra each.
    @pytest.mark.parametrize(
        "n_channels, n_out, n_harmonics, seed",
        [(400, 5, 16, 1), (200, 3, None, 2)],
        ids=["L400-K5-M16", "L200-K3"],
    )
    def test_stream_matches_the_reference(
        self, monkeypatch, n_channels, n_out, n_harmonics, seed
    ):
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
        self.use_reference(monkeypatch)
        want = final_endmembers()
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert abs(asad(got, data.endmembers) - asad(want, data.endmembers)) <= 1e-9

    def test_experiment_trace_matches_the_reference(self, monkeypatch):
        data = generate_dataset(
            SynthConfig(n_spectra=200, n_channels=200, n_endmembers=3, seed=3)
        )
        config = PipelineConfig(n_endmembers=3)
        got = run_experiment(data, protocol_p1(200), config, eval_stride=1)
        self.use_reference(monkeypatch)
        want = run_experiment(data, protocol_p1(200), config, eval_stride=1)
        assert [r.t for r in got.trace.records] == [r.t for r in want.trace.records]
        for field in ("asad_deg", "rmse", "re"):
            a = np.array([getattr(r, field) for r in got.trace.records], dtype=float)
            b = np.array([getattr(r, field) for r in want.trace.records], dtype=float)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)
        got_s = got.trace.final_endmembers.values
        want_s = want.trace.final_endmembers.values
        assert np.abs(got_s - want_s).max() <= 1e-10 * np.abs(want_s).max()
        np.testing.assert_allclose(
            got.trace.final_concentrations.values,
            want.trace.final_concentrations.values,
            rtol=0.0,
            atol=1e-9,
        )
