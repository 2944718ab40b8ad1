"""Tests for the streaming state estimators against dense-matrix oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dl_reference
from kfunmix.datamodel import RIDGE
from kfunmix.fourier import build_basis, reduce_columns, reduce_spectrum
from kfunmix.kalman import (
    FilterState,
    NumericalError,
    dl_update,
    kf_update,
    rls_update,
)


def dense_h(c, dim_obs):
    """Materialized observation matrix: c^T Kronecker identity."""
    return np.kron(np.asarray(c)[None, :], np.eye(dim_obs))


def stacked(mean):
    """The (D, K) mean as the length-DK state that stacks its columns."""
    return mean.reshape(-1, order="F")


def dense_kf_step(mean, cov, c, y, sigma_v2, sigma_e2):
    """Kalman step on the stacked (2MK,) state with a dense (2MK)^2 covariance."""
    h = dense_h(c, y.size)
    cov_pred = cov + sigma_v2 * np.eye(mean.size)
    innovation_cov = h @ cov_pred @ h.T + sigma_e2 * np.eye(y.size)
    gain = cov_pred @ h.T @ np.linalg.inv(innovation_cov)
    return mean + gain @ (y - h @ mean), cov_pred - gain @ h @ cov_pred


def dense_rls_step(mean, p_matrix, c, y, forgetting):
    """RLS step on the stacked (2MK,) state with a dense (2MK)^2 inverse Gram."""
    h = dense_h(c, y.size)
    denom = h @ p_matrix @ h.T + forgetting * np.eye(y.size)
    gain = p_matrix @ h.T @ np.linalg.inv(denom)
    return mean + gain @ (y - h @ mean), (p_matrix - gain @ h @ p_matrix) / forgetting


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.1 * np.eye(n)


def batch_map_oracle(mean0, cov0, concentrations, observations, sigma_e2):
    """Posterior mean of the static linear-Gaussian model, solved in one shot.

    With no process noise every observation constrains the same state, so
    the streaming filter must land exactly on the batch normal-equations
    solution regardless of arrival order.
    """
    dim_obs = observations[0].size
    precision = np.linalg.inv(cov0)
    rhs = precision @ mean0
    for c, y in zip(concentrations, observations):
        h = dense_h(c, dim_obs)
        precision = precision + h.T @ h / sigma_e2
        rhs = rhs + h.T @ y / sigma_e2
    return np.linalg.solve(precision, rhs)


class TestKalmanUpdate:
    def test_scalar_hand_case(self):
        """Unit prior, unit noise, observation 1: posterior is N(0.5, 0.5)."""
        state = FilterState(np.zeros((1, 1)), np.eye(1))
        out = kf_update(state, np.array([1.0]), np.array([1.0]), 0.0, 1.0)
        np.testing.assert_allclose(out.mean, [[0.5]])
        np.testing.assert_allclose(out.matrix, [[0.5]])

    def test_single_update_matches_dense_h(self):
        """The K x K update must equal the materialized Kronecker form."""
        rng = np.random.default_rng(0)
        n_blocks, dim_obs = 3, 4
        sigma0 = random_spd(rng, n_blocks)
        mean0 = rng.normal(size=(dim_obs, n_blocks))
        c = rng.dirichlet(np.ones(n_blocks))
        y = rng.normal(size=dim_obs)
        sigma_v2, sigma_e2 = 0.3, 0.05

        out = kf_update(FilterState(mean0, sigma0), c, y, sigma_v2, sigma_e2)

        mean, cov = dense_kf_step(
            stacked(mean0), np.kron(sigma0, np.eye(dim_obs)), c, y, sigma_v2, sigma_e2
        )
        np.testing.assert_allclose(stacked(out.mean), mean, atol=1e-10)
        np.testing.assert_allclose(np.kron(out.matrix, np.eye(dim_obs)), cov, atol=1e-10)

    @pytest.mark.parametrize("rule", ["kalman", "rls"])
    @pytest.mark.parametrize("n_blocks,dim_obs", [(5, 32), (3, 16)])
    def test_long_stream_matches_dense_recursion(self, rule, n_blocks, dim_obs):
        """Over 300 steps the dense covariance stays Sigma (x) I and the means agree."""
        rng = np.random.default_rng(n_blocks * 100 + dim_obs)
        sigma0 = random_spd(rng, n_blocks)
        mean0 = rng.normal(size=(dim_obs, n_blocks))
        sigma_v2, sigma_e2 = 0.05, 0.2
        forgetting = 0.98
        state = FilterState(mean0, sigma0)
        mean, cov = stacked(mean0), np.kron(sigma0, np.eye(dim_obs))
        for _ in range(300):
            c = rng.dirichlet(np.ones(n_blocks))
            y = rng.normal(size=dim_obs)
            if rule == "kalman":
                state = kf_update(state, c, y, sigma_v2, sigma_e2)
                mean, cov = dense_kf_step(mean, cov, c, y, sigma_v2, sigma_e2)
            else:
                state = rls_update(state, c, y, forgetting)
                mean, cov = dense_rls_step(mean, cov, c, y, forgetting)
        np.testing.assert_allclose(stacked(state.mean), mean, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(
            cov, np.kron(state.matrix, np.eye(dim_obs)), rtol=0.0, atol=1e-10
        )

    def test_stream_reaches_batch_posterior(self):
        """With sigma_v2 = 0 the filter equals the batch MAP estimate."""
        rng = np.random.default_rng(1)
        for n_blocks, dim_obs in [(1, 2), (2, 4), (3, 6)]:
            mean0 = rng.normal(size=(dim_obs, n_blocks))
            sigma0 = random_spd(rng, n_blocks) + np.eye(n_blocks)
            sigma_e2 = 0.1
            cs = [rng.dirichlet(np.ones(n_blocks)) for _ in range(50)]
            ys = [rng.normal(size=dim_obs) for _ in range(50)]

            state = FilterState(mean0, sigma0)
            for c, y in zip(cs, ys):
                state = kf_update(state, c, y, 0.0, sigma_e2)

            expected = batch_map_oracle(
                stacked(mean0), np.kron(sigma0, np.eye(dim_obs)), cs, ys, sigma_e2
            )
            np.testing.assert_allclose(stacked(state.mean), expected, atol=1e-8)

    def test_order_invariance_without_process_noise(self):
        rng = np.random.default_rng(2)
        mean0, sigma0 = np.zeros((2, 2)), np.eye(2)
        cs = [rng.dirichlet(np.ones(2)) for _ in range(12)]
        ys = [rng.normal(size=2) for _ in range(12)]

        def run(order):
            state = FilterState(mean0, sigma0)
            for i in order:
                state = kf_update(state, cs[i], ys[i], 0.0, 0.5)
            return state.mean

        np.testing.assert_allclose(run(range(12)), run(range(11, -1, -1)), atol=1e-10)

    def test_zero_concentration_block_untouched(self):
        """A component absent from the mixture and uncorrelated with the
        present ones gains no information."""
        rng = np.random.default_rng(3)
        dim_obs = 3
        sigma0 = np.zeros((3, 3))
        sigma0[:2, :2] = random_spd(rng, 2)
        sigma0[2, 2] = 5.0
        mean0 = rng.normal(size=(dim_obs, 3))
        out = kf_update(
            FilterState(mean0, sigma0),
            np.array([0.6, 0.4, 0.0]),
            rng.normal(size=dim_obs),
            0.0,
            0.1,
        )
        assert np.abs(out.mean[:, :2] - mean0[:, :2]).max() > 0.0
        np.testing.assert_array_equal(out.mean[:, 2], mean0[:, 2])
        assert out.matrix[2, 2] == sigma0[2, 2]
        np.testing.assert_array_equal(out.matrix[:2, 2], 0.0)

    def test_trace_nonincreasing_without_process_noise(self):
        rng = np.random.default_rng(4)
        state = FilterState(np.zeros((2, 2)), 3.0 * np.eye(2))
        traces = [np.trace(state.matrix)]
        for _ in range(20):
            state = kf_update(
                state, rng.dirichlet(np.ones(2)), rng.normal(size=2), 0.0, 0.2
            )
            traces.append(np.trace(state.matrix))
        assert all(b <= a + 1e-10 for a, b in zip(traces, traces[1:]))

    def test_singular_innovation_raises(self):
        """The scalar c^T Sigma c + sigma_e2 must be finite and positive."""
        overflow = FilterState(np.zeros((2, 1)), np.array([[1e300]]))
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="innovation variance"
        ):
            kf_update(overflow, np.array([1e10]), np.zeros(2), 0.0, 1.0)
        indefinite = FilterState(np.zeros((2, 1)), np.array([[-1.0]]))
        with pytest.raises(NumericalError, match="innovation variance"):
            kf_update(indefinite, np.array([1.0]), np.zeros(2), 0.0, 0.5)
        with pytest.raises(NumericalError, match="innovation variance"):
            rls_update(indefinite, np.array([1.0]), np.zeros(2), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("rule", ["kalman", "rls", "dl"])
    def test_non_finite_input_raises(self, rule, bad):
        updates = {
            "kalman": lambda s, c, y: kf_update(s, c, y, 0.1, 1.0),
            "rls": lambda s, c, y: rls_update(s, c, y, 1.0),
            "dl": dl_update,
        }
        state = FilterState(np.zeros((3, 2)), np.eye(2))
        c, y = np.array([0.5, 0.5]), np.ones(3)
        with pytest.raises(NumericalError, match="non-finite"):
            updates[rule](state, c, np.array([1.0, bad, 1.0]))
        with pytest.raises(NumericalError, match="non-finite"):
            updates[rule](state, np.array([bad, 0.5]), y)

    def test_dimension_mismatch(self):
        state = FilterState(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match=r"does not equal \(D, K\)"):
            kf_update(state, np.ones(3), np.zeros(2), 0.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 15))
    def test_covariance_stays_psd(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        n_blocks, dim_obs = 2, 3
        state = FilterState(np.zeros((dim_obs, n_blocks)), np.eye(n_blocks))
        sigma_v2, sigma_e2 = float(rng.uniform(0, 2)), float(rng.uniform(0.01, 1))
        for _ in range(n_steps):
            state = kf_update(
                state, rng.dirichlet(np.ones(n_blocks)), rng.normal(size=dim_obs),
                sigma_v2, sigma_e2,
            )
        state.validate(eig_tol=1e-8)
        np.testing.assert_array_equal(state.matrix, state.matrix.T)


UPDATES = {
    "kalman": lambda state, c, y: kf_update(state, c, y, 0.3, 0.05),
    "rls": lambda state, c, y: rls_update(state, c, y, 0.97),
    "dl": dl_update,
}


@pytest.mark.parametrize("rule", sorted(UPDATES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_update_commutes_with_the_fourier_reduction(rule, seed):
    """The paper's subspace claim: with the same abundances, reducing the
    channel-space update equals updating the reduced endmembers on the
    reduced spectrum, and the K x K covariance does not see the space."""
    rng = np.random.default_rng(seed)
    n_channels, k = 200, 3 + seed
    basis = build_basis(n_channels, 8 + 4 * seed)
    endmembers = rng.uniform(size=(n_channels, k))
    sigma = random_spd(rng, k)
    c = rng.dirichlet(np.ones(k))
    y = rng.uniform(size=n_channels)
    full = UPDATES[rule](FilterState(endmembers, sigma), c, y)
    reduced = UPDATES[rule](
        FilterState(reduce_columns(endmembers, basis), sigma), c, reduce_spectrum(y, basis)
    )
    mapped = reduce_columns(full.mean, basis)
    assert np.abs(mapped - reduced.mean).max() <= 1e-12 * np.abs(reduced.mean).max()
    np.testing.assert_array_equal(full.matrix, reduced.matrix)


@pytest.mark.parametrize("rule", sorted(UPDATES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channel_permutation_permutes_the_mean_rows(rule, seed):
    """Row d of the (D, K) mean is channel d: permuting the channels of the
    mean and of the spectrum permutes the posterior mean's rows, and the
    K x K matrix, which never sees a channel, comes out bit for bit."""
    rng = np.random.default_rng(10 + seed)
    n_channels, k = 64, 2 + seed
    endmembers = rng.uniform(size=(n_channels, k))
    sigma = random_spd(rng, k)
    c = rng.dirichlet(np.ones(k))
    y = rng.uniform(size=n_channels)
    perm = rng.permutation(n_channels)
    want = UPDATES[rule](FilterState(endmembers, sigma), c, y)
    got = UPDATES[rule](FilterState(endmembers[perm], sigma), c, y[perm])
    assert np.abs(got.mean - want.mean[perm]).max() <= 1e-12 * np.abs(want.mean).max()
    np.testing.assert_array_equal(got.matrix, want.matrix)


class TestRlsUpdate:
    def test_unit_forgetting_equals_unit_noise_filter(self):
        """Forgetting 1 is the Kalman recursion at sigma_v2=0, sigma_e2=1."""
        rng = np.random.default_rng(5)
        sigma0 = random_spd(rng, 2) + np.eye(2)
        mean0 = rng.normal(size=(3, 2))
        kf_state = FilterState(mean0, sigma0)
        rls_state = FilterState(mean0, sigma0)
        for _ in range(10):
            c = rng.dirichlet(np.ones(2))
            y = rng.normal(size=3)
            kf_state = kf_update(kf_state, c, y, 0.0, 1.0)
            rls_state = rls_update(rls_state, c, y, forgetting=1.0)
            np.testing.assert_allclose(rls_state.mean, kf_state.mean, atol=1e-10)
            np.testing.assert_allclose(rls_state.matrix, kf_state.matrix, atol=1e-10)

    def test_scalar_convergence(self):
        state = FilterState(np.zeros((1, 1)), 100.0 * np.eye(1))
        for _ in range(200):
            state = rls_update(state, np.array([1.0]), np.array([2.0]), 1.0)
        np.testing.assert_allclose(state.mean, [[2.0]], atol=1e-3)

    def test_small_forgetting_tracks_level_shift(self):
        """After a jump in the data, forgetting < 1 adapts faster."""
        slow = FilterState(np.zeros((1, 1)), 10.0 * np.eye(1))
        fast = FilterState(np.zeros((1, 1)), 10.0 * np.eye(1))
        c, lo, hi = np.array([1.0]), np.array([1.0]), np.array([5.0])
        for _ in range(30):
            slow = rls_update(slow, c, lo, 1.0)
            fast = rls_update(fast, c, lo, 0.5)
        for _ in range(5):
            slow = rls_update(slow, c, hi, 1.0)
            fast = rls_update(fast, c, hi, 0.5)
        assert abs(fast.mean[0, 0] - 5.0) < abs(slow.mean[0, 0] - 5.0)

    def test_forgetting_range(self):
        state = FilterState(np.zeros((1, 1)), np.eye(1))
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="forgetting must be in"):
                rls_update(state, np.array([1.0]), np.array([1.0]), bad)


class TestDlUpdate:
    def test_single_component_running_average(self):
        """With c = [1] each step, the estimate is the mean of observations.

        It starts from the state after the first spectrum: mean y_1 and P = 1."""
        rng = np.random.default_rng(6)
        ys = rng.normal(size=(8, 3))
        state = FilterState(ys[:1].T, np.ones((1, 1)))
        for i, y in enumerate(ys[1:], start=2):
            state = dl_update(state, np.array([1.0]), y)
            np.testing.assert_allclose(state.mean[:, 0], ys[:i].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(state.matrix, [[1.0 / len(ys)]], rtol=1e-12)

    def test_component_unseen_at_init_stays_still(self):
        """An unseen component leaves the init Gram singular; its ridged inverse
        keeps the seen column averaging its observations and the unseen one still."""
        y1, y2 = np.array([1.5, -0.5]), np.array([0.5, 2.5])
        prior = np.linalg.inv(np.diag([1.0, 0.0]) + RIDGE * np.eye(2))
        state = FilterState(np.column_stack([y1, np.zeros(2)]), prior)
        out = dl_update(state, np.array([1.0, 0.0]), y2)
        np.testing.assert_allclose(out.mean[:, 0], (y1 + y2) / 2, atol=1e-6)
        np.testing.assert_allclose(out.mean[:, 1], 0.0, atol=1e-12)

    def test_matrix_is_the_inverse_of_the_accumulated_gram(self):
        rng = np.random.default_rng(7)
        gram0 = random_spd(rng, 2)
        cs = [rng.dirichlet(np.ones(2)) for _ in range(5)]
        state = FilterState(np.zeros((2, 2)), np.linalg.inv(gram0))
        for c in cs:
            state = dl_update(state, c, rng.normal(size=2))
        expected = gram0 + sum(np.outer(c, c) for c in cs)
        np.testing.assert_allclose(state.matrix, np.linalg.inv(expected), atol=1e-12)

    def test_matches_the_information_form_reference(self):
        """The mean follows the Gram-form rule started from A_0 = P_0^-1."""
        rng = np.random.default_rng(9)
        gram0 = random_spd(rng, 3)
        state = FilterState(rng.normal(size=(4, 3)), np.linalg.inv(gram0))
        ref = FilterState(state.mean, gram0)
        for _ in range(50):
            c, y = rng.dirichlet(np.ones(3)), rng.normal(size=4)
            state, ref = dl_update(state, c, y), dl_reference.dl_update(ref, c, y)
        np.testing.assert_allclose(state.mean, ref.mean, rtol=1e-10, atol=1e-12)

    def test_shape_mismatch(self):
        state = FilterState(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match=r"does not equal \(D, K\)"):
            dl_update(state, np.ones(4), np.zeros(2))


class TestStateValidation:
    @pytest.mark.parametrize(
        "sigma_v2, sigma_e2, message",
        [
            (-0.1, 1.0, "sigma_v2 must be >= 0"),
            (np.nan, 1.0, "sigma_v2 must be >= 0"),
            (0.0, 0.0, "sigma_e2 must be > 0"),
            (0.0, np.nan, "sigma_e2 must be > 0"),
        ],
    )
    def test_kf_update_rejects_noise_variances_out_of_range(self, sigma_v2, sigma_e2, message):
        state = FilterState(np.zeros((2, 1)), np.eye(1))
        with pytest.raises(ValueError, match=message):
            kf_update(state, np.array([1.0]), np.zeros(2), sigma_v2, sigma_e2)

    def test_filter_state_shape_checks(self):
        with pytest.raises(ValueError, match=r"must be a \(D, K\) matrix"):
            FilterState(np.zeros(4), np.eye(4))
        with pytest.raises(ValueError, match="matrix shape"):
            FilterState(np.zeros((2, 3)), np.eye(2))
        with pytest.raises(ValueError, match="matrix shape"):
            FilterState(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="not symmetric"):
            FilterState(np.zeros((1, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            FilterState(np.array([[np.nan, 0.0]]), np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            FilterState(np.zeros((2, 1)), np.array([[np.inf]]))
        with pytest.raises(ValueError, match=r"state mean of shape \(4, 0\) is empty"):
            FilterState(np.zeros((4, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match=r"state mean of shape \(0, 3\) is empty"):
            FilterState(np.zeros((0, 3)), np.eye(3))

    def test_validate_flags_indefinite_covariance(self):
        state = FilterState(np.zeros((1, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="eigenvalue"):
            state.validate()
