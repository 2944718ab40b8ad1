"""Each fact of a stream step is checked once, and every retained check fires.

The step takes its prior and its regression target in the types that carry
their checks (``EndmemberMatrix``, ``CovarianceMatrix``, the posterior
``FilterState``).  These tests hold the step to the composition of the fully
checking public calls, bit for bit, and feed each retained check an input
it must reject.
"""
import hashlib
import platform
from dataclasses import replace

import numpy as np
import pytest

from kfunmix import datamodel
from kfunmix.abundance import estimate_concentration, estimate_concentrations
from kfunmix.datamodel import CovarianceMatrix, EndmemberMatrix, SpectraMatrix
from kfunmix.kalman import FilterState, NumericalError, dl_update, kf_update, rls_update
from kfunmix.metrics import read_trace_csv
from kfunmix.pipeline import PipelineConfig, PipelineState, init_pipeline, pipeline_step
from kfunmix.pipeline import run_experiment
from kfunmix.protocols import protocol_p1
from kfunmix.regression import RHO, RegressionResult, solve_regression
from kfunmix.synthdata import SynthConfig, generate_dataset

# (L, K, M or None for the eta criterion, updater)
STREAMS = {
    "L200-K3-kalman": (200, 3, None, "kalman"),
    "L200-K3-rls": (200, 3, None, "rls"),
    "L200-K3-M8-dl": (200, 3, 8, "dl"),
    "L400-K5-M16-kalman": (400, 5, 16, "kalman"),
}
N_INIT, N_STEPS = 30, 300
# SHA-256 over every step's endmembers and covariance, as each stream made
# them before the scoring caches (an EndmemberMatrix's kept Gram) existed.
# Recorded with NumPy 2.4.6 on x86-64; another BLAS may round differently,
# so only that build compares them, and every build compares each step
# with the checked composition.
PINNED_BUILD = ("2.4.6", "x86_64")
PINNED_DIGESTS = {
    "L200-K3-kalman": "49137a7795cc1910ab21d351c8f8b80dc08293faf8789d859254ef8935887758",
    "L200-K3-rls": "84b3420cf7c2c822a81950fd59dec9070a8c9f5e2b6afd57608d45a01a16cf4e",
    "L200-K3-M8-dl": "3b6921df2fde301446fd8394f6d952da69b1bf4adc1671b3ffbd9a1a9805e56d",
    "L400-K5-M16-kalman": "4a7e1bb409703abf40e5a4f44fecc34336292d9ae65ca7d662b478582bdf82b7",
}


def checked_step(state, spectrum):
    """One acquisition as the fully checking public calls make it: every
    input is a plain array, so each call scans it again."""
    config = state.config
    endmembers = np.array(state.endmembers.full.values)
    concentration = estimate_concentration(np.array(spectrum), endmembers)
    prior = FilterState(np.array(endmembers), np.array(state.covariance.values))
    if config.updater == "kalman":
        posterior = kf_update(prior, concentration, spectrum, config.sigma_v2, state.sigma_e2)
    elif config.updater == "rls":
        posterior = rls_update(prior, concentration, spectrum, config.rls_forgetting)
    else:
        posterior = dl_update(prior, concentration, spectrum)
    return posterior, solve_regression(state.regressors, np.array(posterior.mean))


def frozen_duals(result):
    """The duals formed at once from copies of what the result keeps."""
    copy = RegressionResult(
        result.coefficients, result.endmembers, result.fit.copy(), result.iterate.copy()
    )
    return copy.duals


@pytest.mark.parametrize("name", list(STREAMS))
def test_step_equals_its_checked_composition(monkeypatch, name):
    n_channels, k, m, updater = STREAMS[name]
    rows = generate_dataset(
        SynthConfig(n_spectra=N_INIT + N_STEPS, n_channels=n_channels, n_endmembers=k, seed=3)
    ).spectra.values
    fits = []

    def recording(regressors, target):
        fits.append(solve_regression(regressors, target))
        return fits[-1]

    monkeypatch.setattr("kfunmix.pipeline.solve_regression", recording)
    state = init_pipeline(rows[:N_INIT], PipelineConfig(n_endmembers=k, n_harmonics=m, updater=updater))
    at_exit = []
    digest = hashlib.sha256()
    for spectrum in rows[N_INIT:]:
        posterior, want = checked_step(state, spectrum)
        state, _ = pipeline_step(state, spectrum)
        digest.update(state.endmembers.full.values.tobytes())
        digest.update(state.covariance.values.tobytes())
        got = fits[-1]
        at_exit.append(frozen_duals(got))
        np.testing.assert_array_equal(state.endmembers.full.values, want.endmembers.values)
        np.testing.assert_array_equal(state.covariance.values, posterior.matrix)
        np.testing.assert_array_equal(got.coefficients, want.coefficients)
        for g, w in zip(got.duals, want.duals):
            np.testing.assert_array_equal(g, w)
    # Duals first read 300 steps after their solve equal those formed at its exit.
    fresh = [solve_regression(state.regressors, state.estimator.mean)]
    for result, eager in zip(fits + fresh, at_exit + [frozen_duals(fresh[0])]):
        for lazy, formed in zip(result.duals, eager):
            np.testing.assert_array_equal(lazy, formed)
    assert len(fits) == N_STEPS
    if (np.__version__, platform.machine()) == PINNED_BUILD:
        assert digest.hexdigest() == PINNED_DIGESTS[name]


def test_lazy_duals_are_the_exit_duals():
    """(U, lambda) are max(v, 0) and RHO max(-v, 0) of the exit iterate
    v = Y R + min(v', 0), formed once and kept."""
    rng = np.random.default_rng(0)
    fit, iterate = rng.normal(size=(6, 2)), np.asfortranarray(rng.normal(size=(6, 2)))
    result = RegressionResult(np.zeros((3, 2)), EndmemberMatrix(np.ones((6, 2))), fit, iterate)
    v = fit + np.minimum(iterate, 0.0)
    np.testing.assert_array_equal(result.duals[0], np.maximum(v, 0.0))
    np.testing.assert_array_equal(result.duals[1], RHO * np.maximum(-v, 0.0))
    assert result.duals is result.duals
    assert result.duals[0].flags.c_contiguous


def small_state(updater="kalman"):
    data = generate_dataset(SynthConfig(n_spectra=60, n_channels=40, n_endmembers=2, seed=7))
    rows = data.spectra.values
    config = PipelineConfig(n_endmembers=2, n_init=10, n_harmonics=6, updater=updater)
    return rows, init_pipeline(rows[:10], config)


class TestRetainedChecks:
    @pytest.mark.parametrize("bad", ["nan", "inf", "scaled-1e150"])
    def test_bad_spectrum_mid_stream_aborts_and_flushes(self, tmp_path, bad):
        """FCLS scans the spectrum; a finite one scaled by 1e150 passes it and
        the update's check of the abundances FCLS returns stops it."""
        data = generate_dataset(SynthConfig(n_spectra=60, n_channels=40, n_endmembers=2, seed=7))
        # Streamed rows start at t=11, so the 4th one is t=14 (row 13).
        if bad == "scaled-1e150":
            data.spectra.values[13] *= 1e150
        else:
            data.spectra.values[13, 5] = float(bad)
        out = tmp_path / "partial.csv"
        config = PipelineConfig(n_endmembers=2, n_init=10, n_harmonics=6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="not finite|non-finite"):
                run_experiment(data, protocol_p1(60), config, eval_stride=1, flush_path=out)
        records, _ = read_trace_csv(out)
        assert [rec.t for rec in records] == [11, 12, 13]

    @pytest.mark.parametrize("updater", ["kalman", "rls", "dl"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_is_named_by_the_update(self, updater, bad):
        """Called on its own, each update names a non-finite observation as
        it did when it scanned every observation first."""
        rows, state = small_state(updater)
        spectrum = rows[20].copy()
        spectrum[7] = bad
        c = estimate_concentration(rows[20], state.endmembers.full)
        calls = {
            "kalman": lambda: kf_update(state.estimator, c, spectrum, 1.0, state.sigma_e2),
            "rls": lambda: rls_update(state.estimator, c, spectrum, 1.0),
            "dl": lambda: dl_update(state.estimator, c, spectrum),
        }
        with pytest.raises(NumericalError, match="concentration or observation has non-finite"):
            calls[updater]()

    def test_overflowing_posterior_mean_is_a_value_error(self):
        """A finite observation whose innovation overflows is still rejected
        by the posterior state's mean check, as before."""
        state = FilterState(np.array([[-1e308], [0.0]]), np.eye(1))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="state mean contains non-finite"):
            kf_update(state, np.array([1.0]), np.array([1e308, 0.0]), 0.0, 1.0)

    @pytest.mark.parametrize(
        "covariance, message",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix contains non-finite entries"),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), "matrix contains non-finite entries"),
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "matrix is not symmetric"),
            (np.ones((2, 3)), r"covariance must be a square matrix, got shape \(2, 3\)"),
        ],
        ids=["nan", "inf", "asymmetric", "not-square"],
    )
    def test_state_rejects_a_bad_covariance_where_it_is_made(self, covariance, message):
        _, state = small_state()
        with pytest.raises(ValueError, match=message):
            replace(state, covariance=covariance)
        fields = {name: getattr(state, name) for name in state.__dataclass_fields__}
        fields["covariance"] = covariance
        with pytest.raises(ValueError, match=message):
            PipelineState(**fields)

    def test_covariance_of_the_wrong_size_is_rejected_at_the_first_step(self):
        rows, state = small_state()
        bad = replace(state, covariance=np.eye(3))
        assert isinstance(bad.covariance, CovarianceMatrix)
        with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) does not match K = 2"):
            pipeline_step(bad, rows[20])

    def test_raw_state_inputs_are_checked(self):
        with pytest.raises(ValueError, match="state mean contains non-finite entries"):
            FilterState(np.array([[np.nan, 1.0]]), np.eye(2))
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            FilterState(np.ones((3, 2)), np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            FilterState(np.ones((3, 2)), np.array([[1.0, 1e-9], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raw_regression_target_is_checked(self, bad):
        _, state = small_state()
        target = np.array(state.endmembers.full.values)
        target[3, 1] = bad
        with pytest.raises(ValueError, match="target contains non-finite entries"):
            solve_regression(state.regressors, target)


class TestTypesCarryTheirChecks:
    def test_prior_takes_the_stored_arrays_as_they_are(self):
        _, state = small_state()
        prior = state.estimator
        assert prior.mean is state.endmembers.full.values
        assert prior.covariance is state.covariance
        assert prior.matrix is state.covariance.values

    def test_state_target_gives_the_bits_of_its_mean(self):
        rows, state = small_state()
        c = estimate_concentration(rows[20], state.endmembers.full)
        posterior = kf_update(state.estimator, c, rows[20], 1.0, state.sigma_e2)
        got = solve_regression(state.regressors, posterior)
        want = solve_regression(state.regressors, posterior.mean)
        np.testing.assert_array_equal(got.coefficients, want.coefficients)
        np.testing.assert_array_equal(got.endmembers.values, want.endmembers.values)

    def test_checked_prefix_is_not_scanned_again(self, monkeypatch):
        rows = generate_dataset(
            SynthConfig(n_spectra=40, n_channels=30, n_endmembers=3, seed=1)
        ).spectra
        endmembers = EndmemberMatrix(np.abs(rows.values[:3].T) + 0.1)
        prefix = rows.rows(slice(25))
        assert np.shares_memory(prefix.values, rows.values)
        want = estimate_concentrations(np.array(rows.values[:25]), endmembers)
        scanned = []
        isfinite = np.isfinite

        def recording(x, *args, **kwargs):
            scanned.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recording)
        np.testing.assert_array_equal(estimate_concentrations(prefix, endmembers), want)
        assert (25, 30) not in scanned
        estimate_concentrations(prefix.values, endmembers)
        assert (25, 30) in scanned

    def test_row_selection(self):
        spectra = SpectraMatrix(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(spectra.rows([2, 0]).values, [[6, 7, 8], [0, 1, 2]])
        np.testing.assert_array_equal(spectra.rows(slice(2)).values, spectra.values[:2])
        for index in (slice(0), 1, (slice(None), slice(2))):
            with pytest.raises(ValueError, match="row selection of shape"):
                spectra.rows(index)

    def test_run_experiment_scans_the_stream_once(self, monkeypatch):
        """The dataset was checked at load: neither set-up, nor the records,
        nor the baselines scan the stream or its prefixes again."""
        data = generate_dataset(SynthConfig(n_spectra=60, n_channels=40, n_endmembers=2, seed=7))
        scans = []
        check = datamodel._as_float_matrix

        def counted(values, name):
            scans.append(name)
            return check(values, name)

        monkeypatch.setattr(datamodel, "_as_float_matrix", counted)
        run_experiment(
            data, protocol_p1(60), PipelineConfig(n_endmembers=2, n_init=10, n_harmonics=6),
            eval_stride=5, baselines=("vca", "mcr-als"),
        )
        assert "spectra" not in scans


# (name, matrix) inputs of the positive part; the first is Fortran-ordered,
# as the regression's Y R is.
RNG = np.random.default_rng(5)
BASE = RNG.normal(size=(7, 3)) + 0.5
POSITIVE_PART_TABLE = {
    "fortran": np.asfortranarray(BASE),
    "c-ordered": BASE,
    "negative-column": np.where(np.arange(3) == 1, -np.abs(BASE), BASE),
    "zero-column": np.where(np.arange(3) == 2, 0.0, BASE),
    "nan": np.where(np.eye(7, 3) > 0, np.nan, BASE),
    "+inf": np.where(np.eye(7, 3) > 0, np.inf, BASE),
    "-inf": np.where(np.eye(7, 3) > 0, -np.inf, BASE),
    "nan-in-dead-column": np.where(np.arange(3) == 0, -1.0, np.where(np.eye(7, 3) > 0, np.nan, BASE)),
    "dead-and-nan": np.where(np.arange(3) == 0, -1.0, np.where(np.eye(7, 3, k=1) > 0, np.nan, BASE)),
}


def previous_clamp(values):
    """The regression's clamp before the positive part: a dead-column test,
    then a full EndmemberMatrix check of max(values, 0)."""
    dead = np.nonzero(values.max(axis=0) <= 0.0)[0]
    if dead.size:
        raise NumericalError(f"column {int(dead[0])}")
    return EndmemberMatrix(np.maximum(np.ascontiguousarray(values), 0.0))


@pytest.mark.parametrize("name", list(POSITIVE_PART_TABLE))
def test_positive_part_matches_the_previous_clamp(name):
    values = POSITIVE_PART_TABLE[name]
    try:
        want = previous_clamp(values)
    except (NumericalError, ValueError) as err:
        with pytest.raises(type(err)) as got:
            EndmemberMatrix.positive_part(values)
        if isinstance(err, NumericalError):
            assert str(got.value).endswith(f"collapsed endmember {err} to zero")
        else:
            assert str(got.value) == str(err)
        return
    got = EndmemberMatrix.positive_part(values)
    np.testing.assert_array_equal(got.values, want.values)
    assert got.values.flags.c_contiguous


def test_positive_part_needs_a_non_empty_matrix():
    for bad in (np.ones(3), np.ones((0, 2)), np.ones((3, 0))):
        with pytest.raises(ValueError, match="endmembers must be a non-empty matrix"):
            EndmemberMatrix.positive_part(bad)


def test_regression_names_a_collapsed_column():
    _, state = small_state()
    with pytest.raises(NumericalError, match="collapsed endmember column 0 to zero"):
        solve_regression(state.regressors, np.zeros_like(state.endmembers.full.values))


class TestCovarianceMatrix:
    def test_symmetric_part_is_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        for k in (1, 3, 5, 12):
            m = rng.normal(size=(k, k)) * 10.0 ** rng.integers(-8, 8, size=(k, k))
            sym = CovarianceMatrix.symmetric_part(m)
            np.testing.assert_array_equal(sym.values, sym.values.T)
            np.testing.assert_array_equal(sym.values, 0.5 * (m + m.T))
            np.testing.assert_array_equal(CovarianceMatrix(sym.values).values, sym.values)

    def test_symmetric_part_checks_finiteness(self):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            CovarianceMatrix.symmetric_part(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_built_from_a_covariance_it_takes_its_values(self):
        first = CovarianceMatrix(np.eye(3))
        assert CovarianceMatrix(first).values is first.values

    def test_update_posterior_is_checked_once(self, monkeypatch):
        """The posterior covariance is made by symmetric_part, not scanned for
        symmetry again."""
        calls = []
        original = np.abs

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        state = FilterState(np.ones((4, 2)), np.eye(2))
        monkeypatch.setattr(datamodel.np, "abs", counting)
        kf_update(state, np.array([0.4, 0.6]), np.ones(4), 0.1, 1.0)
        assert calls == []
