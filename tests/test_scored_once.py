"""Each endmember estimate is scored once: one angle matrix and one
assignment per record, and one Gram and eigenvalue screen per estimate.

``asad`` and ``align_components`` share a memo of the last pair they scored,
and FCLS keeps the Gram and eigenvalues of the last endmember matrix it
screened, each keyed by ``memo_key`` of the arrays it read.  These tests
count the work a default run makes and hold every kept answer to a fresh
one, bit for bit.
"""

import warnings

import numpy as np
import pytest

from kfunmix import abundance, metrics, pipeline
from kfunmix.abundance import estimate_concentration, estimate_concentrations
from kfunmix.datamodel import RIDGE, EndmemberMatrix, NumericalError, memo_key
from kfunmix.metrics import align_components, asad, reconstruction_error, rmse_concentrations
from kfunmix.pipeline import PipelineConfig, run_experiment
from kfunmix.protocols import protocol_p1
from kfunmix.synthdata import SynthConfig, generate_dataset

N_SPECTRA, N_INIT = 400, 30
N_RECORDS = N_SPECTRA - N_INIT


def counting(monkeypatch, owner, name, counts):
    """Replace ``owner.name`` by a wrapper that counts its calls in ``counts[name]``."""
    original = getattr(owner, name)
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SynthConfig(n_spectra=N_SPECTRA, n_channels=200, n_endmembers=3, seed=5))


def test_a_default_run_scores_each_estimate_once(dataset, monkeypatch):
    """370 records make 370 angle matrices and assignments, not two of each,
    and the 371 estimates (the start and one per step) one eigenvalue
    screen each, not one per FCLS call."""
    counts = {}
    counting(monkeypatch, metrics, "_angle_matrix", counts)
    counting(monkeypatch, metrics, "_assign", counts)
    counting(monkeypatch, np.linalg, "eigvalsh", counts)
    monkeypatch.setattr(abundance, "_last_screen", None)
    result = run_experiment(dataset, protocol_p1(N_SPECTRA), PipelineConfig(n_endmembers=3))
    assert len(result.trace.records) == N_RECORDS
    assert counts == {"_angle_matrix": N_RECORDS, "_assign": N_RECORDS, "eigvalsh": N_RECORDS + 1}


def fresh_record(acquired, endmembers, truth_s, truth_c):
    """ASAD, RMSE, RE and abundances of one record from uncached calls on
    plain copies, with ASAD's mean taken by ``np.mean``."""
    s, y, ref = np.array(endmembers), np.array(acquired), np.array(truth_s)
    angles = metrics._angle_matrix(s, ref)
    perm = metrics._assign(angles)
    asad_val = float(np.mean(angles[np.arange(perm.size), perm]))
    abundance._last_screen = None
    conc = estimate_concentrations(y, s)
    re_val = reconstruction_error(y, conc, s)
    metrics._last_scored = None
    aligned = align_components(s, ref)
    np.testing.assert_array_equal(aligned, perm)
    return asad_val, rmse_concentrations(conc, np.array(truth_c), aligned), re_val, conc


def test_every_record_equals_fresh_uncached_calls(dataset, monkeypatch):
    calls = []
    evaluate = pipeline._evaluate

    def recording(*args):
        calls.append((args, evaluate(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "_evaluate", recording)
    result = run_experiment(dataset, protocol_p1(N_SPECTRA), PipelineConfig(n_endmembers=3))
    assert len(calls) == N_RECORDS
    for record, ((acquired, endmembers, truth_s, truth_c, with_ab), got) in zip(
        result.trace.records, calls
    ):
        assert with_ab
        want = fresh_record(acquired, endmembers, truth_s, truth_c)
        assert (record.asad_deg, record.rmse, record.re) == want[:3] == got[:3]
        np.testing.assert_array_equal(got[3], want[3])


class TestAngleMemo:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(11)
        truth = rng.uniform(size=(50, 4))
        estimate = truth[:, [2, 0, 3, 1]] + 0.05 * rng.uniform(size=(50, 4))
        return estimate, truth

    def test_alignment_after_asad_reuses_the_pair(self, pair, monkeypatch):
        counts = {}
        counting(monkeypatch, metrics, "_angle_matrix", counts)
        counting(monkeypatch, metrics, "_assign", counts)
        value = asad(*pair)
        perm = align_components(*pair)
        assert counts == {"_angle_matrix": 1, "_assign": 1}
        assert perm.tolist() == [1, 3, 0, 2]
        assert value == asad(*pair)

    def test_an_estimate_written_in_place_is_scored_afresh(self, pair):
        estimate, truth = pair
        asad(estimate, truth)
        estimate[:, [0, 1]] = estimate[:, [1, 0]]
        got = align_components(estimate, truth)
        want = metrics._assign(metrics._angle_matrix(estimate, truth))
        np.testing.assert_array_equal(got, want)
        assert got.tolist() == [0, 3, 1, 2]

    def test_another_layout_of_equal_values_is_another_key(self, pair, monkeypatch):
        """A reduction may round another memory layout differently, so a
        Fortran-ordered copy is scored afresh."""
        estimate, truth = pair
        counts = {}
        counting(monkeypatch, metrics, "_angle_matrix", counts)
        asad(estimate, truth)
        asad(np.asfortranarray(estimate), truth)
        assert counts["_angle_matrix"] == 2

    def test_the_permutation_returned_is_a_copy(self, pair):
        perm = align_components(*pair)
        perm[:] = 0
        assert align_components(*pair).tolist() == [1, 3, 0, 2]

    def test_a_failed_score_is_not_kept(self, pair):
        asad(*pair)
        kept = metrics._last_scored
        dead = pair[0].copy()
        dead[:, 1] = 0.0
        for _ in range(2):
            with pytest.raises(ValueError, match="zero vectors"):
                asad(dead, pair[1])
        assert metrics._last_scored is kept


class TestKeptGram:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_kept_gram_is_the_one_fcls_formed(self, k):
        """The calls FCLS has always made: G into the top-left block of a
        zeroed bordered matrix, its eigenvalues, then RIDGE on its diagonal."""
        s = np.random.default_rng(k).uniform(size=(120, k))
        padded = np.zeros((k + 1, k + 1))
        gram = padded[:k, :k]
        np.matmul(s.T, s, out=gram)
        eig = np.linalg.eigvalsh(gram)
        padded.reshape(-1)[: k * (k + 2) : k + 2] += RIDGE
        abundance._last_screen = None
        fresh = abundance._screened(s)
        kept = abundance._screened(s.copy())
        assert all(a is b for a, b in zip(kept, fresh))
        for got, want in zip(kept, (padded, eig)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("n", [1, 2, 7, 215])
    def test_fcls_against_a_wrapper_equals_fcls_against_its_copy(self, k, n):
        rng = np.random.default_rng(10 * k + n)
        s = rng.uniform(size=(80, k))
        rows = rng.uniform(size=(n, 80))
        endmembers = EndmemberMatrix(s)
        for _ in range(2):  # the first call forms the screen, the second reads it
            got = estimate_concentrations(rows, endmembers)
            abundance._last_screen = None
            assert got.tobytes() == estimate_concentrations(rows, s.copy()).tobytes()
        assert abundance._last_screen[0] == memo_key(s)
        assert list(vars(endmembers)) == ["values"]

    def test_a_wrapper_and_its_plain_copy_share_one_screen(self, monkeypatch):
        rng = np.random.default_rng(4)
        s = rng.uniform(size=(90, 4))
        counts = {}
        counting(monkeypatch, np.linalg, "eigvalsh", counts)
        estimate_concentration(rng.uniform(size=90), EndmemberMatrix(s))
        estimate_concentrations(rng.uniform(size=(30, 90)), s.copy())
        assert counts["eigvalsh"] == 1

    def test_an_array_written_in_place_is_screened_afresh(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(size=(70, 3))
        rows = rng.uniform(size=(5, 70))
        endmembers = EndmemberMatrix(s)
        before = estimate_concentrations(rows, endmembers)
        s[:, 0] *= 4.0  # the wrapper holds this very array
        got = estimate_concentrations(rows, endmembers)
        abundance._last_screen = None
        want = estimate_concentrations(rows, s.copy())
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, before)

    def test_the_warning_is_decided_on_every_call(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(60, 1))
        s = EndmemberMatrix(np.hstack([base, base + 1e-9 * rng.uniform(size=(60, 1))]))
        for _ in range(3):
            with pytest.warns(UserWarning, match="ill-conditioned"):
                estimate_concentration(rng.uniform(size=60), s)
        assert abundance._last_screen[0] == memo_key(s.values)

    def test_a_singular_gram_raises_on_every_call(self):
        column = np.linspace(1.0, 2.0, 30)[:, None]
        s = EndmemberMatrix(1e6 * np.hstack([column, column]))
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(NumericalError, match="singular to working precision"):
                    estimate_concentration(np.ones(30), s)
        assert abundance._last_screen[0] == memo_key(s.values)

    def test_an_overflowing_gram_is_not_kept(self):
        estimate_concentration(np.ones(10), np.eye(10, 2) + 0.5)
        kept = abundance._last_screen
        s = EndmemberMatrix(np.full((10, 2), 1e160))
        for _ in range(2):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="NaN or an infinity"):
                estimate_concentration(np.ones(10), s)
        assert abundance._last_screen is kept
        assert list(vars(s)) == ["values"]
