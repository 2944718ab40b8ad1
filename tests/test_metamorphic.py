"""Metamorphic relations of the stream: the same physics gives the same answer.

No oracle is needed.  Two transformations of the input have a known effect
on the output of a whole stream:

- reversing the channel order of the spectra and of the start reverses the
  endmembers and leaves the covariance, the chosen M and sigma_e2 as they
  are (the Fourier subspace of the first M harmonics is closed under
  reversal, and the noise floor's segments map onto segments when L is a
  multiple of SEGMENT_LEN);
- permuting the columns of the start permutes the endmembers, and the rows
  and columns of the covariance.

Each stream starts from a given ``init_endmembers``: VCA's pick depends on
the signs of LAPACK's singular vectors, so a VCA start need not transform
with the data.  Each relation holds within rounding, at 1e-9 relative.
"""

import functools

import numpy as np
import pytest

from kfunmix.datamodel import EndmemberMatrix
from kfunmix.pipeline import PipelineConfig, init_pipeline, pipeline_step
from kfunmix.synthdata import SEGMENT_LEN, SynthConfig, generate_dataset
from kfunmix.vca import vca

N_INIT, N_STEPS = 30, 370
BOUND = 1e-9

# (L, K, M or None for the eta criterion, updater, data seed)
CASES = {
    "L200-K3-kalman": (200, 3, None, "kalman", 0),
    "L200-K3-rls": (200, 3, None, "rls", 1),
    "L200-K3-M8-dl": (200, 3, 8, "dl", 2),
    "L400-K5-M16-kalman": (400, 5, 16, "kalman", 3),
}


@functools.lru_cache(maxsize=None)
def case_data(name):
    """The rows of one stream and its start, VCA's pick on the init rows."""
    n_channels, k, _, _, seed = CASES[name]
    assert n_channels % SEGMENT_LEN == 0
    data = generate_dataset(
        SynthConfig(n_spectra=N_INIT + N_STEPS, n_channels=n_channels, n_endmembers=k, seed=seed)
    )
    rows = data.spectra.values
    return rows, vca(rows[:N_INIT], k, seed).values


def final_state(name, rows, start):
    _, k, m, updater, _ = CASES[name]
    config = PipelineConfig(
        n_endmembers=k, n_init=N_INIT, n_harmonics=m, updater=updater,
        init_endmembers=EndmemberMatrix(start),
    )
    state = init_pipeline(rows[:N_INIT], config)
    for row in rows[N_INIT:]:
        state, _ = pipeline_step(state, row)
    return state


@functools.lru_cache(maxsize=None)
def untransformed(name):
    return final_state(name, *case_data(name))


def assert_close(actual, desired):
    assert np.abs(actual - desired).max() <= BOUND * np.abs(desired).max()


@pytest.mark.parametrize("name", list(CASES))
def test_channel_reversal_reverses_the_endmembers(name):
    rows, start = case_data(name)
    want = untransformed(name)
    got = final_state(name, rows[:, ::-1], start[::-1])
    assert got.n_harmonics == want.n_harmonics
    assert abs(got.sigma_e2 - want.sigma_e2) <= BOUND * want.sigma_e2
    assert_close(got.endmembers.full.values, want.endmembers.full.values[::-1])
    assert_close(got.covariance.values, want.covariance.values)


@pytest.mark.parametrize("name", list(CASES))
def test_start_column_permutation_permutes_the_endmembers(name):
    rows, start = case_data(name)
    perm = np.roll(np.arange(start.shape[1]), 1)  # moves every column
    want = untransformed(name)
    got = final_state(name, rows, start[:, perm])
    assert_close(got.endmembers.full.values, want.endmembers.full.values[:, perm])
    assert_close(got.covariance.values, want.covariance.values[np.ix_(perm, perm)])
