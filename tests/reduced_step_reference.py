"""The anchored step as it ran in the truncated Fourier subspace: a test oracle.

Each acquisition reduced the stored endmembers to the filter's prior mean
(the re-anchor) and the spectrum to its 2M coordinates, ran the state
update there, and regressed the reduced posterior mean back to channel
space.  ``pipeline_step`` now updates the endmembers on the raw spectrum
and regresses the posterior mean in channels, its reduction made by the
target map; the filter commutes with the reduction, so the two agree up to
rounding.  The reduced posterior mean T reaches ``solve_regression`` as
the channel target F^T T, whose reduction is T.
"""

from dataclasses import replace

import numpy as np

from kfunmix.abundance import estimate_concentration
from kfunmix.kalman import FilterState, dl_update, kf_update, rls_update
from kfunmix.pipeline import EndmemberEstimate
from kfunmix.regression import solve_regression


def reduced_step(state, spectrum):
    """One acquisition in the reduced domain; returns the new state."""
    config = state.config
    operator = state.basis.operator
    endmembers = state.endmembers.full
    prior = FilterState((operator @ endmembers.values).T, state.covariance)
    concentration = estimate_concentration(spectrum, endmembers)
    observed = operator @ np.asarray(spectrum, dtype=np.float64)
    if config.updater == "kalman":
        posterior = kf_update(prior, concentration, observed, config.sigma_v2, state.sigma_e2)
    elif config.updater == "rls":
        posterior = rls_update(prior, concentration, observed, config.rls_forgetting)
    else:
        posterior = dl_update(prior, concentration, observed)
    fit = solve_regression(state.regressors, operator.T @ posterior.mean.T)
    return replace(state, covariance=posterior.matrix, endmembers=EndmemberEstimate(fit.endmembers))
