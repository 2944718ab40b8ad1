"""Streaming unmixing pipeline and experiment runner.

Initialization consumes the first P acquired spectra: they fix the
truncation order of the Fourier subspace, the noise-floor estimate, the
starting endmembers (extracted geometrically unless provided), and the
regression system used to restore nonnegativity.  Each later acquisition
runs one cycle of abundance estimation, state update of the endmembers on
the raw spectrum, and constrained regression of the updated endmembers onto
the acquired spectra.  The stream keeps the constrained endmembers, which
are the filter's mean, and its K x K covariance.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .abundance import MAX_ENDMEMBERS, FclsConfig, estimate_concentration, estimate_concentrations
from .datamodel import COND_LIMIT, RIDGE, ConcentrationMatrix, CovarianceMatrix, DatasetBundle
from .datamodel import EndmemberMatrix, FloatArray, NumericalError, SpectraMatrix, check_seed
from .fourier import build_basis, select_num_harmonics
from .fourier import reduce_columns, reduce_spectrum  # noqa: F401 (the benchmark wraps it here)
from .kalman import FilterState, dl_update, kf_update, rls_update
from .mcrals import McrConfig, mcr_als, pca_nonneg_init  # noqa: F401 (the benchmark wraps it here)
from .metrics import (
    MetricRecord,
    align_components,
    asad,
    reconstruction_error,
    rmse_concentrations,
    write_trace_csv,
)
from .protocols import AcquisitionOrder
from .regression import RegressorSet, build_regressor_set, solve_regression
from .synthdata import estimate_noise_variance
from .vca import vca

UPDATERS = ("kalman", "rls", "dl")
BASELINES = ("vca", "mcr-als")
# The stride keywords of run_experiment, each with its least allowed value.
STRIDES = {"eval_stride": 1, "abundance_stride": 0, "baseline_stride": 1}


def _least_harmonics(n_endmembers: int) -> int:
    """Least M with 2M - 1 >= K: the DC sine row is zero, so 2M rows have rank <= 2M - 1."""
    return (n_endmembers + 2) // 2


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of one streaming run.  Only kalman and rls read ``sigma_v2``
    and only rls reads ``rls_forgetting``; a value other than the default of a
    setting the updater never reads is rejected.  Nothing in kfunmix reads
    ``fcls``; only the benchmark harness passes it on.  ROADMAP item 4 deletes it."""

    n_endmembers: int
    n_init: int = 30
    eta: float = 87.0
    n_harmonics: int | None = None
    sigma_v2: float = 1.0
    updater: str = "kalman"
    rls_forgetting: float = 1.0
    init_endmembers: EndmemberMatrix | None = None
    seed: int = 0
    fcls: FclsConfig = FclsConfig()

    def __post_init__(self) -> None:
        if not 1 <= self.n_endmembers <= MAX_ENDMEMBERS:
            raise ValueError(f"n_endmembers must be in [1, {MAX_ENDMEMBERS}]")
        if self.n_init < self.n_endmembers:
            raise ValueError("n_init must be >= n_endmembers")
        if not 0.0 < self.eta <= 100.0:
            raise ValueError("eta must be in (0, 100]")
        least = _least_harmonics(self.n_endmembers)
        if self.n_harmonics is not None and self.n_harmonics < least:
            raise ValueError(f"n_harmonics must be >= {least} for n_endmembers = {self.n_endmembers}")
        if not 0.0 <= self.sigma_v2 < np.inf:
            raise ValueError(f"sigma_v2 must be finite and >= 0, got {self.sigma_v2}")
        if self.updater not in UPDATERS:
            raise ValueError(f"updater must be one of {UPDATERS}, got {self.updater!r}")
        if not 0.0 < self.rls_forgetting <= 1.0:
            raise ValueError("rls_forgetting must be in (0, 1]")
        check_seed(self.seed, "seed")
        if self.updater == "rls" and self.sigma_v2 <= 0.0:
            raise ValueError("the RLS updater needs sigma_v2 > 0 to initialize P")
        unread = {"kalman": ("rls_forgetting",), "rls": (), "dl": ("sigma_v2", "rls_forgetting")}
        for name in unread[self.updater]:
            if getattr(self, name) != self.__dataclass_fields__[name].default:
                raise ValueError(f"the {self.updater} updater does not read {name}; leave it unset")


@dataclass(frozen=True)
class EndmemberEstimate:
    """Current full-space endmember estimate, which is the filter's mean."""

    full: EndmemberMatrix


@dataclass(frozen=True)
class PipelineState:
    """Everything the stream carries between acquisitions: the settings, the
    chosen harmonic count M, regressor set and floored noise estimate
    sigma_e2 from set-up, the filter's K x K covariance, and the current
    full-space endmembers.  Each quantity is stored once; the filter's
    state is the last two, as :attr:`estimator`.  A covariance given as a
    plain array is checked (finite, symmetric) into a ``CovarianceMatrix``
    where the state is made or replaced; a step hands on the posterior's,
    which its update checked."""

    config: PipelineConfig
    n_harmonics: int
    regressors: RegressorSet
    sigma_e2: float
    covariance: CovarianceMatrix
    endmembers: EndmemberEstimate

    def __post_init__(self) -> None:
        if not isinstance(self.covariance, CovarianceMatrix):
            object.__setattr__(self, "covariance", CovarianceMatrix(self.covariance))

    @property
    def estimator(self) -> FilterState:
        """The filter's prior for the next acquisition: its mean is the
        (L, K) endmember matrix itself, and its covariance the stored one.
        Both carry their checks, so the build compares shapes only."""
        return FilterState(self.endmembers.full, self.covariance)


def init_pipeline(
    init_spectra: SpectraMatrix | FloatArray, config: PipelineConfig
) -> PipelineState:
    """Initialize a stream from its first P acquisitions.

    The spectra must be exactly the config's n_init rows, in acquisition
    order, each finite.  Chooses the subspace order by the eta energy criterion
    (but no less than K endmembers need), estimates the noise floor from
    smoothing residuals, extracts starting endmembers (unless config.init_endmembers
    is given), and builds the cached regression system.  The K x K covariance starts
    at sigma_v2 I, or for dl at the inverse of the init abundances' Gram (ridged).
    """
    spectra = SpectraMatrix(init_spectra)  # checked once; the callees take it as it is
    rows = spectra.values
    if rows.shape[0] != config.n_init:
        raise ValueError(
            f"expected {config.n_init} initialization spectra, got {rows.shape[0]}"
        )

    n_harmonics = config.n_harmonics or max(
        select_num_harmonics(spectra, config.eta), _least_harmonics(config.n_endmembers)
    )
    # Floor keeps the observation variance positive on noiseless input.
    sigma_e2 = max(estimate_noise_variance(spectra), 1e-12)

    if config.init_endmembers is not None:
        start = config.init_endmembers
        if start.n_channels != rows.shape[1]:
            raise ValueError("provided init endmembers do not match the channel count")
        if start.n_endmembers != config.n_endmembers:
            raise ValueError("provided init endmembers do not match n_endmembers")
    else:
        start = vca(spectra, config.n_endmembers, config.seed)

    if config.updater == "dl":
        init_conc = estimate_concentrations(rows, start)
        gram = init_conc.T @ init_conc
        if np.linalg.cond(gram) > COND_LIMIT:
            gram = gram + RIDGE * np.eye(config.n_endmembers)
        covariance = CovarianceMatrix.symmetric_part(np.linalg.inv(gram))
    else:
        covariance = CovarianceMatrix(config.sigma_v2 * np.eye(config.n_endmembers))

    regressors = build_regressor_set(spectra, build_basis(rows.shape[1], n_harmonics))
    return PipelineState(
        config=config,
        n_harmonics=n_harmonics,
        regressors=regressors,
        sigma_e2=sigma_e2,
        covariance=covariance,
        endmembers=EndmemberEstimate(start),
    )


def pipeline_step(
    state: PipelineState, spectrum: FloatArray
) -> tuple[PipelineState, float]:
    """Process one acquisition; returns the new state and the wall time in ms.

    Cycle: estimate the abundance of the incoming spectrum against the
    current endmembers, run the configured state update of those endmembers
    on the spectrum, and regress the posterior mean onto the acquired-spectra
    cone; the step makes no Fourier product.  The new state keeps the
    constrained estimate, which is the next prior mean, and the posterior
    covariance.  Each fact is checked once: FCLS scans the spectrum, the
    update checks the abundances and the posterior it makes, and the
    regression checks its estimate; the prior and the regression target
    are taken in the types that carry those checks.
    """
    config = state.config
    tic = time.perf_counter()

    prior = state.estimator
    concentration = estimate_concentration(spectrum, state.endmembers.full)

    if config.updater == "kalman":
        posterior = kf_update(prior, concentration, spectrum, config.sigma_v2, state.sigma_e2)
    elif config.updater == "rls":
        posterior = rls_update(prior, concentration, spectrum, config.rls_forgetting)
    else:
        posterior = dl_update(prior, concentration, spectrum)

    fit = solve_regression(state.regressors, posterior)

    wall_ms = (time.perf_counter() - tic) * 1e3
    endmembers = EndmemberEstimate(fit.endmembers)
    return replace(state, covariance=posterior.covariance, endmembers=endmembers), wall_ms


@dataclass(frozen=True)
class RunTrace:
    """Metric records of one run plus its final estimates."""

    records: tuple[MetricRecord, ...]
    final_endmembers: EndmemberMatrix
    final_concentrations: ConcentrationMatrix
    config_snapshot: dict[str, str]


@dataclass(frozen=True)
class ExperimentResult:
    trace: RunTrace
    baselines: dict[str, RunTrace]


def _snapshot(config: PipelineConfig, state: PipelineState, extra: dict[str, str]) -> dict[str, str]:
    """Trace comments: every scalar setting, the chosen M and the noise floor, then ``extra``."""
    snap = {k: str(v) for k, v in vars(config).items() if isinstance(v, (int, float, str))}
    snap["n_harmonics"] = str(state.n_harmonics)
    snap["sigma_e2_hat"] = str(state.sigma_e2)
    snap.update(extra)
    return snap


def _evaluate(
    acquired: SpectraMatrix,
    endmembers: EndmemberMatrix,
    truth_endmembers: EndmemberMatrix | None,
    truth_concentrations: FloatArray | None,
    with_abundances: bool,
) -> tuple[float | None, float | None, float | None, FloatArray | None]:
    """ASAD, RMSE and RE of one estimate, plus the abundances solved for them."""
    asad_val = None
    if truth_endmembers is not None:
        asad_val = asad(endmembers, truth_endmembers)
    rmse_val = None
    re_val = None
    conc = None
    if with_abundances:
        conc = estimate_concentrations(acquired, endmembers)
        re_val = reconstruction_error(acquired, conc, endmembers)
        if truth_endmembers is not None and truth_concentrations is not None:
            perm = align_components(endmembers, truth_endmembers)
            rmse_val = rmse_concentrations(conc, truth_concentrations, perm)
    return asad_val, rmse_val, re_val, conc


def check_experiment_options(baselines: tuple[str, ...], **strides: int) -> None:
    """Raise ValueError for an unknown or repeated baseline, or a given stride
    below its least value."""
    for name, least in STRIDES.items():
        if name in strides and strides[name] < least:
            raise ValueError(f"{name} must be >= {least}")
    for name in baselines:
        if name not in BASELINES:
            raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINES}")
    if len(set(baselines)) < len(baselines):
        raise ValueError(f"baselines {baselines} name a baseline more than once")


def run_experiment(
    dataset: DatasetBundle,
    order: AcquisitionOrder,
    config: PipelineConfig,
    *,
    eval_stride: int = 1,
    abundance_stride: int = 1,
    baselines: tuple[str, ...] = (),
    baseline_stride: int = 20,
    flush_path: str | os.PathLike[str] | None = None,
) -> ExperimentResult:
    """Run the full streaming experiment over an ordered dataset.

    Parameters
    ----------
    dataset : DatasetBundle
        Spectra plus whatever ground truth is known; metrics needing truth
        are skipped when it is absent.
    order : AcquisitionOrder
        Acquisition order; the stream is exactly its index sequence.
    config : PipelineConfig
        Pipeline settings (the first n_init indices initialize).
    eval_stride : int
        Indices between metric records; the first streamed index and the
        final index are always evaluated.
    abundance_stride : int
        Cadence of the abundance re-estimation that feeds rmse and re
        (an O(t) batch solve); 0 disables those two metrics entirely.
    baselines : tuple of {"vca", "mcr-als"}
        Reference methods re-run from scratch on all acquired spectra at
        their own cadence, logged as parallel traces.
    baseline_stride : int
        Indices between baseline re-runs (final index always included).
    flush_path : optional path
        Where to write the partial main trace if the stream aborts on a
        numerical failure; the exception is re-raised after flushing.

    Returns
    -------
    ExperimentResult
        Main trace plus one trace per requested baseline.
    """
    check_experiment_options(
        baselines,
        eval_stride=eval_stride,
        abundance_stride=abundance_stride,
        baseline_stride=baseline_stride,
    )

    if max(order.indices) >= dataset.spectra.n_spectra:
        raise ValueError("order refers to indices beyond the dataset")
    # Checked at load; its prefixes are handed on without another scan.
    stream = dataset.spectra.rows(list(order.indices))
    n_stream = stream.n_spectra
    n_init = config.n_init
    if n_stream <= n_init:
        raise ValueError(
            f"stream has {n_stream} spectra, need more than n_init={n_init}"
        )

    truth_s = dataset.endmembers
    truth_c = (
        dataset.concentrations.values[list(order.indices)]
        if dataset.concentrations is not None
        else None
    )

    state = init_pipeline(stream.rows(slice(n_init)), config)
    extra = {
        "eval_stride": str(eval_stride),
        "abundance_stride": str(abundance_stride),
        "n_stream": str(n_stream),
    }
    snapshot = _snapshot(config, state, extra)

    # One record list per trace: None is the stream, the rest are baselines.
    records: dict[str | None, list[MetricRecord]] = {None: []}
    records.update((name, []) for name in baselines)
    # Each trace's latest endmembers, and the abundances solved against them.
    latest: dict[str | None, tuple[EndmemberMatrix, FloatArray | None]] = {}

    def record(
        name: str | None, t: int, endmembers: EndmemberMatrix, with_ab: bool, wall_ms: float
    ) -> None:
        asad_val, rmse_val, re_val, conc = _evaluate(
            stream.rows(slice(t)),
            endmembers,
            truth_s,
            truth_c[:t] if truth_c is not None else None,
            with_ab,
        )
        records[name].append(MetricRecord(t, asad_val, rmse_val, re_val, wall_ms))
        latest[name] = (endmembers, conc)

    try:
        for t in range(n_init + 1, n_stream + 1):
            state, wall_ms = pipeline_step(state, stream.values[t - 1])
            is_final = t == n_stream
            offset = t - n_init - 1

            if offset % eval_stride == 0 or is_final:
                with_ab = abundance_stride > 0 and (
                    offset % abundance_stride == 0 or is_final
                )
                record(None, t, state.endmembers.full, with_ab, wall_ms)

            if baselines and (offset % baseline_stride == 0 or is_final):
                # One VCA serves both baselines; mcr-als's wall time includes it.
                tic = time.perf_counter()
                acquired = stream.rows(slice(t))
                start = vca(acquired, config.n_endmembers, config.seed)
                vca_ms = (time.perf_counter() - tic) * 1e3
                for name in baselines:
                    tic = time.perf_counter()
                    ref = start
                    if name == "mcr-als":
                        ref = mcr_als(acquired, McrConfig(start)).endmembers
                    record(name, t, ref, True, vca_ms + (time.perf_counter() - tic) * 1e3)
    except NumericalError:
        if flush_path is not None:
            write_trace_csv(records[None], flush_path, comments=snapshot)
        raise

    # Every trace is recorded at the final index, so its last record solved
    # the abundances of the whole stream, unless abundance_stride is 0.
    traces: dict[str | None, RunTrace] = {}
    for name, trace_records in records.items():
        endmembers, conc = latest[name]
        if conc is None:
            conc = estimate_concentrations(stream, endmembers)
        snap = dict(snapshot)
        if name is not None:
            snap["baseline"] = name
            snap["baseline_stride"] = str(baseline_stride)
        traces[name] = RunTrace(
            tuple(trace_records), endmembers, ConcentrationMatrix(conc), snap
        )
    return ExperimentResult(traces.pop(None), traces)
