"""Measurement process of the kfunmix benchmark; started by run.py.

``generate`` writes a workload's dataset directory for a seed.  ``measure``
runs in a fresh process per benchmark run: it warms up, times set-up
several times, drives the workload for the time budget with tracing off,
scales every time by the host's speed (Speedometer), checks every output,
and with ``--trace 1`` runs one more round under the span tracer.  It
writes one JSON report and exits non-zero only when the benchmark itself
cannot run (a missing traced name, a layer with no calls).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

import numpy as np
import scipy

import kfunmix
from kfunmix import (
    abundance,
    datamodel,
    fourier,
    kalman,
    mcrals,
    metrics,
    pipeline,
    protocols,
    regression,
    synthdata,
    vca,
)
from tracer import TraceError, Tracer, percentile
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 9
TAIL_WINDOW = 200  # steps per window of the step_ms_p95_w200 tail metric
FCLS_SUM_TOL = 1e-9
# The program's own final ASAD/RMSE must equal the benchmark's recomputation.
RECOMPUTE_TOL = 1e-9
SPANS = (
    "abundance.fcls_one",
    "abundance.fcls_batch",
    "fourier.reduce",
    "fourier.select_harmonics",
    "kalman.update",
    "regression.solve",
    "regression.build",
    "pipeline.step",
    "pipeline.init",
    "pipeline.run",
    "synthdata.noise_variance",
    "vca.extract",
    "mcrals.solve",
    "mcrals.init",
    "metrics.asad",
    "metrics.align",
    "metrics.reconstruction_error",
    "metrics.rmse",
    "metrics.write_trace",
    "protocols.p1",
    "protocols.p2",
    "datamodel.load",
)
WARNING_MODULES = ("abundance", "regression", "mcrals", "vca", "protocols")


class Checks:
    """Output-check failures, counted in acquisitions."""

    def __init__(self) -> None:
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, n_acquisitions: int, message: str) -> None:
        self.failed += n_acquisitions
        if len(self.messages) < 20:
            self.messages.append(message)

    def fcls_rows(self, rows: np.ndarray, where: str) -> None:
        rows = np.atleast_2d(rows)
        bad = ~np.all(np.isfinite(rows), axis=1)
        bad |= np.any(rows < 0.0, axis=1)
        bad |= np.abs(rows.sum(axis=1) - 1.0) > FCLS_SUM_TOL
        if np.any(bad):
            self.fail(int(np.sum(bad)), f"{where}: {int(np.sum(bad))} FCLS rows off the simplex")

    def endmembers(self, values: np.ndarray, where: str) -> bool:
        if not np.all(np.isfinite(values)) or np.min(values) < 0.0:
            self.fail(1, f"{where}: endmember estimate not finite and nonnegative")
            return False
        return True


class WarningCounter:
    """Counts warnings by the kfunmix module that called warnings.warn."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def __call__(self, message, category, filename, lineno, file=None, line=None) -> None:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename == warnings.__file__:
            frame = frame.f_back
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        key = module.rpartition(".")[2] if module.startswith("kfunmix.") else "other"
        if key not in WARNING_MODULES:
            key = "other"
        self.counts[key] = self.counts.get(key, 0) + 1


# ---------------------------------------------------------------- inputs


def generate(workload: Workload, seed: int, work_dir: str) -> None:
    for data_seed in dataset_seeds(workload, seed):
        bundle = synthdata.generate_dataset(
            synthdata.SynthConfig(
                n_spectra=workload.n_spectra,
                n_channels=workload.n_channels,
                n_endmembers=workload.n_endmembers,
                snr_db=20.0,
                purity_cap=workload.purity_cap,
                seed=data_seed,
            )
        )
        datamodel.save_dataset(bundle, data_dir(work_dir, data_seed))


@dataclasses.dataclass(frozen=True)
class Input:
    """One dataset of the workload's panel, set up to a ready stream."""

    seed: int
    bundle: datamodel.DatasetBundle
    order: protocols.AcquisitionOrder
    stream: np.ndarray
    state0: pipeline.PipelineState

    @property
    def n_acq(self) -> int:
        return self.stream.shape[0] - self.state0.config.n_init


def dataset_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of the panel datasets of one benchmark seed; disjoint across benchmark seeds."""
    return [seed * workload.panel + j for j in range(workload.panel)]


def data_dir(work_dir: str, data_seed: int) -> str:
    return os.path.join(work_dir, f"data-{data_seed}")


def set_up(workload: Workload, data_seed: int, work_dir: str) -> Input:
    """Dataset directory to a ready stream: load, order, init_pipeline."""
    bundle = datamodel.load_dataset(data_dir(work_dir, data_seed))
    n = bundle.spectra.n_spectra
    if workload.protocol == "p1":
        order = protocols.protocol_p1(n)
    else:
        basis = fourier.build_basis(bundle.spectra.n_channels, 2)
        order = protocols.protocol_p2(
            bundle.spectra,
            basis,
            protocols.P2Config(workload.p2_essential, workload.p2_clusters, data_seed),
        )
    config = pipeline.PipelineConfig(
        n_endmembers=workload.n_endmembers,
        n_harmonics=workload.n_harmonics,
        updater=workload.updater,
        seed=data_seed,
    )
    stream = bundle.spectra.values[list(order.indices)]
    state = pipeline.init_pipeline(stream[: config.n_init], config)
    return Input(data_seed, bundle, order, stream, state)


# ---------------------------------------------------------------- accuracy


def recompute_asad(estimated: np.ndarray, truth: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Mean spectral angle (deg) under the best column matching, by enumeration."""
    unit_e = estimated / np.linalg.norm(estimated, axis=0)
    unit_t = truth / np.linalg.norm(truth, axis=0)
    angles = np.degrees(np.arccos(np.clip(unit_e.T @ unit_t, -1.0, 1.0)))
    k = truth.shape[1]
    best = min(
        itertools.permutations(range(k)),
        key=lambda p: float(np.mean(angles[list(p), range(k)])),
    )
    return float(np.mean(angles[list(best), range(k)])), best


def recompute_rmse(conc: np.ndarray, truth: np.ndarray, perm: tuple[int, ...]) -> float:
    return float(np.sqrt(np.mean((truth - conc[:, list(perm)]) ** 2)))


# ---------------------------------------------------------------- host speed

# The shared machine's speed drifts by up to 1.6x over minutes, with no CPU
# steal: neighbours contend for caches and memory.  Every benchmark time is
# therefore scaled to a host on which the calibration kernels take this long
# (geometric mean of the two).
CALIBRATION_NS = 7_000_000
CALIBRATION_EVERY = 100  # pipeline steps between calibration samples within a pass


class Speedometer:
    """Times fixed kernels that use no kfunmix code, to follow the host's speed.

    One kernel does what a pipeline step does in the small: dense solves
    and products through numpy, and interpreter work.  The other streams an
    8 MB array from memory.  Over a run, the pipeline's own time follows the
    geometric mean of the two about in proportion.  A change to the program
    cannot change their time, so scaling by it removes the host's drift and
    keeps every change of the program's own cost.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((40, 40))
        self._matrix = m @ m.T + 40.0 * np.eye(40)
        self._rhs = rng.standard_normal(40)
        self._lift = rng.standard_normal((400, 40))
        self._block = rng.standard_normal(1_000_000)
        self.samples_ns: list[float] = []
        self.spent_ns = 0  # total time spent sampling

    def _small_ops(self) -> None:
        acc = 0.0
        for _ in range(400):
            y = self._lift @ np.linalg.solve(self._matrix, self._rhs)
            acc += float(np.dot(y, y)) ** 0.5
            acc += sum({j: 2 * j for j in range(30)}.values())

    def _memory(self) -> None:
        for _ in range(6):
            self._block.sum()

    def sample(self) -> None:
        """Record the geometric mean of each kernel's best of three timings."""
        entered = time.perf_counter_ns()
        product = 1.0
        for kernel in (self._small_ops, self._memory):
            best = None
            for _ in range(3):
                tic = time.perf_counter_ns()
                kernel()
                elapsed = time.perf_counter_ns() - tic
                best = elapsed if best is None else min(best, elapsed)
            product *= best
        self.samples_ns.append(product**0.5)
        self.spent_ns += time.perf_counter_ns() - entered

    def factor(self, since: int) -> float:
        """Scale from the host's speed over samples[since:] to the calibration speed."""
        return CALIBRATION_NS / statistics.median(self.samples_ns[since:])


# ---------------------------------------------------------------- drivers


@dataclasses.dataclass
class Repeat:
    """One pass over one panel dataset: its wall time, step times and end state.

    ``wall_s`` and ``step_ns`` are as measured, without the time the
    speedometer took; ``speed`` is the Speedometer factor over the pass.
    """

    input: Input
    wall_s: float
    step_ns: list[int]
    final: object  # PipelineState (stream driver), ExperimentResult, or None if aborted
    speed: float = 1.0


def finished(repeats: list[Repeat], n_repeats, workload: Workload, start: float, budget_s) -> bool:
    """Stop after n_repeats, else after `rounds` whole panel rounds and the time budget."""
    if n_repeats is not None:
        return len(repeats) >= n_repeats
    done, partial = divmod(len(repeats), workload.panel)
    return not partial and done >= workload.rounds and time.perf_counter() - start >= budget_s


def stream_passes(
    workload: Workload, inputs: list[Input], n_repeats, budget_s, checks: Checks,
    speed: Speedometer | None,
) -> list[Repeat]:
    """Closed loop of pipeline_step over each panel stream in turn, from its ready state.

    With a speedometer, the host speed is sampled between timed steps.
    """
    clock = time.perf_counter_ns
    start = time.perf_counter()
    repeats: list[Repeat] = []
    while not finished(repeats, n_repeats, workload, start, budget_s):
        inp = inputs[len(repeats) % len(inputs)]
        step = pipeline.pipeline_step
        state = inp.state0
        steps: list[int] = []
        since = len(speed.samples_ns) if speed else 0
        for t in range(state.config.n_init, inp.stream.shape[0]):
            if speed and (t - state.config.n_init) % CALIBRATION_EVERY == 0:
                speed.sample()
            tic = clock()
            try:
                new_state, _ = step(state, inp.stream[t])
            except Exception as exc:  # a failed acquisition must not end the run
                checks.fail(1, f"seed {inp.seed} step t={t + 1} raised {type(exc).__name__}: {exc}")
                continue
            steps.append(clock() - tic)
            if checks.endmembers(new_state.endmembers.full.values, f"step t={t + 1}"):
                state = new_state
        if speed:
            speed.sample()
        factor = speed.factor(since) if speed else 1.0
        repeats.append(Repeat(inp, sum(steps) / 1e9, steps, state, factor))
    return repeats


def experiment_runs(
    workload: Workload, inputs: list[Input], n_repeats, budget_s, work_dir: str,
    checks: Checks, speed: Speedometer | None,
) -> list[Repeat]:
    """run_experiment on each panel dataset in turn, trace CSVs written and checked.

    With a speedometer, a benchmark-side timer wraps the pipeline_step name
    run_experiment looks up, and the host speed is sampled before and after
    each run and between steps; the sampling time is taken out of the run's.
    """
    trace_path = os.path.join(work_dir, "trace.csv")
    clock = time.perf_counter_ns
    original = pipeline.pipeline_step
    steps: list[int] = []

    def timed(*args, **kwargs):
        if len(steps) % CALIBRATION_EVERY == CALIBRATION_EVERY - 1:
            speed.sample()
        tic = clock()
        out = original(*args, **kwargs)
        steps.append(clock() - tic)
        return out

    if speed:
        pipeline.pipeline_step = timed
    start = time.perf_counter()
    repeats: list[Repeat] = []
    try:
        while not finished(repeats, n_repeats, workload, start, budget_s):
            inp = inputs[len(repeats) % len(inputs)]
            since = len(speed.samples_ns) if speed else 0
            if speed:
                speed.sample()
            sampling_ns = speed.spent_ns if speed else 0
            steps.clear()
            tic = clock()
            try:
                result = pipeline.run_experiment(
                    inp.bundle,
                    inp.order,
                    inp.state0.config,
                    eval_stride=1,
                    abundance_stride=workload.abundance_stride,
                    baselines=workload.baselines,
                    baseline_stride=20,
                    flush_path=trace_path,
                )
                write_traces(result, trace_path)
            except kalman.NumericalError as exc:
                records = metrics.read_trace_csv(trace_path)[0] if os.path.exists(trace_path) else ()
                done = records[-1].t - inp.state0.config.n_init if records else 0
                checks.fail(inp.n_acq - done, f"seed {inp.seed}: run_experiment aborted: {exc}")
                result = None
            wall_ns = clock() - tic - ((speed.spent_ns if speed else 0) - sampling_ns)
            if speed:
                speed.sample()
            factor = speed.factor(since) if speed else 1.0
            repeats.append(Repeat(inp, wall_ns / 1e9, list(steps), result, factor))
            if result is not None:
                check_experiment(result, trace_path, inp, checks)
    finally:
        pipeline.pipeline_step = original
    return repeats


def write_traces(result, trace_path: str) -> None:
    metrics.write_trace_csv(
        result.trace.records, trace_path, comments=result.trace.config_snapshot
    )
    stem, ext = os.path.splitext(trace_path)
    for name, trace in result.baselines.items():
        metrics.write_trace_csv(
            trace.records, f"{stem}.{name}{ext}", comments=trace.config_snapshot
        )


def check_experiment(result, trace_path: str, inp: Input, checks: Checks) -> None:
    stem, ext = os.path.splitext(trace_path)
    traces = [("main", result.trace, trace_path)] + [
        (name, trace, f"{stem}.{name}{ext}") for name, trace in result.baselines.items()
    ]
    truth_s = inp.bundle.endmembers.values
    truth_c = inp.bundle.concentrations.values[list(inp.order.indices)]
    for name, trace, path in traces:
        ts = [rec.t for rec in trace.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            checks.fail(1, f"{name}: trace times do not strictly increase")
        records, comments = metrics.read_trace_csv(path)
        if records != trace.records or comments != trace.config_snapshot:
            checks.fail(1, f"{name}: trace CSV does not round-trip through read_trace_csv")
        checks.endmembers(trace.final_endmembers.values, f"{name} final endmembers")
        checks.fcls_rows(trace.final_concentrations.values, f"{name} final abundances")
        last = trace.records[-1]
        asad_deg, perm = recompute_asad(trace.final_endmembers.values, truth_s)
        if last.asad_deg is None or abs(last.asad_deg - asad_deg) > RECOMPUTE_TOL:
            checks.fail(1, f"{name}: final asad_deg {last.asad_deg} != recomputed {asad_deg}")
        if last.rmse is not None:
            rmse = recompute_rmse(trace.final_concentrations.values, truth_c, perm)
            if abs(last.rmse - rmse) > RECOMPUTE_TOL:
                checks.fail(1, f"{name}: final rmse {last.rmse} != recomputed {rmse}")


def final_accuracy(repeat: Repeat, checks: Checks) -> dict:
    """Accuracy of a repeat's end state, recomputed independently of the metrics layer."""
    inp = repeat.input
    truth_s = inp.bundle.endmembers.values
    truth_c = inp.bundle.concentrations.values[list(inp.order.indices)]
    if isinstance(repeat.final, pipeline.PipelineState):
        # Stream driver: the final abundances are a batch FCLS over the stream.
        endmembers = repeat.final.endmembers.full.values
        conc = abundance.estimate_concentrations(inp.stream, endmembers)
        checks.fcls_rows(conc, "final abundances")
    else:
        endmembers = repeat.final.trace.final_endmembers.values
        conc = repeat.final.trace.final_concentrations.values
    asad_deg, perm = recompute_asad(endmembers, truth_s)
    out = {"final_asad_deg": asad_deg, "final_rmse": recompute_rmse(conc, truth_c, perm)}
    if not isinstance(repeat.final, pipeline.PipelineState) and "vca" in repeat.final.baselines:
        vca_ends = repeat.final.baselines["vca"].final_endmembers.values
        out["vca_asad_deg"] = recompute_asad(vca_ends, truth_s)[0]
    return out


def check_reference(workload: Workload, seed: int, accuracy: dict, n_acq: int, checks: Checks) -> None:
    """Accuracy may not be worse than the committed value for the seed by more than the tolerance."""
    with open(os.path.join(os.path.dirname(__file__), "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    table = expected["seeds"].get(workload.name, {})
    for key, tol in expected["tolerance"].items():
        if key not in accuracy or not table:
            continue
        if str(seed) in table:
            limit = table[str(seed)][key] + tol
            basis = f"committed value for seed {seed}"
        else:
            factor = expected["unseen_seed_factor"]
            limit = factor * max(row[key] for row in table.values()) + tol
            basis = f"{factor} x the worst committed value"
        if not accuracy[key] <= limit:
            checks.fail(n_acq, f"{key} {accuracy[key]:.6g} exceeds {limit:.6g} ({basis} + {tol})")


# ---------------------------------------------------------------- tracing


def trace_targets(hooks: dict):
    """(module, attribute, span, hook) for every cross-module call the program makes."""
    p = pipeline
    return [
        (p, "run_experiment", "pipeline.run", None),
        (p, "init_pipeline", "pipeline.init", None),
        (p, "pipeline_step", "pipeline.step", hooks["step"]),
        (p, "estimate_concentration", "abundance.fcls_one", hooks["fcls_one"]),
        (p, "estimate_concentrations", "abundance.fcls_batch", hooks["fcls_batch"]),
        (mcrals, "estimate_concentrations", "abundance.fcls_batch", hooks["fcls_batch"]),
        (p, "reduce_spectrum", "fourier.reduce", None),
        (p, "reduce_columns", "fourier.reduce", None),
        (regression, "reduce_columns", "fourier.reduce", None),
        (p, "select_num_harmonics", "fourier.select_harmonics", None),
        (p, "kf_update", "kalman.update", hooks["kalman"]),
        (p, "rls_update", "kalman.update", hooks["kalman"]),
        (p, "dl_update", "kalman.update", hooks["kalman"]),
        (p, "solve_regression", "regression.solve", hooks["regression"]),
        (p, "build_regressor_set", "regression.build", None),
        (p, "estimate_noise_variance", "synthdata.noise_variance", None),
        (p, "vca", "vca.extract", None),
        (mcrals, "vca", "vca.extract", None),
        (p, "mcr_als", "mcrals.solve", None),
        (p, "pca_nonneg_init", "mcrals.init", None),
        (mcrals, "mcr_als", "mcrals.solve", None),
        (mcrals, "pca_nonneg_init", "mcrals.init", None),
        (p, "asad", "metrics.asad", None),
        (p, "align_components", "metrics.align", None),
        (p, "reconstruction_error", "metrics.reconstruction_error", None),
        (p, "rmse_concentrations", "metrics.rmse", None),
        (p, "write_trace_csv", "metrics.write_trace", None),
        (metrics, "write_trace_csv", "metrics.write_trace", None),
        (protocols, "protocol_p1", "protocols.p1", None),
        (protocols, "protocol_p2", "protocols.p2", None),
        (datamodel, "load_dataset", "datamodel.load", None),
    ]


def array_bytes(obj, seen: set[int] | None = None) -> int:
    """Total nbytes of the distinct numpy arrays reachable through dataclass fields and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item, seen) for item in obj)
    return 0


class LayerCounts:
    """Counts taken at span boundaries; residual norms are computed after the run."""

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.fcls_batch_rows = 0
        self.regression_exits: list[tuple] = []
        self.last_estimator = None
        self.last_state = None

    def hooks(self) -> dict:
        def fcls_one(args, kwargs, result):
            self.checks.fcls_rows(result, "fcls_one")

        def fcls_batch(args, kwargs, result):
            self.fcls_batch_rows += result.shape[0]
            self.checks.fcls_rows(result, "fcls_batch")

        def kalman_hook(args, kwargs, result):
            self.last_estimator = result

        def regression_hook(args, kwargs, result):
            self.regression_exits.append((args[0].full_space, result.coefficients, result.duals[0]))

        def step(args, kwargs, result):
            self.last_state = result[0]

        return {
            "fcls_one": fcls_one,
            "fcls_batch": fcls_batch,
            "kalman": kalman_hook,
            "regression": regression_hook,
            "step": step,
        }

    def exit_primal_residual_p50(self) -> float:
        norms = [float(np.linalg.norm(u - full @ coeff)) for full, coeff, u in self.regression_exits]
        return statistics.median(norms) if norms else 0.0


def tail_head_ratio(step_durations: list[int], steps_per_repeat: list[int]) -> float:
    """Median over repeats of (median of last quarter) / (median of first quarter) step time."""
    ratios = []
    offset = 0
    for n in steps_per_repeat:
        chunk = step_durations[offset : offset + n]
        offset += n
        quarter = max(1, n // 4)
        ratios.append(statistics.median(chunk[-quarter:]) / statistics.median(chunk[:quarter]))
    return statistics.median(ratios)


# ---------------------------------------------------------------- main


def drive(workload, inputs, n_repeats, budget_s, work_dir, checks, speed) -> list[Repeat]:
    if workload.driver == "stream":
        return stream_passes(workload, inputs, n_repeats, budget_s, checks, speed)
    return experiment_runs(workload, inputs, n_repeats, budget_s, work_dir, checks, speed)


def run_workload(workload: Workload, seed: int, budget_s: float, trace: bool, work_dir: str) -> dict:
    checks = Checks()
    counter = WarningCounter()
    seeds = dataset_seeds(workload, seed)
    report: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = counter

        # Warm-up: imports are done; first BLAS/LAPACK call, one set-up, one step.
        np.linalg.solve(np.eye(4) + 1.0, np.ones(4))
        warm = set_up(workload, seeds[0], work_dir)
        pipeline.pipeline_step(warm.state0, warm.stream[warm.state0.config.n_init])
        speed = Speedometer()
        speed.sample()

        setup_raw_s = []
        inputs: dict[int, Input] = {}
        for i in range(max(SETUP_REPEATS, len(seeds))):
            data_seed = seeds[i % len(seeds)]
            speed.sample()
            tic = time.perf_counter()
            inputs[data_seed] = set_up(workload, data_seed, work_dir)
            setup_raw_s.append(time.perf_counter() - tic)
        speed.sample()
        setup_speed = speed.factor(1)
        panel = [inputs[s] for s in seeds]

        repeats = drive(
            workload, panel, None, budget_s / 2 if trace else budget_s, work_dir, checks, speed
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(r.input.n_acq for r in repeats)
        # Every time below is scaled by its pass's speed factor (Speedometer).
        run_s = [r.wall_s * r.speed for r in repeats]
        steps_ms = [ns / 1e6 * r.speed for r in repeats for ns in r.step_ns]

        # Accuracy of the last repeat on each dataset, against the committed values.
        by_seed = {}
        for repeat in repeats:
            if repeat.final is not None:
                by_seed[repeat.input.seed] = final_accuracy(repeat, checks)
        for data_seed, accuracy in by_seed.items():
            check_reference(workload, data_seed, accuracy, attempted, checks)
        accuracy = {
            key: statistics.median(acc[key] for acc in by_seed.values())
            for key in next(iter(by_seed.values()), {})
        }

        windows = [
            steps_ms[i : i + TAIL_WINDOW] for i in range(0, len(steps_ms) - TAIL_WINDOW + 1, TAIL_WINDOW)
        ] or [steps_ms]
        # Step cost is bimodal (FCLS exits early or runs all its iterations),
        # so the median jumps between the modes from one dataset to the next;
        # the mean is the steady typical cost, per step and per repeat.  The tail is the p95 of each
        # window of consecutive steps (10 steps beyond it), median over the
        # windows, so a slow stretch of a shared machine does not set it.
        report["e2e"] = {
            "setup_s": statistics.median(setup_raw_s) * setup_speed,
            "run_s": statistics.fmean(run_s),
            "acq_per_s": attempted / sum(run_s),
            "step_ms_mean": statistics.fmean(steps_ms),
            "step_ms_p95_w200": statistics.median(percentile(w, 95.0) for w in windows),
            "peak_rss_mb": peak_rss_mb,
        }
        report["samples"] = {
            "setups": len(setup_raw_s),
            "datasets": len(seeds),
            "repeats": len(repeats),
            "steps": len(steps_ms),
            "tail_windows": len(windows),
            "step_ms_p50": statistics.median(steps_ms),
            "step_ms_p99": percentile(steps_ms, 99.0),
            # Host speed: calibration kernel times and the factors they gave.
            "calibration_ms_median": statistics.median(speed.samples_ns) / 1e6,
            "calibration_samples": len(speed.samples_ns),
            "speed_factor_setup": setup_speed,
            "speed_factor_repeats": [r.speed for r in repeats],
            # As measured, not scaled.
            "setup_s_raw": statistics.median(setup_raw_s),
            "run_s_raw": statistics.fmean(r.wall_s for r in repeats),
            "step_ms_mean_raw": statistics.fmean(ns / 1e6 for r in repeats for ns in r.step_ns),
        }
        report["accuracy"] = accuracy
        report["accuracy_by_seed"] = by_seed

        if trace:
            per_layer, report["spans"], mcr_asad = traced_pass(
                workload,
                seeds,
                work_dir,
                sum(r.wall_s for r in repeats) * len(seeds) / len(repeats),
                checks,
                counter,
            )
            attempted += sum(inp.n_acq for inp in panel)
            for key in ("final_asad_deg", "final_rmse"):
                per_layer[f"accuracy.{key}"] = accuracy.get(key, 0.0)
            if mcr_asad is not None:
                accuracy["mcr_als_asad_deg"] = mcr_asad
            report["per_layer"] = per_layer

    report["attempted"] = attempted
    report["failed"] = min(attempted, checks.failed)
    report["errors"] = checks.messages
    report["warnings"] = counter.counts
    return report


def traced_pass(workload, seeds, work_dir, untraced_s, checks, counter):
    """Run one round over the panel under the tracer and summarise it per layer.

    ``untraced_s`` is the mean wall time of one untraced round.
    """
    tracer = Tracer()
    counts = LayerCounts(checks)
    warnings_before = dict(counter.counts)
    with tracer.installed(trace_targets(counts.hooks())):
        panel = [set_up(workload, data_seed, work_dir) for data_seed in seeds]
        repeats = drive(workload, panel, len(panel), None, work_dir, checks, None)
        traced_s = sum(r.wall_s for r in repeats)
        mcr_asad = None
        if workload.mcr_probe:
            inp = panel[0]
            config = inp.state0.config
            init = mcrals.pca_nonneg_init(inp.stream, config.n_endmembers, seed=config.seed)
            fit = mcrals.mcr_als(inp.stream, mcrals.McrConfig(init=init, fcls=config.fcls))
            checks.endmembers(fit.endmembers.values, "mcr-als endmembers")
            mcr_asad = recompute_asad(fit.endmembers.values, inp.bundle.endmembers.values)[0]

    summary = tracer.summary()
    missing = [name for name in workload.required_spans if name not in summary]
    if missing:
        raise TraceError(f"{workload.name}: required layers recorded no calls: {missing}")
    tracer.write_csv(os.path.join(work_dir, "spans.csv"))

    per_layer: dict[str, float] = {}
    for name in SPANS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "p50_us": 0.0, "p99_us": 0.0})
        for key, value in row.items():
            per_layer[f"{name}.{key}"] = value
    per_layer["abundance.fcls_batch.rows"] = counts.fcls_batch_rows
    per_layer["regression.exit_primal_residual_p50"] = counts.exit_primal_residual_p50()
    per_layer["kalman.state_bytes"] = array_bytes(counts.last_estimator)
    per_layer["pipeline.state_bytes"] = array_bytes(counts.last_state)
    per_layer["pipeline.step_tail_head_ratio"] = tail_head_ratio(
        tracer.durations("pipeline.step"), [r.input.n_acq for r in repeats]
    )
    traced_warnings = {
        key: counter.counts.get(key, 0) - warnings_before.get(key, 0) for key in counter.counts
    }
    per_layer["warnings.count"] = sum(traced_warnings.values())
    for key in WARNING_MODULES + ("other",):
        per_layer[f"warnings.count.{key}"] = traced_warnings.get(key, 0)
    per_layer["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    return per_layer, summary, mcr_asad


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_info(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "kfunmix": os.path.relpath(kfunmix.__file__, root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("generate", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="where measure writes its JSON report")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    expected_pkg = os.path.join(root, "src", "kfunmix")
    if os.path.dirname(os.path.abspath(kfunmix.__file__)) != expected_pkg:
        print(f"kfunmix imported from {kfunmix.__file__}, not {expected_pkg}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.mode == "generate":
        generate(workload, args.seed, args.work_dir)
        return 0
    report = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.work_dir)
    report["run_info"] = run_info(root)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
