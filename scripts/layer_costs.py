"""Time each layer of one acquisition, of one record's evaluation and FCLS per K; print JSON.

Two operating points are streamed: L400 K5 M16 and L200 K3 (M from the
default eta), 30 init spectra each, synthetic data at 20 dB.  Each
acquisition runs once, as one ``pipeline_step`` call under
``perfbench/tracer.py``.  Once ``init_pipeline`` has returned, the tracer
wraps the names the step looks up in ``kfunmix.pipeline`` (``TRACED``): the
step itself, ``estimate_concentration`` (FCLS of the new spectrum),
``reduce_spectrum``, the configured updater, ``solve_regression`` and
``reduce_columns``, which ``PipelineState.estimator`` calls at the start of
the step to reduce the current endmembers to the filter's prior mean (its
span keeps the name ``reanchor``).  A missing name raises ``TraceError``
rather than reading zero.  A span costs its caller about 0.5-2 us more than
a plain call, so each ``step`` figure carries up to about 10 us for the
five spans inside it.  ``step`` minus the sum of the layers is the step's
own code, including its two ``FilterState`` constructions.  Single-spectrum
FCLS runs against a random L = 400 endmember matrix for every K = 2..12,
and a 215-row batch call at the same K.  Rounds interleave the operating
points and the K values, so a drift of the host's speed reaches all of them
alike.  Each round also times a fixed reference workload (``host_ref``); a
figure divided by it compares across hosts and runs better than a raw one.

Set-up is timed once a round, layer by layer (``setup_us``): the start-up
of a fresh interpreter that runs ``import kfunmix.cli`` with ``--src`` on
``PYTHONPATH``, less that of a bare ``python -c pass`` (``import_kfunmix``),
``load_dataset`` of an L400 x 1030 dataset saved once to a temporary
directory, the P2 order of a 1000 x 200 set at purity cap 0.8 (340
spectra, 50 clusters), and the ``init_pipeline`` call that starts each
operating point's stream.  The importing process also prints its own peak
RSS (``VmHWM`` from ``/proc/self/status``); ``import_rss_mb`` is the
median of those over the rounds, the memory that loading kfunmix and its
dependencies takes before any data is read, or null on a host without
``/proc``, where every other figure is still reported.

VCA is timed once a round per case (``vca_us``), ``--calls`` calls each:
prefixes of 51, 171 and 340 spectra of the P2 order timed in set-up, which the
``p2-rls-baselines`` benchmark's VCA baseline meets (K3, clean regime), and
two noisy K5 cases, the L400K5M16 stream's 30 init spectra and 340 x 400
spectra.  Where the checkout's ``kfunmix.vca`` proves the clean regime from
a sketch (``_certify_clean``), each case also gives that certificate's own
time (``certificate``) and whether it decided the regime (``certified``);
both are null for a checkout without one.

BLAS and OpenMP run on one thread, as in the benchmark: before NumPy is
imported, ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1 unless the caller set them, and the
import-timing subprocess inherits them.  ``blas_threads`` in the report
gives the values in effect.

The evaluation of one record (``eval_us``) is timed at L200 K3 for t =
100, 215 and 400 acquired spectra, ``--calls`` times each after every
stream round, so the step and the evaluation meet the same host speed.
Each call is timed apart, in the order ``kfunmix.pipeline._evaluate``
makes them: the batch FCLS of the t spectra, the reconstruction error,
ASAD, the alignment and the RMSE.  The t spectra are the first of a 400 x
200 synthetic set at 20 dB, scored against VCA endmembers of its first 30
spectra, as a stream's early estimate would be.

All times are in microseconds: the median and 95th percentile over every
sample of every round.  The script imports ``kfunmix`` from ``--src``
(default: this checkout's ``src``), so one copy of it measures any checkout
that has the same public API.

Two checkouts run in two processes, whose heaps grow and shrink with what
each has allocated before.  A batch call whose temporaries need fresh
pages pays for the page faults: at K = 6-9, 150-750 minor faults of a
215-row call came and went with the allocation history of otherwise equal
code.  To compare batch calls of two versions, alternate them in one
process.

Usage:
    python3 scripts/layer_costs.py > layers.json
    python3 scripts/layer_costs.py --src ../parent/src --rounds 10 --steps 100
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from tracer import Tracer  # noqa: E402  (perfbench/ is not a package)

# (name, L, K, M or None for the eta criterion)
OPERATING_POINTS = (("L400K5M16", 400, 5, 16), ("L200K3", 200, 3, None))
LAYERS = ("fcls_one", "reduce", "update", "regression", "reanchor", "step")
# The span of each name pipeline_step looks up in kfunmix.pipeline.
TRACED = {
    "pipeline_step": "step",
    "estimate_concentration": "fcls_one",
    "reduce_spectrum": "reduce",
    "kf_update": "update",
    "rls_update": "update",
    "dl_update": "update",
    "solve_regression": "regression",
    "reduce_columns": "reanchor",
}
FCLS_CHANNELS = 400
BATCH_ROWS = 215
N_INIT = 30
# (n_spectra, n_channels, n_endmembers, purity_cap) of the set-up datasets
LOAD_SHAPE = (1030, 400, 5, None)
P2_SHAPE = (1000, 200, 3, 0.8)
P2_ESSENTIAL, P2_CLUSTERS = 340, 50
# P2-order prefixes of the clean VCA cases, and the noisy full-size case's shape.
VCA_P2_PREFIXES = (51, 171, 340)
VCA_NOISY_SHAPE = (340, 400, 5, None)
# The evaluation set, the acquired-spectra counts of its timed records, and
# the calls each record makes.
EVAL_SHAPE = (400, 200, 3, None)
EVAL_ROWS = (100, 215, 400)
EVAL_LAYERS = ("fcls_batch", "reconstruction_error", "asad", "align", "rmse")


def summary(samples: list[float]) -> dict[str, float]:
    us = np.asarray(samples) * 1e6
    return {"median": float(np.median(us)), "p95": float(np.percentile(us, 95))}


def stream_round(data, config, steps: int, out: dict[str, list[float]]) -> float:
    """One stream of ``steps`` acquisitions, each a traced ``pipeline_step`` call.

    Returns the seconds ``init_pipeline`` took to start the stream.
    """
    from kfunmix import pipeline

    rows = data.spectra.values
    t0 = time.perf_counter()
    state = pipeline.init_pipeline(rows[:N_INIT], config)
    init_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed([(pipeline, name, span, None) for name, span in TRACED.items()]):
        for spectrum in rows[N_INIT : N_INIT + steps]:
            state, _ = pipeline.pipeline_step(state, spectrum)
    for layer in LAYERS:
        out[layer].extend(ns / 1e9 for ns in tracer.durations(layer))
    return init_s


def vca_round(cases: dict, calls: int, out: dict[str, dict[str, list]]) -> None:
    """``calls`` traced ``vca`` calls per case of ``cases`` ({name: (rows, K)}).

    Each call's seconds go to ``out[name]["vca"]``; the certificate's seconds
    and verdicts, where the checkout has one, to ``"certificate"`` and
    ``"certified"``.
    """
    from kfunmix import vca

    verdicts = []
    targets = [(vca, "vca", "vca", None)]
    if hasattr(vca, "_certify_clean"):
        targets.append(
            (vca, "_certify_clean", "certificate", lambda args, kwargs, result: verdicts.append(result))
        )
    for name, (rows, k) in cases.items():
        tracer = Tracer()
        verdicts.clear()
        with tracer.installed(targets):
            for _ in range(calls):
                vca.vca(rows, k)
        for span in ("vca", "certificate"):
            out[name][span].extend(ns / 1e9 for ns in tracer.durations(span))
        out[name]["certified"].extend(verdicts)


def eval_round(data, endmembers, calls: int, out: dict[int, dict[str, list[float]]]) -> None:
    """``calls`` evaluations of one record for each t of EVAL_ROWS, each call
    timed apart; seconds go to ``out[t][layer]``."""
    from kfunmix import abundance, metrics

    rows = data.spectra.values
    truth_s, truth_c = data.endmembers, data.concentrations.values
    clock = time.perf_counter
    for t in EVAL_ROWS:
        acquired, truth = rows[:t], truth_c[:t]
        for _ in range(calls):
            t0 = clock()
            conc = abundance.estimate_concentrations(acquired, endmembers)
            t1 = clock()
            metrics.reconstruction_error(acquired, conc, endmembers)
            t2 = clock()
            metrics.asad(endmembers, truth_s)
            t3 = clock()
            perm = metrics.align_components(endmembers, truth_s)
            t4 = clock()
            metrics.rmse_concentrations(conc, truth, perm)
            t5 = clock()
            for layer, seconds in zip(EVAL_LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                out[t][layer].append(seconds)


# The importing child prints its own peak RSS in KB, or nothing where the
# host has no /proc.  ru_maxrss would not do: Linux carries it across exec
# from the spawning process, so it would read this script's peak; VmHWM
# counts the child's own pages only.  The read adds well under a millisecond.
PEAK_RSS_KB = (
    "import os\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    print(next(line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM:')))"
)


def import_cost(src: str) -> tuple[float, float | None]:
    """Wall seconds a fresh ``import kfunmix.cli`` adds to a bare interpreter
    start, and the peak RSS in MB of the process that imported it (None
    where the host has no ``/proc``)."""
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)

    def wall(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        return time.perf_counter() - t0, out

    import_s, peak_kb = wall("import kfunmix.cli\n" + PEAK_RSS_KB)
    return import_s - wall("pass")[0], int(peak_kb) / 1024 if peak_kb else None


def host_reference(rng: np.random.Generator) -> float:
    """Seconds for a fixed mix of small BLAS, LAPACK and elementwise calls."""
    a = rng.uniform(size=(400, 30))
    b = rng.uniform(size=(30, 5))
    g = rng.uniform(size=(6, 6))
    g = g @ g.T
    t0 = time.perf_counter()
    for _ in range(50):
        np.maximum(a @ b, 0.0)
        np.linalg.eigvalsh(g)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=60, help="acquisitions per stream round")
    parser.add_argument(
        "--calls", type=int, default=5,
        help="FCLS calls per K, VCA calls per case and evaluations per t, per round",
    )
    parser.add_argument("--max-k", type=int, default=12)
    args = parser.parse_args(argv)
    if min(args.rounds, args.steps, args.calls) < 1 or not 2 <= args.max_k <= 12:
        parser.error("rounds, steps and calls must be >= 1, max-k in [2, 12]")

    sys.path.insert(0, os.path.abspath(args.src))
    from kfunmix import abundance, datamodel, fourier, pipeline, protocols, synthdata, vca

    def synth(n_spectra: int, n_channels: int, k: int, purity_cap: float | None = None):
        return synthdata.generate_dataset(
            synthdata.SynthConfig(
                n_spectra=n_spectra, n_channels=n_channels, n_endmembers=k,
                purity_cap=purity_cap, seed=1,
            )
        )

    streams = []
    for name, n_channels, k, m in OPERATING_POINTS:
        data = synth(N_INIT + args.steps, n_channels, k)
        streams.append((name, data, pipeline.PipelineConfig(n_endmembers=k, n_harmonics=m)))
    p2_rows = synth(*P2_SHAPE).spectra.values
    p2_basis = fourier.build_basis(P2_SHAPE[1], 2)
    p2_config = protocols.P2Config(P2_ESSENTIAL, P2_CLUSTERS, seed=1)
    p2_order = list(protocols.protocol_p2(p2_rows, p2_basis, p2_config).indices)
    vca_cases = {f"p2_{t}": (p2_rows[p2_order[:t]], P2_SHAPE[2]) for t in VCA_P2_PREFIXES}
    (name, _, k, _), (_, data, _) = OPERATING_POINTS[0], streams[0]
    vca_cases[f"init_{name}"] = (data.spectra.values[:N_INIT], k)
    noisy_n, noisy_l, noisy_k, _ = VCA_NOISY_SHAPE
    vca_cases[f"L{noisy_l}K{noisy_k}_N{noisy_n}"] = (synth(*VCA_NOISY_SHAPE).spectra.values, noisy_k)
    eval_data = synth(*EVAL_SHAPE)
    eval_endmembers = vca.vca(eval_data.spectra.values[:N_INIT], EVAL_SHAPE[2])
    data_dir = tempfile.TemporaryDirectory()
    datamodel.save_dataset(synth(*LOAD_SHAPE), data_dir.name)
    rng = np.random.default_rng(0)
    ks = range(2, args.max_k + 1)
    fcls_cases = {
        k: (rng.uniform(size=(FCLS_CHANNELS, k)), rng.uniform(size=(BATCH_ROWS, FCLS_CHANNELS)))
        for k in ks
    }

    layers = {name: {layer: [] for layer in LAYERS} for name, _, _ in streams}
    init = {name: [] for name, _, _ in streams}
    imports, import_rss, load, p2 = [], [], [], []
    fcls_one = {k: [] for k in ks}
    fcls_batch = {k: [] for k in ks}
    vca_samples = {name: {"vca": [], "certificate": [], "certified": []} for name in vca_cases}
    evals = {t: {layer: [] for layer in EVAL_LAYERS} for t in EVAL_ROWS}
    host = []
    clock = time.perf_counter
    for _ in range(args.rounds):
        host.append(host_reference(rng))
        import_s, import_rss_mb = import_cost(os.path.abspath(args.src))
        imports.append(import_s)
        import_rss.append(import_rss_mb)
        t0 = clock()
        datamodel.load_dataset(data_dir.name)
        load.append(clock() - t0)
        t0 = clock()
        protocols.protocol_p2(p2_rows, p2_basis, p2_config)
        p2.append(clock() - t0)
        for name, data, config in streams:
            init[name].append(stream_round(data, config, args.steps, layers[name]))
            eval_round(eval_data, eval_endmembers, args.calls, evals)
        for k, (s, rows) in fcls_cases.items():
            for i in range(args.calls):
                t0 = clock()
                abundance.estimate_concentration(rows[i % BATCH_ROWS], s)
                fcls_one[k].append(clock() - t0)
            t0 = clock()
            abundance.estimate_concentrations(rows, s)
            fcls_batch[k].append(clock() - t0)
        vca_round(vca_cases, args.calls, vca_samples)
    data_dir.cleanup()

    report = {
        "src": os.path.abspath(args.src),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ[name] for name in THREAD_ENV},
        "rounds": args.rounds,
        "steps_per_round": args.steps,
        "host_ref_us": summary(host),
        "setup_us": {
            "import_kfunmix": summary(imports),
            "load_dataset": summary(load),
            "protocol_p2": summary(p2),
            "init_pipeline": {name: summary(v) for name, v in init.items()},
        },
        "import_rss_mb": None if None in import_rss else float(np.median(import_rss)),
        "step_us": {
            name: {layer: summary(v) for layer, v in per.items()} for name, per in layers.items()
        },
        "eval_us": {
            str(t): {layer: summary(v) for layer, v in per.items()} for t, per in evals.items()
        },
        "fcls_one_us": {str(k): summary(v) for k, v in fcls_one.items()},
        f"fcls_batch{BATCH_ROWS}_us": {str(k): summary(v) for k, v in fcls_batch.items()},
        "vca_us": {
            name: {
                **summary(v["vca"]),
                "certificate": summary(v["certificate"]) if v["certificate"] else None,
                "certified": all(v["certified"]) if v["certified"] else None,
            }
            for name, v in vca_samples.items()
        },
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
