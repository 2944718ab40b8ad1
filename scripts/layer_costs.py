"""Time each layer of one acquisition and single-spectrum FCLS per K; print JSON.

Two operating points are streamed: L400 K5 M16 and L200 K3 (M from the
default eta), 30 init spectra each, synthetic data at 20 dB.  Each
acquisition runs once, as one ``pipeline_step`` call under
``perfbench/tracer.py``.  Once ``init_pipeline`` has returned, the tracer
wraps the names the step looks up in ``kfunmix.pipeline`` (``TRACED``): the
step itself, ``estimate_concentration`` (FCLS of the new spectrum),
``reduce_spectrum``, the configured updater, ``solve_regression`` and the
re-anchoring ``reduce_columns``.  A missing name raises ``TraceError``
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
operating point's stream.

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

import numpy as np

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


def import_seconds(src: str) -> float:
    """Wall seconds a fresh ``import kfunmix.cli`` adds to a bare interpreter start."""
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    return wall("import kfunmix.cli") - wall("pass")


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
    parser.add_argument("--calls", type=int, default=5, help="FCLS calls per K and round")
    parser.add_argument("--max-k", type=int, default=12)
    args = parser.parse_args(argv)
    if min(args.rounds, args.steps, args.calls) < 1 or not 2 <= args.max_k <= 12:
        parser.error("rounds, steps and calls must be >= 1, max-k in [2, 12]")

    sys.path.insert(0, os.path.abspath(args.src))
    from kfunmix import abundance, datamodel, fourier, pipeline, protocols, synthdata

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
    imports, load, p2 = [], [], []
    fcls_one = {k: [] for k in ks}
    fcls_batch = {k: [] for k in ks}
    host = []
    clock = time.perf_counter
    for _ in range(args.rounds):
        host.append(host_reference(rng))
        imports.append(import_seconds(os.path.abspath(args.src)))
        t0 = clock()
        datamodel.load_dataset(data_dir.name)
        load.append(clock() - t0)
        t0 = clock()
        protocols.protocol_p2(p2_rows, p2_basis, p2_config)
        p2.append(clock() - t0)
        for name, data, config in streams:
            init[name].append(stream_round(data, config, args.steps, layers[name]))
        for k, (s, rows) in fcls_cases.items():
            for i in range(args.calls):
                t0 = clock()
                abundance.estimate_concentration(rows[i % BATCH_ROWS], s)
                fcls_one[k].append(clock() - t0)
            t0 = clock()
            abundance.estimate_concentrations(rows, s)
            fcls_batch[k].append(clock() - t0)
    data_dir.cleanup()

    report = {
        "src": os.path.abspath(args.src),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "rounds": args.rounds,
        "steps_per_round": args.steps,
        "host_ref_us": summary(host),
        "setup_us": {
            "import_kfunmix": summary(imports),
            "load_dataset": summary(load),
            "protocol_p2": summary(p2),
            "init_pipeline": {name: summary(v) for name, v in init.items()},
        },
        "step_us": {
            name: {layer: summary(v) for layer, v in per.items()} for name, per in layers.items()
        },
        "fcls_one_us": {str(k): summary(v) for k, v in fcls_one.items()},
        f"fcls_batch{BATCH_ROWS}_us": {str(k): summary(v) for k, v in fcls_batch.items()},
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
