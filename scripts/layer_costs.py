"""Time each layer of one acquisition and single-spectrum FCLS per K; print JSON.

Two operating points are streamed: L400 K5 M16 and L200 K3 (M from the
default eta), 30 init spectra each, synthetic data at 20 dB.  Each step runs
the layers of ``pipeline_step`` one by one under ``time.perf_counter`` (FCLS
of the new spectrum, Fourier reduce, the Kalman update, the regression and
the re-anchoring reduce) and then times a whole ``pipeline_step`` on the
same state, so the layers and the step see the same inputs.  Single-spectrum
FCLS runs against a random L = 400 endmember matrix for every K = 2..12,
and a 215-row batch call at the same K.  Rounds interleave the operating
points and the K values, so a drift of the host's speed reaches all of them
alike.  Each round also times a fixed reference workload (``host_ref``); a
figure divided by it compares across hosts and runs better than a raw one.

Set-up is timed once a round, layer by layer (``setup_us``): ``load_dataset``
of an L400 x 1030 dataset saved once to a temporary directory, the P2 order
of a 1000 x 200 set at purity cap 0.8 (340 spectra, 50 clusters), and the
``init_pipeline`` call that starts each operating point's stream.

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
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
# (name, L, K, M or None for the eta criterion)
OPERATING_POINTS = (("L400K5M16", 400, 5, 16), ("L200K3", 200, 3, None))
LAYERS = ("fcls_one", "reduce", "update", "regression", "reanchor", "step")
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


def stream_round(
    kf: SimpleNamespace, data, config, steps: int, out: dict[str, list[float]]
) -> float:
    """One stream of ``steps`` acquisitions, each timed layer by layer and whole.

    Returns the seconds ``init_pipeline`` took to start the stream.
    """
    rows = data.spectra.values
    clock = time.perf_counter
    t0 = clock()
    state = kf.init_pipeline(rows[:N_INIT], config)
    init_s = clock() - t0
    for spectrum in rows[N_INIT : N_INIT + steps]:
        t0 = clock()
        c = kf.estimate_concentration(spectrum, state.endmembers.full)
        t1 = clock()
        observed = kf.reduce_spectrum(spectrum, state.basis)
        t2 = clock()
        estimator = kf.kf_update(state.estimator, c, observed, state.noise)
        t3 = clock()
        fit = kf.solve_regression(state.regressors, estimator.mean.T)
        t4 = clock()
        mean = kf.reduce_columns(fit.endmembers.values, state.basis).T
        t5 = clock()
        nxt, _ = kf.pipeline_step(state, spectrum)
        t6 = clock()
        for name, dt in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
            out[name].append(dt)
        # The layers must reproduce the step, which the stream goes on from.
        if not np.array_equal(mean, nxt.estimator.mean):
            raise RuntimeError("the layers called one by one differ from pipeline_step")
        state = nxt
    return init_s


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
    from kfunmix import (
        abundance, datamodel, fourier, kalman, pipeline, protocols, regression, synthdata,
    )

    kf = SimpleNamespace(
        init_pipeline=pipeline.init_pipeline,
        pipeline_step=pipeline.pipeline_step,
        estimate_concentration=abundance.estimate_concentration,
        reduce_spectrum=fourier.reduce_spectrum,
        reduce_columns=fourier.reduce_columns,
        kf_update=kalman.kf_update,
        solve_regression=regression.solve_regression,
    )

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
    load, p2 = [], []
    fcls_one = {k: [] for k in ks}
    fcls_batch = {k: [] for k in ks}
    host = []
    clock = time.perf_counter
    for _ in range(args.rounds):
        host.append(host_reference(rng))
        t0 = clock()
        datamodel.load_dataset(data_dir.name)
        load.append(clock() - t0)
        t0 = clock()
        protocols.protocol_p2(p2_rows, p2_basis, p2_config)
        p2.append(clock() - t0)
        for name, data, config in streams:
            init[name].append(stream_round(kf, data, config, args.steps, layers[name]))
        for k, (s, rows) in fcls_cases.items():
            for i in range(args.calls):
                t0 = clock()
                kf.estimate_concentration(rows[i % BATCH_ROWS], s)
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
