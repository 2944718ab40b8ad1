"""Workload definitions of the kfunmix benchmark (standard library only).

Each workload fixes a synthetic dataset shape, an acquisition order, the
pipeline settings and how the stream is driven.  The benchmark seed drives
``synthdata.generate_dataset`` (and the VCA and P2 seeds), so the same seed
always gives the same inputs.  A workload whose cost depends strongly on
the dataset runs a panel of datasets, seeds ``seed * panel + j``, so that
one run measures the workload rather than one draw of it.
``required_spans`` lists the layers a traced run of the workload must
record at least one call of.
"""

from __future__ import annotations

from dataclasses import dataclass

# Spans every workload records: set-up and the per-acquisition step.
_SETUP_SPANS = (
    "datamodel.load",
    "pipeline.init",
    "synthdata.noise_variance",
    "vca.extract",
    "regression.build",
    "fourier.reduce",
)
_STEP_SPANS = (
    "pipeline.step",
    "abundance.fcls_one",
    "kalman.update",
    "regression.solve",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_spectra: int
    n_channels: int
    n_endmembers: int
    purity_cap: float | None
    protocol: str  # "p1" (native order) or "p2"
    updater: str
    required_spans: tuple[str, ...]
    n_harmonics: int | None = None  # None: chosen by the eta energy criterion
    p2_essential: int = 0
    p2_clusters: int = 0
    # "stream": the benchmark calls pipeline_step itself in a closed loop;
    # "experiment": one run_experiment call per repetition, with the CLI's
    # eval_stride=1 and baseline_stride=20.
    driver: str = "experiment"
    abundance_stride: int = 1
    baselines: tuple[str, ...] = ()
    panel: int = 1
    # Least number of passes over the panel in an untraced run.
    rounds: int = 1
    # Traced runs only: one MCR-ALS baseline solve on the final acquired
    # set, the call run_experiment makes at its last index.
    mcr_probe: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-L400K5M16",
            why=(
                "Closed loop of 1000 pipeline_step calls at the L=400, K=5, M=16 "
                "operating point with no evaluation, 2 datasets a run: isolates the "
                "per-acquisition step, where FCLS and regression ADMM dominate."
            ),
            n_spectra=1030,
            n_channels=400,
            n_endmembers=5,
            purity_cap=None,
            protocol="p1",
            updater="kalman",
            n_harmonics=16,
            driver="stream",
            panel=2,
            required_spans=_SETUP_SPANS + ("protocols.p1",) + _STEP_SPANS,
        ),
        Workload(
            name="experiment-L200K3-eval",
            why=(
                "A default `kfunmix run` (400x200, K=3, P1, Kalman, eval and "
                "abundance stride 1, trace CSV written, 4 datasets a run): the O(t) "
                "batch FCLS re-estimate and the metrics layer dominate."
            ),
            # 400 spectra rather than 1000: a 1000-spectrum run takes ~15 s and
            # its cost moves by ~20% between datasets, so a run could neither
            # pool datasets nor repeat one within the time limit.
            n_spectra=400,
            n_channels=200,
            n_endmembers=3,
            purity_cap=None,
            protocol="p1",
            updater="kalman",
            required_spans=_SETUP_SPANS
            + ("protocols.p1", "fourier.select_harmonics", "pipeline.run")
            + _STEP_SPANS
            + (
                "abundance.fcls_batch",
                "metrics.asad",
                "metrics.align",
                "metrics.reconstruction_error",
                "metrics.rmse",
                "metrics.write_trace",
            ),
            panel=4,
        ),
        Workload(
            name="p2-rls-baselines",
            why=(
                "P2 order (340 of 1000 capped mixtures, 50 clusters), RLS gain rule, VCA "
                "baseline every 20 acquisitions, 4 datasets a run: exercises protocols, "
                "vca and the RLS rule."
            ),
            n_spectra=1000,
            n_channels=200,
            n_endmembers=3,
            purity_cap=0.8,
            protocol="p2",
            updater="rls",
            p2_essential=340,
            p2_clusters=50,
            abundance_stride=0,
            baselines=("vca",),
            # Single-spectrum FCLS cost is bimodal here (early exit or the full
            # 200 iterations) and the mix moves the step median by 2x between
            # datasets, so each run pools four of them.
            panel=4,
            rounds=2,
            mcr_probe=True,
            required_spans=_SETUP_SPANS
            + ("protocols.p2", "fourier.select_harmonics", "pipeline.run")
            + _STEP_SPANS
            + (
                "abundance.fcls_batch",
                "metrics.asad",
                "metrics.align",
                "metrics.reconstruction_error",
                "metrics.rmse",
                "metrics.write_trace",
                "mcrals.init",
                "mcrals.solve",
            ),
        ),
    )
}
