"""Acceptance gate: twelve shipping criteria, one scorecard line each.

Every test prints a single pass/fail line (bypassing capture) with the
measured numbers, then asserts exactly what the line reports.  The
streaming criteria (6, 7, 8) share one 20-replicate fixture so the whole
gate stays inside its runtime budgets.
"""

import time
import warnings

import numpy as np
import pytest

from kfunmix.abundance import estimate_concentration
from kfunmix.fourier import build_basis, reduce_columns, select_num_harmonics
from kfunmix.kalman import FilterState, kf_update
from kfunmix.mcrals import McrConfig, mcr_als
from kfunmix.metrics import asad, pca_lower_bound
from kfunmix.pipeline import PipelineConfig, init_pipeline, pipeline_step, run_experiment
from kfunmix.protocols import P2Config, convex_hull_phasor, protocol_p1, protocol_p2
from kfunmix.regression import build_regressor_set, solve_regression
from kfunmix.synthdata import (
    SynthConfig,
    estimate_noise_variance,
    generate_dataset,
    generate_pure_spectra,
)
from kfunmix.vca import vca
from qp_oracle import cvxpy_minimum, qp_minimum

N_REPLICATES = 20


def _report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def replicates():
    """Matched 20-seed streaming runs: SD1 under P1 and P2, SD2 under P1."""
    p1_asad, p2_asad, p1_t, p2_t = [], [], None, None
    sd2_final, vca_sd1, vca_sd2 = [], [], []
    bundles = []
    sd1_seconds = 0.0
    sd2_seconds = 0.0
    for seed in range(N_REPLICATES):
        config = PipelineConfig(n_endmembers=3, n_init=30, sigma_v2=1.0, seed=seed)
        tic = time.perf_counter()
        sd1 = generate_dataset(
            SynthConfig(n_spectra=1000, n_channels=200, n_endmembers=3,
                        snr_db=20.0, seed=seed)
        )
        order1 = protocol_p1(1000)
        order2 = protocol_p2(
            sd1.spectra, build_basis(200, 2), P2Config(340, 50, seed=seed)
        )
        run1 = run_experiment(sd1, order1, config, eval_stride=1, abundance_stride=0)
        run2 = run_experiment(sd1, order2, config, eval_stride=1, abundance_stride=0)
        sd1_seconds += time.perf_counter() - tic

        tic = time.perf_counter()
        sd2 = generate_dataset(
            SynthConfig(n_spectra=1000, n_channels=200, n_endmembers=3,
                        snr_db=20.0, purity_cap=0.75, seed=seed)
        )
        run3 = run_experiment(sd2, order1, config, eval_stride=1, abundance_stride=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vca_sd1.append(asad(vca(sd1.spectra, 3, seed=seed), sd1.endmembers))
            vca_sd2.append(asad(vca(sd2.spectra, 3, seed=seed), sd2.endmembers))
        sd2_seconds += time.perf_counter() - tic

        p1_asad.append(np.array([rec.asad_deg for rec in run1.trace.records]))
        p2_asad.append(np.array([rec.asad_deg for rec in run2.trace.records]))
        if p1_t is None:
            p1_t = np.array([rec.t for rec in run1.trace.records])
            p2_t = np.array([rec.t for rec in run2.trace.records])
        sd2_final.append(run3.trace.records[-1].asad_deg)
        if seed < 3:
            bundles.append(sd1)
    return {
        "p1_asad": p1_asad, "p2_asad": p2_asad, "p1_t": p1_t, "p2_t": p2_t,
        "sd2_final": np.array(sd2_final),
        "vca_sd1": np.array(vca_sd1), "vca_sd2": np.array(vca_sd2),
        "bundles": bundles,
        "sd1_seconds": sd1_seconds, "sd2_seconds": sd2_seconds,
    }


def test_01_filter_equals_batch_posterior(capsys):
    tic = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n_comp, dim_obs, n_steps = 3, 6, 50
        dim = n_comp * dim_obs
        mean0 = rng.uniform(-1.0, 1.0, dim)
        sigma_e2 = 0.5
        state = FilterState(mean0.reshape(n_comp, dim_obs), np.eye(n_comp))
        info = np.eye(dim).copy()
        lead = mean0.copy()
        for _ in range(n_steps):
            conc = rng.uniform(0.05, 1.0, n_comp)
            obs = rng.uniform(-1.0, 1.0, dim_obs)
            state = kf_update(state, conc, obs, 0.0, sigma_e2)
            h = np.kron(conc[None, :], np.eye(dim_obs))
            info += h.T @ h / sigma_e2
            lead += (h.T @ obs / sigma_e2).ravel()
        batch = np.linalg.solve(info, lead)
        flat = state.mean.reshape(-1)
        worst = max(worst, np.linalg.norm(flat - batch) / np.linalg.norm(batch))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(capsys, 1, "filter equals batch posterior", ok,
            f"max_rel_gap={worst:.2e} time={elapsed:.2f}s")
    assert ok


def test_02_kron_observation_identity(capsys):
    tic = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n_comp = int(rng.integers(1, 5))
        dim_obs = int(rng.integers(1, 9))
        reduced = rng.uniform(-1.0, 1.0, (dim_obs, n_comp))
        conc = rng.uniform(-1.0, 1.0, n_comp)
        h = np.kron(conc[None, :], np.eye(dim_obs))
        via_state = h @ reduced.T.reshape(-1)
        worst = max(worst, np.abs(via_state - reduced @ conc).max())
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(capsys, 2, "kron observation identity", ok,
            f"max_abs_gap={worst:.2e} time={elapsed:.2f}s")
    assert ok


def test_03_constrained_regression_matches_qp(capsys):
    tic = time.perf_counter()
    worst_gap = -np.inf
    worst_neg = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.1, 1.0, (5, 8))
        basis = build_basis(8, 2)
        regressors = build_regressor_set(rows, basis)
        reduced = basis.operator @ regressors.full_space
        mix = rng.uniform(0.2, 1.0, (5, 2))
        target_vals = reduced @ mix + 0.05 * rng.standard_normal((4, 2))

        # The reduced target is handed over in channels, as F^T T.
        fit = solve_regression(regressors, basis.operator.T @ target_vals, iterations=10_000)
        admm_obj = np.linalg.norm(reduced @ fit.coefficients - target_vals) ** 2

        system = (reduced, regressors.full_space, target_vals)
        worst_gap = max(worst_gap, abs(admm_obj - qp_minimum(*system)[1]))
        reference = cvxpy_minimum(*system)  # None without cvxpy
        if reference is not None:
            worst_gap = max(worst_gap, abs(admm_obj - reference))
        worst_neg = min(worst_neg, float(fit.endmembers.values.min()))
    elapsed = time.perf_counter() - tic
    ok = worst_gap <= 1e-4 and worst_neg >= 0.0 and elapsed < 30.0
    _report(capsys, 3, "constrained regression matches QP", ok,
            f"max_obj_gap={worst_gap:.2e} min_output={worst_neg:.1e} time={elapsed:.1f}s")
    assert ok


def test_04_abundance_matches_grid_search(capsys):
    tic = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 10_001)
    weights = np.column_stack([grid, 1.0 - grid])
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        endmembers = rng.uniform(0.1, 1.0, (12, 2))
        truth = rng.dirichlet(np.ones(2))
        spectrum = endmembers @ truth + 0.01 * rng.standard_normal(12)
        est = estimate_concentration(spectrum, endmembers)
        residual = weights @ endmembers.T - spectrum
        best = weights[np.argmin(np.sum(residual**2, axis=1))]
        worst = max(worst, np.abs(est - best).max())
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-3 and elapsed < 30.0
    _report(capsys, 4, "abundance matches grid search", ok,
            f"max_abund_gap={worst:.2e} time={elapsed:.1f}s")
    assert ok


def test_05_energy_criterion_is_parseval_exact(capsys):
    tic = time.perf_counter()
    ok = True
    detail = []
    for length in (16, 17, 200):
        rng = np.random.default_rng(length)
        rows = rng.uniform(0.0, 1.0, (6, length))
        full = length // 2 + 1
        chosen = select_num_harmonics(rows, 100.0)
        total = float(np.sum(rows**2))
        energies = [
            float(np.sum(reduce_columns(rows.T, build_basis(length, m)) ** 2))
            for m in range(1, full + 1)
        ]
        lossless = abs(energies[-1] - total) / total
        monotone = all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))
        ok = ok and chosen == full and lossless <= 1e-10 and monotone
        detail.append(f"L={length}:M={chosen},gap={lossless:.1e}")
    elapsed = time.perf_counter() - tic
    ok = ok and elapsed < 1.0
    _report(capsys, 5, "energy criterion is Parseval exact", ok,
            " ".join(detail) + f" time={elapsed:.2f}s")
    assert ok


def test_06_streaming_error_converges(replicates, capsys):
    finals = np.array([a[-1] for a in replicates["p1_asad"]])
    at_t50 = np.array([a[replicates["p1_t"] == 50][0] for a in replicates["p1_asad"]])
    mean_final = float(finals.mean())
    mean_t50 = float(at_t50.mean())
    elapsed = replicates["sd1_seconds"]
    ok = mean_final <= 10.0 and mean_final <= mean_t50 and elapsed < 600.0
    _report(capsys, 6, "streaming error converges", ok,
            f"mean_final_asad={mean_final:.2f}deg mean_asad_t50={mean_t50:.2f}deg "
            f"data_time={elapsed:.0f}s")
    assert ok


def test_07_diversity_order_accelerates(replicates, capsys):
    def first_hit(ts, vals):
        return int(ts[np.argmax(vals <= vals[-1] + 1.0)])

    wins = 0
    for a1, a2 in zip(replicates["p1_asad"], replicates["p2_asad"]):
        t1 = first_hit(replicates["p1_t"], a1)
        t2 = first_hit(replicates["p2_t"], a2)
        wins += int(t2 < t1)
    needed = int(np.ceil(0.7 * N_REPLICATES))
    ok = wins >= needed
    _report(capsys, 7, "diversity order accelerates", ok,
            f"strict_wins={wins}/{N_REPLICATES} needed={needed} (data shared with criterion 6)")
    assert ok


def test_08_robust_without_pure_pixels(replicates, capsys):
    kf_sd1 = np.array([a[-1] for a in replicates["p1_asad"]])
    kf_gap = float(np.abs(replicates["sd2_final"] - kf_sd1).mean())
    vca_degradation = float((replicates["vca_sd2"] - replicates["vca_sd1"]).mean())
    elapsed = replicates["sd2_seconds"]
    ok = kf_gap <= 3.0 and vca_degradation >= 2.0 and elapsed < 600.0
    _report(capsys, 8, "robust without pure pixels", ok,
            f"filter_shift={kf_gap:.2f}deg vca_degradation={vca_degradation:.2f}deg "
            f"data_time={elapsed:.0f}s")
    assert ok


def test_09_step_cost_is_flat(capsys):
    tic = time.perf_counter()
    data = generate_dataset(
        SynthConfig(n_spectra=1030, n_channels=400, n_endmembers=5, snr_db=20.0, seed=0)
    )
    config = PipelineConfig(n_endmembers=5, n_init=30, n_harmonics=16, seed=0)
    rows = data.spectra.values
    state = init_pipeline(rows[:30], config)
    times = []
    for i in range(30, 1030):
        state, wall_ms = pipeline_step(state, rows[i])
        times.append(wall_ms)
    arr = np.asarray(times)
    head = float(np.median(arr[:500]))
    tail = float(np.median(arr[500:]))
    ratio = max(head, tail) / min(head, tail)
    median = float(np.median(arr))
    elapsed = time.perf_counter() - tic
    ok = ratio < 3.0 and median <= 10.0 and elapsed < 300.0
    _report(capsys, 9, "step cost is flat", ok,
            f"median={median:.2f}ms head={head:.2f}ms tail={tail:.2f}ms "
            f"ratio={ratio:.2f} time={elapsed:.0f}s")
    assert ok


def test_10_noise_floor_estimate_in_range(capsys):
    tic = time.perf_counter()
    estimates = []
    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        truth = generate_pure_spectra(340, 3, seed=seed)
        rows = rng.dirichlet(np.ones(3), size=30) @ truth.values.T
        estimates.append(estimate_noise_variance(rows + rng.normal(0.0, 5.0, rows.shape)))
        z = rng.standard_normal(rows.shape)
        ratios.append(
            estimate_noise_variance(rows + 10.0 * z)
            / estimate_noise_variance(rows + 5.0 * z)
        )
    in_range = all(7.5 <= est <= 25.0 for est in estimates)
    quadratic = all(abs(r - 4.0) <= 0.4 for r in ratios)
    elapsed = time.perf_counter() - tic
    ok = in_range and quadratic and elapsed < 10.0
    _report(capsys, 10, "noise floor estimate in range", ok,
            f"estimates=[{min(estimates):.1f},{max(estimates):.1f}] "
            f"ratios=[{min(ratios):.2f},{max(ratios):.2f}] time={elapsed:.1f}s")
    assert ok


def test_11_als_descends_to_the_pca_bound(replicates, capsys):
    tic = time.perf_counter()
    worst_excess = 0.0
    monotone = True
    for bundle in replicates["bundles"]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            init = vca(bundle.spectra, 3, seed=bundle.seed)
            result = mcr_als(bundle.spectra.values, McrConfig(init=init))
        monotone = monotone and all(
            later <= earlier + 1e-12
            for earlier, later in zip(result.residuals, result.residuals[1:])
        )
        relative = result.residuals[-1] / np.linalg.norm(bundle.spectra.values)
        bound = pca_lower_bound(bundle.spectra.values, 3)
        worst_excess = max(worst_excess, relative / bound - 1.0)
    elapsed = time.perf_counter() - tic
    ok = monotone and worst_excess <= 0.05 and elapsed < 300.0
    _report(capsys, 11, "ALS descends to the PCA bound", ok,
            f"monotone={monotone} worst_excess={100 * worst_excess:.2f}% "
            f"time={elapsed:.0f}s")
    assert ok


def test_12_hull_matches_brute_force(capsys):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def gift_wrap(points):
        unique = sorted({(int(x), int(y)) for x, y in points})
        if len(unique) <= 2:
            return set(unique)

        def dist2(a, b):
            return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

        start = unique[0]
        hull = [start]
        current = start
        while True:
            nxt = None
            for cand in unique:
                if cand == current:
                    continue
                if nxt is None:
                    nxt = cand
                    continue
                turn = cross(current, nxt, cand)
                if turn < 0 or (turn == 0 and dist2(current, cand) > dist2(current, nxt)):
                    nxt = cand
            if nxt == start:
                break
            hull.append(nxt)
            current = nxt
        return set(hull)

    tic = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if seed % 10 == 0:
            # exactly collinear set with duplicates
            base = rng.integers(-3, 4, size=2)
            step = rng.integers(-2, 3, size=2)
            while not np.any(step):
                step = rng.integers(-2, 3, size=2)
            reps = np.repeat(np.arange(rng.integers(2, 8)), 2)
            points = (base[None, :] + reps[:, None] * step[None, :]).astype(float)
        else:
            n = int(rng.integers(1, 30))
            points = rng.integers(-6, 7, size=(n, 2)).astype(float)
        ours = {tuple(int(v) for v in points[i]) for i in convex_hull_phasor(points)}
        mismatches += int(ours != gift_wrap(points))
    elapsed = time.perf_counter() - tic
    ok = mismatches == 0 and elapsed < 5.0
    _report(capsys, 12, "hull matches brute force", ok,
            f"mismatches={mismatches}/100 time={elapsed:.2f}s")
    assert ok
