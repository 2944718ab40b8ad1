"""Command line front end.

Subcommands: ``synth`` writes a synthetic dataset directory, ``order``
computes an acquisition order for a dataset, ``run`` streams a dataset
through the pipeline and writes metric traces, and ``eval`` aggregates
traces across repetitions.

Exit codes: 0 on success, 2 on configuration or input errors, 3 when the
stream aborts on a numerical failure (the partial trace is still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .datamodel import format_float, load_dataset, save_dataset
from .fourier import build_basis
from .kalman import NumericalError
from .metrics import read_trace_csv, write_trace_csv
from .pipeline import BASELINES, UPDATERS, PipelineConfig, run_experiment
from .protocols import P2Config, load_order_csv, protocol_p1, protocol_p2, save_order_csv
from .synthdata import SynthConfig, generate_dataset


def _parse_alpha(text: str) -> float | tuple[float, ...]:
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError("alpha must contain at least one number")
    return values[0] if len(values) == 1 else tuple(values)


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_spectra=args.n_spectra,
        n_channels=args.n_channels,
        n_endmembers=args.n_endmembers,
        snr_db=args.snr_db,
        alpha=_parse_alpha(args.alpha),
        purity_cap=args.purity_cap,
        seed=args.seed,
    )
    bundle = generate_dataset(config)
    save_dataset(bundle, args.out)
    print(
        f"wrote {args.n_spectra}x{args.n_channels} dataset "
        f"(K={args.n_endmembers}, snr={args.snr_db} dB) to {args.out}"
    )
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.data)
    n = bundle.spectra.n_spectra
    if args.protocol == "p1":
        order = protocol_p1(n, shuffle_seed=args.seed if args.shuffle else None)
    else:
        if args.n_clusters is None:
            raise ValueError("--n-clusters is required for protocol p2")
        n_essential = args.n_essential if args.n_essential is not None else n
        basis = build_basis(bundle.spectra.n_channels, 2)
        order = protocol_p2(
            bundle.spectra, basis, P2Config(n_essential, args.n_clusters, args.seed)
        )
    save_order_csv(order, args.out)
    print(f"wrote {len(order.indices)}-index {args.protocol} order to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.data)
    if args.order is not None:
        order = load_order_csv(args.order)
    else:
        order = protocol_p1(bundle.spectra.n_spectra)
    config = PipelineConfig(
        n_endmembers=args.n_endmembers,
        n_init=args.n_init,
        eta=args.eta,
        n_harmonics=args.n_harmonics,
        sigma_v2=args.sigma_v2,
        updater=args.updater,
        rls_forgetting=args.rls_forgetting,
        seed=args.seed,
    )
    baselines = tuple(s for s in args.baselines.split(",") if s) if args.baselines else ()
    result = run_experiment(
        bundle,
        order,
        config,
        eval_stride=args.eval_stride,
        abundance_stride=args.abundance_stride,
        baselines=baselines,
        baseline_stride=args.baseline_stride,
        flush_path=args.out,
    )
    write_trace_csv(result.trace.records, args.out, comments=result.trace.config_snapshot)
    stem, ext = os.path.splitext(args.out)
    for name, trace in result.baselines.items():
        write_trace_csv(trace.records, f"{stem}.{name}{ext}", comments=trace.config_snapshot)
    last = result.trace.records[-1]
    print(
        f"wrote {len(result.trace.records)} records to {args.out}; "
        f"final asad_deg={format_float(last.asad_deg)} rmse={format_float(last.rmse)} "
        f"re={format_float(last.re)}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    groups: dict[int, list] = {}
    for path in args.traces:
        records, _ = read_trace_csv(path)
        for rec in records:
            groups.setdefault(rec.t, []).append(rec)

    def stats(values: list[float | None]) -> tuple[float, float]:
        present = [v for v in values if v is not None]
        if not present:
            return float("nan"), float("nan")
        return float(np.mean(present)), float(np.std(present))

    lines = [
        "t,n_traces,asad_deg_mean,asad_deg_std,rmse_mean,rmse_std,"
        "re_mean,re_std,wall_ms_mean,wall_ms_std"
    ]
    for t in sorted(groups):
        recs = groups[t]
        cells = [str(t), str(len(recs))]
        for field in ("asad_deg", "rmse", "re", "wall_ms"):
            mean, std = stats([getattr(r, field) for r in recs])
            cells.append(format_float(mean))
            cells.append(format_float(std))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote summary over {len(args.traces)} traces to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfunmix",
        description="Streaming spectral unmixing in a truncated Fourier subspace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-spectra", type=int, required=True)
    p.add_argument("--n-channels", type=int, required=True)
    p.add_argument("--n-endmembers", type=int, required=True)
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument(
        "--alpha",
        default="1.0",
        help="Dirichlet concentration, a number or comma list per component",
    )
    p.add_argument(
        "--purity-cap",
        type=float,
        default=None,
        help="reject mixtures whose largest abundance exceeds this cap",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("order", help="compute an acquisition order for a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--protocol", choices=("p1", "p2"), required=True)
    p.add_argument("--out", required=True, help="output order file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--shuffle", action="store_true", help="p1 only: shuffle instead of native order"
    )
    p.add_argument("--n-essential", type=int, default=None, help="p2: order length")
    p.add_argument("--n-clusters", type=int, default=None, help="p2: cluster count")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("run", help="stream a dataset and write metric traces")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--order", default=None, help="order file (default: native order)")
    p.add_argument("--out", required=True, help="output trace file")
    p.add_argument("--n-endmembers", type=int, required=True)
    p.add_argument("--n-init", type=int, default=30)
    p.add_argument("--eta", type=float, default=87.0)
    p.add_argument(
        "--n-harmonics", type=int, default=None, help="override the eta-based choice"
    )
    p.add_argument("--sigma-v2", type=float, default=1.0)
    p.add_argument("--updater", choices=UPDATERS, default="kalman")
    p.add_argument("--rls-forgetting", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-stride", type=int, default=1)
    p.add_argument(
        "--abundance-stride",
        type=int,
        default=1,
        help="cadence of the batch abundance re-estimate (0 disables rmse/re)",
    )
    p.add_argument(
        "--baselines",
        default="",
        help=f"comma list from {BASELINES}, re-run at --baseline-stride",
    )
    p.add_argument("--baseline-stride", type=int, default=20)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="aggregate metric traces across repetitions")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--out", default=None, help="summary file (default: stdout)")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
