"""Command line front end.

Subcommands: ``synth`` writes a synthetic dataset directory, ``order``
computes an acquisition order for a dataset, ``run`` streams a dataset
through the pipeline and writes metric traces, and ``eval`` aggregates
traces across repetitions.

Exit codes: 0 on success, 2 on configuration or input errors (a bad value
or a path that cannot be read or written), 3 when the stream aborts on a
numerical failure (the partial trace is still written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .datamodel import NumericalError, check_seed, format_float, load_dataset, save_dataset
from .fourier import build_basis
from .metrics import TRACE_COLUMNS, read_trace_csv, write_trace_csv
from .pipeline import BASELINES, STRIDES, UPDATERS, PipelineConfig, run_experiment
from .pipeline import check_experiment_options
from .protocols import P2Config, load_order_csv, protocol_p1, protocol_p2, save_order_csv
from .synthdata import SynthConfig, generate_dataset


def _parse_alpha(text: str) -> float | tuple[float, ...]:
    values = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"--alpha: {token!r} is not a number") from None
    if not values:
        raise ValueError("--alpha: no number given")
    return values[0] if len(values) == 1 else tuple(values)


def _given(args: argparse.Namespace, config_class: type) -> dict:
    names = {f.name for f in fields(config_class)}
    return {name: value for name, value in vars(args).items() if name in names}


def _cmd_synth(args: argparse.Namespace) -> int:
    given = _given(args, SynthConfig)
    if "alpha" in given:
        given["alpha"] = _parse_alpha(given["alpha"])
    config = SynthConfig(**given)
    bundle = generate_dataset(config)
    save_dataset(bundle, args.out)
    print(
        f"wrote {config.n_spectra}x{config.n_channels} dataset "
        f"(K={config.n_endmembers}, snr={config.snr_db} dB) to {args.out}"
    )
    return 0


def _check_writable(path: str) -> None:
    """Open ``path`` for writing, so a bad output fails before any work is done."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cmd_order(args: argparse.Namespace) -> int:
    p2_config = None
    if args.protocol == "p2":
        # argparse cannot make an option required for one choice only.
        if args.n_clusters is None:
            raise ValueError("--n-clusters is required for protocol p2")
        p2_config = P2Config(args.n_essential, args.n_clusters, args.seed)
    if args.shuffle:
        check_seed(args.seed, "shuffle_seed")  # before the dataset is read
    _check_writable(args.out)
    bundle = load_dataset(args.data)
    if p2_config is None:
        shuffle_seed = args.seed if args.shuffle else None
        order = protocol_p1(bundle.spectra.n_spectra, shuffle_seed=shuffle_seed)
    else:
        basis = build_basis(bundle.spectra.n_channels, 2)
        order = protocol_p2(bundle.spectra, basis, p2_config)
    save_order_csv(order, args.out)
    print(f"wrote {len(order.indices)}-index {args.protocol} order to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig(**_given(args, PipelineConfig))
    strides = {name: value for name, value in vars(args).items() if name in STRIDES}
    baselines = tuple(s for s in args.baselines.split(",") if s)
    check_experiment_options(baselines, **strides)
    stem, ext = os.path.splitext(args.out)
    baseline_paths = {name: f"{stem}.{name}{ext}" for name in baselines}
    for path in (args.out, *baseline_paths.values()):
        _check_writable(path)
    bundle = load_dataset(args.data)
    n = bundle.spectra.n_spectra
    order = load_order_csv(args.order) if args.order is not None else protocol_p1(n)
    result = run_experiment(
        bundle, order, config, baselines=baselines, flush_path=args.out, **strides
    )
    write_trace_csv(result.trace.records, args.out, comments=result.trace.config_snapshot)
    for name, trace in result.baselines.items():
        write_trace_csv(trace.records, baseline_paths[name], comments=trace.config_snapshot)
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

    metrics = TRACE_COLUMNS[1:]
    lines = ["t,n_traces," + ",".join(f"{m}_mean,{m}_std" for m in metrics)]
    for t in sorted(groups):
        recs = groups[t]
        cells = [str(t), str(len(recs))]
        for field in metrics:
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
        description="Streaming spectral unmixing in a truncated Fourier subspace. "
        "An omitted setting of synth or run takes the library's default.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An omitted synth or run option stays out of the namespace, so the library
    # owns its default and its check; an option the CLI owns states its default.
    p = sub.add_parser(
        "synth", help="generate a synthetic dataset directory", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-spectra", type=int, required=True)
    p.add_argument("--n-channels", type=int, required=True)
    p.add_argument("--n-endmembers", type=int, required=True)
    p.add_argument("--snr-db", type=float)
    p.add_argument("--alpha", help="Dirichlet concentration, a number or comma list per component")
    p.add_argument(
        "--purity-cap", type=float, help="reject mixtures whose largest abundance exceeds this cap"
    )
    p.add_argument("--seed", type=int)
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

    p = sub.add_parser(
        "run", help="stream a dataset and write metric traces", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--order", default=None, help="order file (default: native order)")
    p.add_argument("--out", required=True, help="output trace file")
    p.add_argument("--n-endmembers", type=int, required=True)
    p.add_argument("--n-init", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--n-harmonics", type=int, help="override the eta-based choice")
    p.add_argument("--sigma-v2", type=float)
    p.add_argument("--updater", choices=UPDATERS)
    p.add_argument("--rls-forgetting", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--eval-stride", type=int)
    p.add_argument(
        "--abundance-stride",
        type=int,
        help="cadence of the batch abundance re-estimate (0 disables rmse/re)",
    )
    p.add_argument(
        "--baselines",
        default="",
        help=f"comma list from {BASELINES}, re-run at --baseline-stride",
    )
    p.add_argument("--baseline-stride", type=int)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
