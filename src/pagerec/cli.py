"""Command-line front end.

Subcommands: impute (recover an archive), predict (replay a stream of
one-step-ahead forecasts), bench (scenario grid on a seeded synthetic
corpus), rank (the kept rank of each of impute's windows).

Exit codes: 0 success, 1 data error, 2 usage error. Primary artifacts are
deterministic for identical arguments, inputs and seeds; wall-clock timing
is written to a separate .timing.json file that is excluded from that
guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .core import CsvSchema, ingest_csv, write_csv
from .errors import ConfigError, PagerecError
from .harness import (
    PREDICT_CFG,
    Scenario,
    benchmark_corpus,
    results_to_csv_rows,
    results_to_dict,
    run_benchmark,
)
from .matrices import MatrixVariant
from .recovery import RecoveryConfig, impute_offline, predict_stream

_BENCH_CHANNELS = 6
_BENCH_SAMPLES = 1200


def _bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return lowered == "true"


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _variant(text: str) -> MatrixVariant:
    try:
        return MatrixVariant(text.strip().lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"variant must be page or hankel, got {text!r}")


def _variant_list(text: str) -> list[MatrixVariant]:
    return [_variant(token) for token in text.split(",") if token.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagerec",
        description="Recover gappy, noisy multichannel time series with "
        "stacked Page matrices and singular value thresholding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, L, T, with_input=True, default_output="derived from --input"):
        if with_input:
            p.add_argument("--input", required=True, help="input CSV path")
            p.add_argument("--channels", default=None,
                           help="comma list restricting the channels to process")
        p.add_argument("--output", default=None,
                       help=f"primary output path (default: {default_output})")
        p.add_argument("--L", type=int, default=L, help="matrix rows (segment length)")
        p.add_argument("--T", type=int, default=T, help="window length in samples")

    p = sub.add_parser("impute", help="denoise and fill a recorded archive")
    common(p, L=10, T=54000)
    p.add_argument("--variant", type=_variant, default=MatrixVariant.PAGE)
    p.add_argument("--overwrite-observed", type=_bool_flag, default=True,
                   help="true replaces observed samples with their denoised "
                        "estimates, false restores them")

    p = sub.add_parser("predict", help="replay one-step-ahead predictions")
    common(p, L=PREDICT_CFG.L, T=PREDICT_CFG.T)
    p.add_argument("--variant", type=_variant, default=MatrixVariant.PAGE)

    p = sub.add_parser("bench", help="scenario benchmark on a synthetic corpus")
    common(p, L=10, T=240, with_input=False, default_output="bench.report.json")
    p.add_argument("--variant", type=_variant_list, default=[MatrixVariant.PAGE])
    p.add_argument("--drop", type=_float_list, default=[0.1, 0.3, 0.5],
                   help="comma list of drop rates")
    p.add_argument("--noise", type=_float_list, default=[0.0],
                   help="comma list of noise rates")
    p.add_argument("--reps", type=int, default=20, help="repetitions per scenario")
    p.add_argument("--seed", type=int, default=0, help="master seed")

    p = sub.add_parser("rank", help="kept rank of each imputation window")
    common(p, L=10, T=600)
    p.add_argument("--variant", type=_variant, default=MatrixVariant.PAGE)

    return parser


def _output_path(args, suffix: str) -> str:
    if args.output:
        return args.output
    if getattr(args, "input", None):
        return args.input + suffix
    return "bench.report.json"


def _load_input(args):
    """The input dataset, restricted to --channels, and the name of its
    timestamp column (the first header cell, as CsvSchema() reads it)."""
    data = ingest_csv(args.input, CsvSchema())
    with open(args.input, newline="") as fh:
        time_column = next(csv.reader([fh.readline()]))[0].strip()
    if args.channels is not None:
        wanted = [c.strip() for c in args.channels.split(",") if c.strip()]
        if not wanted:
            raise ConfigError(f"--channels {args.channels!r} names no channel")
        missing = [c for c in wanted if c not in data.ids]
        if missing:
            raise ConfigError(f"channels not in input: {missing}")
        repeated = sorted({c for c in wanted if wanted.count(c) > 1})
        if repeated:
            raise ConfigError(f"channels named more than once in --channels: {repeated}")
        data = data.select(wanted)
    return data, time_column


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_impute(args) -> int:
    cfg = RecoveryConfig(
        L=args.L, T=args.T, variant=args.variant,
        overwrite_observed=args.overwrite_observed,
    )
    out = _output_path(args, ".recovered.csv")
    data, time_column = _load_input(args)
    recovered, report = impute_offline(data, cfg)
    write_csv(recovered, out, time_column)
    _write_json(out + ".report.json", report.to_dict())
    _write_json(out + ".timing.json", {
        "median_window_seconds": report.median_step_seconds,
        "total_seconds": float(sum(report.step_seconds)),
    })
    print(f"imputed {len(data)} samples x {len(data.ids)} channels -> {out}")
    return 0


def _cmd_predict(args) -> int:
    cfg = RecoveryConfig(L=args.L, T=args.T, variant=args.variant)
    out = _output_path(args, ".predictions.csv")
    data, time_column = _load_input(args)
    preds, report = predict_stream(data, cfg)
    write_csv(preds, out, time_column)
    _write_json(out + ".report.json", report.to_dict())
    _write_json(out + ".timing.json", {
        "median_step_seconds": report.median_step_seconds,
        "steps": len(report.step_seconds),
    })
    print(f"predicted {len(preds)} steps x {len(preds.ids)} channels -> {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = RecoveryConfig(L=args.L, T=args.T)
    corpus = benchmark_corpus(
        n_channels=_BENCH_CHANNELS, n_samples=_BENCH_SAMPLES, seed=args.seed
    )
    scenarios = [
        Scenario(drop_rate=d, noise_rate=nz, variant=v)
        for d in args.drop for nz in args.noise for v in args.variant
    ]
    out = _output_path(args, ".report.json")
    results = run_benchmark(
        corpus,
        scenarios,
        impute_cfg=cfg,
        repetitions=args.reps,
        master_seed=args.seed,
        tasks=("impute", "predict"),
    )
    _write_json(out, results_to_dict(results))
    with open(out + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "channel", "metric", "value"])
        writer.writerows(results_to_csv_rows(results))
    failures = [r for r in results if r.error]
    for r in failures:
        print(f"scenario {r.scenario.label()} failed: {r.error}", file=sys.stderr)
    print(f"benchmarked {len(scenarios)} scenarios x {args.reps} reps -> {out}")
    return 1 if failures else 0


def _cmd_rank(args) -> int:
    cfg = RecoveryConfig(L=args.L, T=args.T, variant=args.variant)
    out = _output_path(args, ".ranks.csv")
    data, _ = _load_input(args)
    ranks = impute_offline(data, cfg)[1].kept_rank
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "start_sample", "rank"])
        for i, r in enumerate(ranks):
            writer.writerow([i, min(i * cfg.T, len(data) - cfg.T), r])
    print(f"profiled {len(ranks)} windows -> {out}")
    return 0


_COMMANDS = {
    "impute": _cmd_impute,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
    "rank": _cmd_rank,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PagerecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
