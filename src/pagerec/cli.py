"""Command-line front end.

Subcommands: impute (recover an archive; its report lists each window's
start and kept rank), predict (replay a stream of one-step-ahead
forecasts), bench (scenario grid on a seeded synthetic corpus).

Exit codes: 0 success, 1 data error, 2 usage error. Primary artifacts are
deterministic for identical arguments, inputs and seeds; wall-clock timing
is written to a separate .timing.json file that is excluded from that
guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ingest_csv, timestamp_column, write_csv
from .errors import ConfigError, PagerecError
from .harness import (
    IMPUTE_CFG,
    PREDICT_CFG,
    Scenario,
    benchmark_corpus,
    results_to_dict,
    run_benchmark,
)
from .matrices import MatrixVariant
from .recovery import RecoveryConfig, impute_offline, predict_stream


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

    def common(p, cfg, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="input CSV path")
            p.add_argument("--channels", default=None,
                           help="comma list restricting the channels to process")
            p.add_argument("--output", default=None,
                           help="primary output path (default: derived from --input)")
        p.add_argument("--L", type=int, default=cfg.L, help="matrix rows (segment length)")
        p.add_argument("--T", type=int, default=cfg.T, help="window length in samples")

    p = sub.add_parser("impute", help="denoise and fill a recorded archive")
    defaults = RecoveryConfig()
    common(p, defaults)
    p.add_argument("--variant", type=_variant, default=defaults.variant)
    p.add_argument("--overwrite-observed", type=_bool_flag,
                   default=defaults.overwrite_observed,
                   help="true replaces observed samples with their denoised "
                        "estimates, false restores them")

    p = sub.add_parser("predict", help="replay one-step-ahead predictions")
    common(p, PREDICT_CFG)
    p.add_argument("--variant", type=_variant, default=PREDICT_CFG.variant)

    p = sub.add_parser("bench", help="scenario benchmark on a synthetic corpus")
    common(p, IMPUTE_CFG, with_input=False)
    p.add_argument("--output", default="bench.report.json", help="report path (default: %(default)s)")
    p.add_argument("--variant", type=_variant_list, default=[IMPUTE_CFG.variant])
    p.add_argument("--drop", type=_float_list, default=[0.1, 0.3, 0.5],
                   help="comma list of drop rates")
    p.add_argument("--noise", type=_float_list, default=[0.0],
                   help="comma list of noise rates")
    p.add_argument("--reps", type=int, default=20, help="repetitions per scenario")
    p.add_argument("--seed", type=int, default=0, help="master seed")

    return parser


def _load_input(args):
    """The input dataset, restricted to --channels, and the name of its
    timestamp column."""
    data = ingest_csv(args.input)
    time_column = timestamp_column(args.input)
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
    out = args.output or args.input + ".recovered.csv"
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
    out = args.output or args.input + ".predictions.csv"
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
    # run_benchmark gives the impute window each scenario's variant and checks
    # it against every one; the first listed variant only makes it a config
    impute_cfg = (RecoveryConfig(L=args.L, T=args.T, variant=args.variant[0])
                  if args.variant else None)
    corpus = benchmark_corpus(seed=args.seed)
    scenarios = [
        Scenario(drop_rate=d, noise_rate=nz, variant=v)
        for d in args.drop for nz in args.noise for v in args.variant
    ]
    results = run_benchmark(
        corpus,
        scenarios,
        impute_cfg=impute_cfg,
        repetitions=args.reps,
        master_seed=args.seed,
    )
    _write_json(args.output, results_to_dict(results))
    failures = [r for r in results if r.error]
    for r in failures:
        print(f"scenario {r.scenario.label()} failed: {r.error}", file=sys.stderr)
    print(f"benchmarked {len(scenarios)} scenarios x {args.reps} reps -> {args.output}")
    return 1 if failures else 0


_COMMANDS = {
    "impute": _cmd_impute,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
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
