"""Command-line entry point.

Subcommands: synth, ingest, analyze-ssnr, fit-trend, recommend, evaluate,
sweep.  All file outputs are written atomically (temp file + rename) and
all floating-point values are serialized with 12 significant digits, so a
fixed seed reproduces outputs byte for byte.  Timings go to stderr, never
into artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .atomic import atomic_open
from .dataset import (
    Dataset,
    LogFormat,
    parse_events,
    preprocess,
    split_leave_latest,
    write_events,
)
from .decay import FAMILIES, parse_decay
from .evaluation import (
    ALL_FAMILIES,
    DEFAULT_POINTS_PER_PARAM,
    EvalReport,
    ParamGrid,
    evaluate_split,
    grid_sweep,
)
from .recommender import score_items, top_n
from .similarity import build_similarity, load_cache, save_cache
from .synthetic import SyntheticConfig, generate_synthetic
from .temporal import (
    DEFAULT_AGE_MIN,
    DEFAULT_BIN_RATIO,
    DEFAULT_GRID_POINTS,
    DEFAULT_TL_GRID_RANGE,
    DEFAULT_TS_GRID_RANGE,
    BinnedCurve,
    CurveBin,
    TrendFit,
    collect_ssnr_ages,
    fit_piecewise_trend,
    log_bin_average,
)

# One sweep table column per decay parameter, in registry order.
SWEEP_PARAM_COLUMNS = tuple(
    dict.fromkeys(f.name for cls in FAMILIES.values() for f in dataclasses.fields(cls))
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(value):
    """Normalize floats to 12 significant digits for stable serialization."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


def _load_dataset(path: str, fmt: LogFormat = LogFormat()) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        log = parse_events(fh, fmt)
    if log.skipped:
        print(f"note: skipped {log.skipped} malformed line(s) in {path}", file=sys.stderr)
    return preprocess(log)


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"invalid depth list {text!r}; expected comma-separated integers")
    if not ns or any(n < 1 for n in ns):
        raise ValueError(f"depths must be positive integers, got {text!r}")
    return ns


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"{flag} expects LO:HI, got {text!r}")
    try:
        pair = (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"{flag} expects numeric LO:HI, got {text!r}") from None
    if not 0 < pair[0] <= pair[1]:
        raise ValueError(f"{flag} expects 0 < LO <= HI, got {text!r}")
    return pair


def _report_json(report: EvalReport, normalize: bool) -> dict:
    results = []
    for r in report.results:
        row = {"n": r.n, "hits": r.hits, "hit_rate": r.hit_rate}
        if normalize:
            row["hit_fraction"] = r.hit_fraction
        results.append(row)
    return {
        "decay": report.decay,
        "evaluated_users": report.evaluated_users,
        "results": results,
    }


def _curve_csv(curve: BinnedCurve) -> str:
    lines = ["age_lo,age_hi,mean_ssnr,count"]
    for b in curve.bins:
        lines.append(f"{_fmt(b.age_lo)},{_fmt(b.age_hi)},{_fmt(b.mean_ssnr)},{b.count}")
    return "\n".join(lines) + "\n"


def _read_curve_csv(path: str) -> BinnedCurve:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "age_lo,age_hi,mean_ssnr,count":
        raise ValueError(f"{path}: expected header 'age_lo,age_hi,mean_ssnr,count'")
    bins = []
    for line in lines[1:]:
        lo, hi, mean, count = line.split(",")
        bins.append(CurveBin(float(lo), float(hi), float(mean), int(count)))
    if not bins:
        raise ValueError(f"{path}: curve has no bins")
    return BinnedCurve(tuple(bins), bins[0].age_hi / bins[0].age_lo, bins[0].age_lo)


def _trend_json(fit: TrendFit) -> dict:
    return {
        "t_s": fit.t_s,
        "t_l": fit.t_l,
        "k_s": fit.k_s,
        "k_l": fit.k_l,
        "plateau": fit.plateau,
        "residual": fit.residual,
    }


def _model_for(train, cache_path: str | None):
    if cache_path and os.path.exists(cache_path):
        model = load_cache(cache_path, train.content_hash())
        print(f"note: loaded similarity cache {cache_path}", file=sys.stderr)
        return model
    model = build_similarity(train)
    if cache_path:
        save_cache(model, cache_path, train.content_hash())
        print(f"note: wrote similarity cache {cache_path}", file=sys.stderr)
    return model


def _cmd_synth(args) -> int:
    config = SyntheticConfig(
        users=args.users,
        items=args.items,
        events=args.events,
        topics=args.topics,
        drift_switches=args.drift_switches,
        session_prob=args.session_prob,
        session_explore=args.session_explore,
        session_length=args.session_length,
        noise_prob=args.noise_prob,
        horizon=args.horizon,
        seed=args.seed,
    )
    if args.zero_drift:
        config = config.zero_drift()
    log = generate_synthetic(config)
    buf = io.StringIO()
    write_events(log, buf)
    _emit(args.out, buf.getvalue())
    print(f"note: generated {len(log.events)} events", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    fmt = LogFormat(args.delimiter, tuple(args.columns.split(",")))
    dataset = _load_dataset(args.input, fmt)
    _emit(args.out, _json_text(dataset.summary()))
    return 0


def _cmd_analyze_ssnr(args) -> int:
    dataset = _load_dataset(args.input)
    train, probes = split_leave_latest(dataset)
    model = _model_for(train, args.sim_cache)
    samples, exclusions = collect_ssnr_ages(train, probes, model)
    print(
        f"note: {len(samples)} samples, "
        f"{exclusions['degenerate_infinite']} degenerate-infinite and "
        f"{exclusions['isolated']} isolated excluded",
        file=sys.stderr,
    )
    curve = log_bin_average(samples, args.bin_ratio, args.age_min)
    _emit(args.curve_out, _curve_csv(curve))
    if args.trend_out:
        fit = fit_piecewise_trend(curve)
        _emit(args.trend_out, _json_text(_trend_json(fit)))
    return 0


def _cmd_fit_trend(args) -> int:
    curve = _read_curve_csv(args.curve)
    ts_grid = np.geomspace(*args.ts_range, args.grid_points)
    tl_grid = np.geomspace(*args.tl_range, args.grid_points)
    fit = fit_piecewise_trend(curve, ts_grid, tl_grid)
    _emit(args.out, _json_text(_trend_json(fit)))
    return 0


def _cmd_recommend(args) -> int:
    dataset = _load_dataset(args.input)
    if args.user not in dataset.user_index:
        raise ValueError(f"unknown user {args.user!r}")
    user = dataset.user_index[args.user]
    spec = parse_decay(args.decay)
    model = build_similarity(dataset)
    scores = score_items(dataset, model, user, args.at, spec)
    ranked = top_n(scores, args.n)
    payload = [
        {"item": dataset.item_ids[item], "score": score} for item, score in ranked
    ]
    _emit(args.out, _json_text(payload))
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _load_dataset(args.input)
    spec = parse_decay(args.decay)
    n_list = _parse_n_list(args.n)
    train, probes = split_leave_latest(dataset)
    model = _model_for(train, args.sim_cache)
    report = evaluate_split(train, probes, model, spec, n_list)
    _emit(args.out, _json_text(_report_json(report, args.normalize_hitrate)))
    print(f"note: evaluated in {report.wall_time_s:.2f}s", file=sys.stderr)
    return 0


def _sweep_csv(rows: list[dict], n_list: list[int]) -> str:
    header = ["family", *SWEEP_PARAM_COLUMNS] + [f"h_at_{n}" for n in n_list]
    lines = [",".join(header)]
    for row in rows:
        cells = [row["family"]]
        values = dataclasses.asdict(row["spec"])
        for col in SWEEP_PARAM_COLUMNS:
            cells.append(_fmt(values[col]) if col in values else "")
        cells.extend(_fmt(row["hit_rate"][n]) for n in n_list)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    dataset = _load_dataset(args.input)
    families = [f.strip() for f in args.family.split(",") if f.strip()]
    n_list = _parse_n_list(args.n)
    grid = ParamGrid.default(families, args.grid_points)
    result = grid_sweep(dataset, grid, args.objective_n, n_list)
    depths = list(n_list)
    if args.objective_n not in depths:
        depths.append(args.objective_n)
    _emit(args.table_out, _sweep_csv(result.rows, depths))
    if args.best_out:
        best = {
            "objective_n": result.objective_n,
            "best": {
                "family": result.best_row["family"],
                "decay": result.best_row["decay"],
                "params": result.best_row["params"],
                "hit_rate": {str(n): v for n, v in result.best_row["hit_rate"].items()},
            },
            "per_family": {
                family: {
                    "decay": row["decay"],
                    "params": row["params"],
                    "hit_rate": {str(n): v for n, v in row["hit_rate"].items()},
                }
                for family, row in sorted(result.best_per_family().items())
            },
        }
        _emit(args.best_out, _json_text(best))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftcf",
        description="Time-aware item-based collaborative filtering toolkit",
    )
    parser.add_argument("--version", action="version", version=f"driftcf {__version__}")
    parser.add_argument(
        "--json-errors",
        action="store_true",
        help="emit pipeline errors as JSON on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic event log")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output TSV path (default stdout)")
    p.add_argument("--users", type=int, default=SyntheticConfig.users)
    p.add_argument("--items", type=int, default=SyntheticConfig.items)
    p.add_argument("--events", type=int, default=SyntheticConfig.events)
    p.add_argument("--topics", type=int, default=SyntheticConfig.topics)
    p.add_argument("--drift-switches", type=int, default=SyntheticConfig.drift_switches)
    p.add_argument("--session-prob", type=float, default=SyntheticConfig.session_prob)
    p.add_argument("--session-explore", type=float, default=SyntheticConfig.session_explore)
    p.add_argument("--session-length", type=int, default=SyntheticConfig.session_length)
    p.add_argument("--noise-prob", type=float, default=SyntheticConfig.noise_prob)
    p.add_argument("--horizon", type=int, default=SyntheticConfig.horizon)
    p.add_argument(
        "--zero-drift",
        action="store_true",
        help="disable drift and session structure (timestamps uninformative)",
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse, preprocess, and summarize a log")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default="-", help="summary JSON path (default stdout)")
    p.add_argument("--delimiter", default="\t")
    p.add_argument(
        "--columns",
        default="user,item,timestamp",
        help="column order, a permutation of user,item,timestamp",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("analyze-ssnr", help="ssnr-versus-age curve and trend fit")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--curve-out", required=True, help="binned curve CSV path")
    p.add_argument("--trend-out", help="optional trend fit JSON path")
    p.add_argument("--bin-ratio", type=float, default=DEFAULT_BIN_RATIO)
    p.add_argument("--age-min", type=float, default=DEFAULT_AGE_MIN)
    p.add_argument("--sim-cache", help="binary similarity cache to reuse or create")
    p.set_defaults(func=_cmd_analyze_ssnr)

    p = sub.add_parser("fit-trend", help="fit the piecewise trend to a curve CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--out", default="-")
    p.add_argument(
        "--ts-range", type=lambda s: _parse_range(s, "--ts-range"), default=DEFAULT_TS_GRID_RANGE
    )
    p.add_argument(
        "--tl-range", type=lambda s: _parse_range(s, "--tl-range"), default=DEFAULT_TL_GRID_RANGE
    )
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.set_defaults(func=_cmd_fit_trend)

    p = sub.add_parser("recommend", help="top-N recommendations for one user")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--at", type=int, required=True, help="query time (epoch seconds)")
    p.add_argument("--decay", default="constant")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="leave-the-latest-out hit-rate evaluation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--decay", default="constant")
    p.add_argument("--n", default="10,20,50", help="comma-separated search depths")
    p.add_argument(
        "--normalize-hitrate",
        action="store_true",
        help="also report hits/users without the 1/N factor",
    )
    p.add_argument("--sim-cache", help="binary similarity cache to reuse or create")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid sweep over decay parameters")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--family", default=",".join(ALL_FAMILIES))
    p.add_argument("--grid-points", type=int, default=DEFAULT_POINTS_PER_PARAM)
    p.add_argument("--objective-n", type=int, default=10)
    p.add_argument("--n", default="10,20,50")
    p.add_argument("--table-out", required=True, help="full results CSV path")
    p.add_argument("--best-out", help="optional best-parameters JSON path")
    # deprecated and ignored: sweeps run in one thread
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        if args.json_errors:
            print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        else:
            print(f"driftcf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
