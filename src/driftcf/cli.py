"""Command-line entry point.

Subcommands: synth, ingest, analyze-ssnr, recommend, evaluate, sweep.  All
file outputs are written atomically (temp file + rename) and all
floating-point values are serialized with 12 significant digits, so a
fixed seed reproduces outputs byte for byte.  Timings and notes go to
stderr, never into artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import time
from typing import Sequence

from . import __version__
from .atomic import atomic_open
from .dataset import (
    MAX_TIMESTAMP,
    Dataset,
    parse_events,
    preprocess,
    split_leave_latest,
    write_events,
)
from .decay import FAMILIES, Piecewise, format_decay, parse_decay
from .evaluation import (
    ALL_FAMILIES,
    DEFAULT_POINTS_PER_PARAM,
    ParamGrid,
    check_depths,
    evaluate_split,
    grid_sweep,
)
from .recommender import score_items, top_n
from .similarity import CacheFormatError, build_similarity, load_cache, save_cache
from .synthetic import SyntheticConfig, generate_synthetic
from .temporal import (
    TL_GRID,
    TS_GRID,
    BinnedCurve,
    TrendFit,
    collect_ssnr_ages,
    fit_piecewise_trend,
    log_bin_average,
)

# One sweep table column per decay parameter, in registry order.
SWEEP_PARAM_COLUMNS = tuple(
    dict.fromkeys(f.name for cls in FAMILIES.values() for f in dataclasses.fields(cls))
)


# One synth flag per scalar generator setting, in SyntheticConfig order.
SYNTH_FLAGS = {
    f.name: f.default for f in dataclasses.fields(SyntheticConfig) if f.name != "session_gap"
}


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


def _load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        log = parse_events(fh)
    if log.skipped:
        print(f"note: skipped {log.skipped} malformed line(s) in {path}", file=sys.stderr)
    return preprocess(log)


def _parse_n_list(text: str) -> list[int]:
    try:
        return check_depths([int(part) for part in text.split(",") if part.strip()])
    except ValueError as exc:
        raise ValueError(f"invalid depth list {text!r}: {exc}") from None


def _curve_csv(curve: BinnedCurve) -> str:
    lines = ["age_lo,age_hi,mean_ssnr,count"]
    for b in curve.bins:
        lines.append(f"{_fmt(b.age_lo)},{_fmt(b.age_hi)},{_fmt(b.mean_ssnr)},{b.count}")
    return "\n".join(lines) + "\n"


def _decay_note(fit: TrendFit) -> str:
    """The trend fit as a piecewise ``--decay`` spec, naming each breakpoint
    on the edge of its search grid and each slope clamped to 0."""
    try:
        spec = format_decay(Piecewise(fit.t_s, fit.t_l, fit.k_s, fit.k_l))
    except ValueError as exc:
        return f"note: the trend fit is no decay spec: {exc}"
    grids = (("Ts", fit.t_s, TS_GRID), ("Tl", fit.t_l, TL_GRID))
    caveats = [f"{key} is on the edge of its grid {_fmt(grid[0])}-{_fmt(grid[-1])}"
               for key, t, grid in grids if t in (grid[0], grid[-1])]
    caveats += [f"{key} is clamped to 0" for key, k in (("Ks", fit.k_s), ("Kl", fit.k_l)) if k == 0]
    return "; ".join([f"note: trend fit as a decay: {spec}", *caveats])


def _model_for(train, cache_path: str | None):
    if cache_path and os.path.exists(cache_path):
        model = load_cache(cache_path, train.content_hash())
        if model.n_items != train.n_items:
            raise CacheFormatError(
                f"{cache_path}: cache holds {model.n_items} items, the training set {train.n_items}"
            )
        print(f"note: loaded similarity cache {cache_path}", file=sys.stderr)
        return model
    model = build_similarity(train)
    if cache_path:
        save_cache(model, cache_path, train.content_hash())
        print(f"note: wrote similarity cache {cache_path}", file=sys.stderr)
    return model


def _cmd_synth(args) -> int:
    config = SyntheticConfig(**{name: getattr(args, name) for name in SYNTH_FLAGS})
    if args.zero_drift:
        config = config.zero_drift()
    log = generate_synthetic(config)
    buf = io.StringIO()
    write_events(log, buf)
    _emit(args.out, buf.getvalue())
    print(f"note: generated {len(log)} events", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    dataset = _load_dataset(args.input)
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
    curve = log_bin_average(samples)
    fit = fit_piecewise_trend(curve) if args.trend_out else None
    _emit(args.curve_out, _curve_csv(curve))
    if fit is not None:
        _emit(args.trend_out, _json_text(dataclasses.asdict(fit)))
        print(_decay_note(fit), file=sys.stderr)
    return 0


def _cmd_recommend(args) -> int:
    spec = parse_decay(args.decay)
    check_depths([args.n])
    if not 0 <= args.at <= MAX_TIMESTAMP:
        raise ValueError(f"query time {args.at} is outside [0, 2**63 - 1]")
    dataset = _load_dataset(args.input)
    if args.user not in dataset.user_ids:
        raise ValueError(f"unknown user {args.user!r}")
    user = dataset.user_ids.index(args.user)
    model = build_similarity(dataset)
    scores = score_items(dataset, model, user, args.at, spec)
    ranked = top_n(scores, args.n)
    if not ranked:
        profile = dataset.ratings[dataset.indptr[user]:dataset.indptr[user + 1]]
        weighted = int((spec.weight((args.at - profile[:, 1]).astype(float)) != 0).sum())
        print(
            f"note: no item scores above zero for user {args.user} at --at {args.at}; "
            f"{weighted} of {len(profile)} profile ratings have a nonzero decay weight",
            file=sys.stderr,
        )
    payload = [
        {"item": dataset.item_ids[item], "score": score} for item, score in ranked
    ]
    _emit(args.out, _json_text(payload))
    return 0


def _cmd_evaluate(args) -> int:
    spec = parse_decay(args.decay)
    n_list = _parse_n_list(args.n)
    dataset = _load_dataset(args.input)
    train, probes = split_leave_latest(dataset)
    model = _model_for(train, args.sim_cache)
    started = time.perf_counter()
    report = evaluate_split(train, probes, model, spec, n_list)
    elapsed = time.perf_counter() - started
    _emit(args.out, _json_text(dataclasses.asdict(report)))
    print(f"note: evaluated in {elapsed:.2f}s", file=sys.stderr)
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


def _best_json(row: dict) -> dict:
    return {"decay": row["decay"], "params": row["params"], "hit_rate": row["hit_rate"]}


def _cmd_sweep(args) -> int:
    families = [f.strip() for f in args.family.split(",") if f.strip()]
    n_list = _parse_n_list(args.n)
    grid = ParamGrid.default(families, args.grid_points)
    dataset = _load_dataset(args.input)
    objective_n = n_list[0]
    result = grid_sweep(dataset, grid, objective_n, n_list)
    _emit(args.table_out, _sweep_csv(result.rows, n_list))
    if args.best_out:
        best = {
            "objective_n": objective_n,
            "best": {"family": result.best_row["family"], **_best_json(result.best_row)},
            "per_family": {
                family: _best_json(row) for family, row in sorted(result.best_per_family.items())
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic event log")
    p.add_argument("--out", default="-", help="output TSV path (default stdout)")
    for name, default in SYNTH_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument(
        "--zero-drift",
        action="store_true",
        help="disable drift and session structure (timestamps uninformative)",
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse, preprocess, and summarize a log")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default="-", help="summary JSON path (default stdout)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("analyze-ssnr", help="ssnr-versus-age curve and trend fit")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--curve-out", required=True, help="binned curve CSV path")
    p.add_argument("--trend-out", help="optional trend fit JSON path")
    p.add_argument("--sim-cache", help="binary similarity cache to reuse or create")
    p.set_defaults(func=_cmd_analyze_ssnr)

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
    p.add_argument("--sim-cache", help="binary similarity cache to reuse or create")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid sweep over decay parameters")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--family", default=",".join(ALL_FAMILIES))
    p.add_argument("--grid-points", type=int, default=DEFAULT_POINTS_PER_PARAM)
    p.add_argument("--n", default="10,20,50", help="search depths; the first is the objective")
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
        print(f"driftcf: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
