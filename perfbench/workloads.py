"""The benchmark's workloads, run inside one child process per workload.

Usage: ``python3 perfbench/workloads.py JOB.json RESULT.json``.  ``run.py``
writes the job (workload, seed, input path, seconds, trace flag), and this
process reads the generated event log, runs one untimed warm-up
repetition, then timed repetitions until ``seconds`` have passed, and
writes every timing, output digest and check outcome to RESULT.json.

Each repetition calls the public ``driftcf`` functions in the order the
CLI calls them.  All timing is taken here, around those calls, never from
values the package reports about itself.  With tracing on, the process
adds one traced repetition, a traced replay of the per-user scoring loop
and one in-process ``driftcf.cli.main`` call, each with its own trace id.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from driftcf import cli
from driftcf.dataset import Dataset, parse_events, preprocess, split_leave_latest
from driftcf.decay import eval_decay, parse_decay
from driftcf.evaluation import ALL_FAMILIES, ParamGrid, evaluate_split, grid_sweep
from driftcf.recommender import probe_rank, score_items, top_n
from driftcf.similarity import build_similarity, load_cache, save_cache
from driftcf.temporal import collect_ssnr_ages, fit_piecewise_trend, log_bin_average

from spans import NullRecorder, SpanRecorder

DEPTHS = (10, 20, 50)
QUERY_N = 10
EVAL_DECAY = "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3"
SWEEP_POINTS_PER_PARAM = 2  # 25 points over all six families
# The sweep's set-up (parse + preprocess of a 20k-event log) takes under a
# tenth of a second, so one sample per repetition is noisy; each repetition
# sets up this many times and reports the median.  Only the last set-up
# feeds grid_sweep and counts in wall_s and in the traced spans.
SWEEP_SETUP_PASSES = 5

# SyntheticConfig overrides per workload; evaluate and analyze share one
# log.  One repetition takes about 3 s on a 2-core Xeon, so a 32 s run holds
# an untimed warm-up and about ten timed repetitions, whose median rides
# out the slow spells of ten seconds or so that a shared machine has.  The toy sizes run
# every workload in a second or two for --self-test.
_LOG_70K = {"users": 700, "items": 1400, "events": 70_000}
_LOG_20K = {"users": 200, "items": 400, "events": 20_000}
WORKLOAD_CONFIGS = {
    "evaluate-70k": _LOG_70K,
    "sweep-20k": _LOG_20K,
    "analyze-70k": _LOG_70K,
}
TOY_CONFIG = {"users": 60, "items": 120, "events": 3_000}

# A run stops starting repetitions once this much time has passed, so a
# slow commit still finishes well inside the 180 s a run may take.
HARD_STOP_S = 120.0


def fmt12(x: float) -> str:
    return format(float(x), ".12g")


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


class Ops:
    """Operation tally: stage calls, recommend queries and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())


@contextmanager
def stage(rec, ops: Ops, name: str):
    """One stage call: counted as an operation and covered by a span."""
    ops.attempted += 1
    with rec.span(name):
        yield


def _parse(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_events(fh)


def _load_pipeline(job, rec, ops):
    """parse -> preprocess -> split, as the evaluate and analyze-ssnr
    subcommands start."""
    with stage(rec, ops, "dataset.parse"):
        log = _parse(job["input"])
    with stage(rec, ops, "dataset.preprocess"):
        dataset = preprocess(log)
    with stage(rec, ops, "dataset.split"):
        train, probes = split_leave_latest(dataset)
    return dataset, train, probes


def _check_top_list(train, u: int, top: list) -> bool:
    """A top-N list is ordered by (score desc, item asc), has positive
    scores, at most N entries, and none of the user's own items."""
    keys = [(-f, j) for j, f in top]
    own = {item for item, _ts in train.profiles[u]}
    return (
        len(top) <= QUERY_N
        and keys == sorted(keys)
        and all(f > 0 for _j, f in top)
        and not any(j in own for j, _f in top)
    )


# --- evaluate -------------------------------------------------------------


def rep_evaluate(job, rec, ops):
    spec = parse_decay(EVAL_DECAY)
    t0 = time.perf_counter()
    dataset, train, probes = _load_pipeline(job, rec, ops)
    with stage(rec, ops, "similarity.build"):
        model = build_similarity(train)
    t1 = time.perf_counter()
    with stage(rec, ops, "evaluation.evaluate_split"):
        report = evaluate_split(train, probes, model, spec, DEPTHS)
    t2 = time.perf_counter()
    # one recommend query per evaluated user, at that user's probe time,
    # in an order drawn from the workload seed
    order = list(probes.evaluated_users)
    random.Random(job["seed"]).shuffle(order)
    latencies = []
    lists = []
    for u in order:
        q0 = time.perf_counter()
        ops.attempted += 1
        with rec.span("recommender.score_items"):
            scores = score_items(train, model, u, probes.probes[u][1], spec)
        with rec.span("recommender.top_n"):
            top = top_n(scores, QUERY_N)
        latencies.append(time.perf_counter() - q0)
        lists.append((u, top))
    t3 = time.perf_counter()

    hits = [report.at(n).hits for n in DEPTHS]
    users = report.evaluated_users
    in_top = sum(1 for u, top in lists if any(j == probes.probes[u][0] for j, _f in top))
    ops.check("hits_monotone", hits == sorted(hits) and hits[-1] <= users, str(hits))
    # every evaluated user was queried with the evaluation's own spec and
    # time, so top_n and probe_rank must agree on H@10
    ops.check("recommend_agrees_with_evaluate", in_top == hits[0], f"{in_top} != {hits[0]}")
    ops.check("top_lists_valid", all(_check_top_list(train, u, top) for u, top in lists))
    outputs = {
        "ratings": dataset.n_ratings,
        "nnz": model.stored_entries,
        "evaluated_users": users,
        "hits": hits,
        "recommend_sha256": sha256_json(
            [[u, [[j, fmt12(f)] for j, f in top]] for u, top in lists]
        ),
    }
    timings = {
        "wall_s": t3 - t0,
        "setup_s": t1 - t0,
        "eval_s": t2 - t1,
        "user_evals": users,
        "latencies_ms": [x * 1e3 for x in latencies],
    }
    state = {"train": train, "probes": probes, "model": model, "specs": [spec], "hits": [hits]}
    return outputs, timings, state


# --- sweep ----------------------------------------------------------------


def rep_sweep(job, rec, ops):
    grid = ParamGrid.default(ALL_FAMILIES, points_per_param=SWEEP_POINTS_PER_PARAM)
    setup_times = []
    sizes = []
    for k in range(SWEEP_SETUP_PASSES):
        pass_rec = rec if k == SWEEP_SETUP_PASSES - 1 else NullRecorder()
        log = dataset = None  # one parsed log at a time, as in a single set-up
        t0 = time.perf_counter()
        with stage(pass_rec, ops, "dataset.parse"):
            log = _parse(job["input"])
        with stage(pass_rec, ops, "dataset.preprocess"):
            dataset = preprocess(log)
        t1 = time.perf_counter()
        setup_times.append(t1 - t0)
        sizes.append(dataset.n_ratings)
    ops.check("setup_passes_agree", len(set(sizes)) == 1, str(sizes))
    # grid_sweep splits and builds the model itself; threads keeps its
    # library default of 1
    with stage(rec, ops, "evaluation.grid_sweep"):
        result = grid_sweep(dataset, grid, objective_n=DEPTHS[0], n_list=DEPTHS)
    t2 = time.perf_counter()

    rows = [[r["decay"], r["evaluated_users"], [r["hits"][n] for n in DEPTHS]] for r in result.rows]
    best = max(range(len(rows)), key=lambda k: (rows[k][2][0], -k))
    ops.check("sweep_rows", len(rows) == grid.size(), f"{len(rows)} rows")
    ops.check("sweep_best_row", result.best_row["decay"] == rows[best][0], result.best_row["decay"])
    ops.check(
        "sweep_hits_monotone",
        all(r[2] == sorted(r[2]) and r[2][-1] <= r[1] for r in rows),
    )
    users = rows[0][1]
    outputs = {
        "ratings": dataset.n_ratings,
        "evaluated_users": users,
        "rows_sha256": sha256_json(rows),
        "best_decay": result.best_row["decay"],
        "best_hits": rows[best][2],
    }
    timings = {
        "wall_s": t2 - t0,
        "setup_s": statistics.median(setup_times),
        "eval_s": t2 - t1,
        "user_evals": users * len(rows),
    }
    state = {
        "dataset": dataset,
        "specs": [spec for _f, _p, spec in grid.specs()],
        "hits": [r[2] for r in rows],
        "rows": result.rows,
    }
    return outputs, timings, state


# --- analyze --------------------------------------------------------------


def _curve_lines(curve) -> list[str]:
    # the same text the CLI writes for --curve-out
    return ["age_lo,age_hi,mean_ssnr,count"] + [
        f"{fmt12(b.age_lo)},{fmt12(b.age_hi)},{fmt12(b.mean_ssnr)},{b.count}" for b in curve.bins
    ]


def _model_digest(model) -> str:
    """SHA-256 over every array of a similarity model, bit for bit."""
    m = model.matrix
    h = hashlib.sha256(repr(m.shape).encode())
    for arr in (m.indptr, m.indices, m.data, model.user_counts, model.row_sq_sums):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def rep_analyze(job, rec, ops):
    cache = job["cache"]
    if os.path.exists(cache):
        os.remove(cache)
    t0 = time.perf_counter()
    with rec.span("bench.cold"):
        dataset, train, probes = _load_pipeline(job, rec, ops)
        with stage(rec, ops, "dataset.content_hash"):
            digest = train.content_hash()
        with stage(rec, ops, "similarity.build"):
            built = build_similarity(train)
        with stage(rec, ops, "similarity.save_cache"):
            save_cache(built, cache, digest)
    t1 = time.perf_counter()
    # Untimed: keep only a digest of the built model, and drop the cold
    # pass's objects, so that the warm pass and the analysis hold one model
    # and one dataset, as analyze-ssnr --sim-cache does.
    ratings, nnz, built_digest = dataset.n_ratings, built.stored_entries, _model_digest(built)
    del dataset, train, probes, built
    gc.collect()
    t2 = time.perf_counter()
    with rec.span("bench.warm"):
        _dataset, train, probes = _load_pipeline(job, rec, ops)
        with stage(rec, ops, "dataset.content_hash"):
            warm_digest = train.content_hash()
        with stage(rec, ops, "similarity.load_cache"):
            model = load_cache(cache, warm_digest)
    t3 = time.perf_counter()
    with rec.span("bench.analysis"):
        with stage(rec, ops, "temporal.collect_ssnr_ages"):
            samples, exclusions = collect_ssnr_ages(train, probes, model)
        with stage(rec, ops, "temporal.log_bin_average"):
            curve = log_bin_average(samples)
        with stage(rec, ops, "temporal.fit_piecewise_trend"):
            fit = fit_piecewise_trend(curve)
    t4 = time.perf_counter()

    excluded = sum(exclusions.values())
    rated = sum(len(train.profiles[u]) for u in probes.evaluated_users)
    ops.check("warm_hash_equals_cold", warm_digest == digest)
    ops.check("load_cache_bit_for_bit", _model_digest(model) == built_digest)
    ops.check("ssnr_accounts_for_every_rating", len(samples) + excluded == rated)
    ops.check("curve_counts_every_sample", curve.total_count == len(samples))
    lines = _curve_lines(curve)
    trend = {k: fmt12(getattr(fit, k)) for k in ("t_s", "t_l", "k_s", "k_l", "plateau", "residual")}
    outputs = {
        "ratings": ratings,
        "nnz": nnz,
        "ssnr_samples": len(samples),
        "ssnr_excluded": exclusions,
        "curve_bins": len(curve.bins),
        "curve_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "trend": trend,
    }
    timings = {
        "wall_s": (t1 - t0) + (t4 - t2),
        "setup_s": t1 - t0,
        "warm_setup_s": t3 - t2,
        "analysis_s": t4 - t3,
        "cache_bytes": os.path.getsize(cache),
    }
    state = {"curve_lines": lines, "trend": trend}
    return outputs, timings, state


REPS = {"evaluate": rep_evaluate, "sweep": rep_sweep, "analyze": rep_analyze}


def kind(workload: str) -> str:
    return workload.split("-", 1)[0]


# --- traced extras --------------------------------------------------------


def replay_scoring(train, probes, model, specs, rec):
    """Traced replay of the per-user loop of evaluate_split, per spec.

    Also replays eval_decay over every (user, rating) age, once per spec,
    which is the work score_items does one rating at a time.
    """
    users = probes.evaluated_users
    calls = candidates = reachable = queries = 0
    hits_per_spec = []
    for spec in specs:
        with rec.span("decay.eval_decay"):
            for u in users:
                t_now = probes.probes[u][1]
                for _item, ts in train.profiles[u]:
                    eval_decay(spec, t_now - ts)
                calls += len(train.profiles[u])
        hits = [0] * len(DEPTHS)
        for u in users:
            probe_item, t_now = probes.probes[u]
            with rec.span("recommender.score_items"):
                scores = score_items(train, model, u, t_now, spec)
            with rec.span("recommender.probe_rank"):
                rank = probe_rank(scores, probe_item)
            queries += 1
            candidates += len(scores.scores)
            if rank is not None:
                reachable += 1
                for k, n in enumerate(DEPTHS):
                    hits[k] += rank <= n
        hits_per_spec.append(hits)
    return {
        "decay_calls": calls,
        "candidates_per_user": candidates / queries,
        "probe_reachable_ratio": reachable / queries,
        "hits": hits_per_spec,
    }


# Library functions the CLI module calls, and the span each call gets in
# the traced cli.main run.
CLI_CALLS = {
    "parse_events": "dataset.parse",
    "preprocess": "dataset.preprocess",
    "split_leave_latest": "dataset.split",
    "build_similarity": "similarity.build",
    "save_cache": "similarity.save_cache",
    "load_cache": "similarity.load_cache",
    "evaluate_split": "evaluation.evaluate_split",
    "grid_sweep": "evaluation.grid_sweep",
    "collect_ssnr_ages": "temporal.collect_ssnr_ages",
    "log_bin_average": "temporal.log_bin_average",
    "fit_piecewise_trend": "temporal.fit_piecewise_trend",
}


@contextmanager
def traced_cli_calls(rec):
    """For the length of one cli.main call, give every library call the CLI
    module makes a span of its own, and Dataset.content_hash too, which the
    CLI calls as a method.  The self time of the cli.main span is then the
    CLI's own time."""
    originals = {name: getattr(cli, name) for name in CLI_CALLS}
    content_hash = Dataset.content_hash

    def traced(fn, span_name):
        def call(*args, **kwargs):
            with rec.span(span_name):
                return fn(*args, **kwargs)
        return call

    try:
        for name, span_name in CLI_CALLS.items():
            setattr(cli, name, traced(originals[name], span_name))
        Dataset.content_hash = traced(content_hash, "dataset.content_hash")
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
        Dataset.content_hash = content_hash


def run_cli(job, state, rec, ops):
    """One in-process driftcf.cli.main call doing the workload's phases;
    its outputs must equal the library's."""
    work = job["work"]
    k = kind(job["workload"])
    if k == "evaluate":
        out = os.path.join(work, "cli-evaluate.json")
        argv = ["evaluate", "--in", job["input"], "--decay", EVAL_DECAY, "--n", "10,20,50", "--out", out]
    elif k == "sweep":
        out = os.path.join(work, "cli-sweep.csv")
        argv = ["sweep", "--in", job["input"], "--grid-points", str(SWEEP_POINTS_PER_PARAM),
                "--table-out", out, "--threads", "1"]
    else:
        out = os.path.join(work, "cli-curve.csv")
        trend_out = os.path.join(work, "cli-trend.json")
        # warm path: the cache written by the traced repetition is reused
        argv = ["analyze-ssnr", "--in", job["input"], "--curve-out", out,
                "--trend-out", trend_out, "--sim-cache", job["cache"]]
    with stage(rec, ops, "cli.main"), traced_cli_calls(rec):
        code = cli.main(argv)
    ops.check("cli_exit_code", code == 0, str(code))
    if code != 0:
        return
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    if k == "evaluate":
        got = [r["hits"] for r in json.loads(text)["results"]]
        ops.check("cli_hits", got == state["hits"][0], str(got))
    elif k == "sweep":
        got = [line.split(",")[-len(DEPTHS):] for line in text.splitlines()[1:]]
        want = [[fmt12(r["hit_rate"][n]) for n in DEPTHS] for r in state["rows"]]
        ops.check("cli_sweep_table", got == want)
    else:
        ops.check("cli_curve", text.splitlines() == state["curve_lines"])
        with open(trend_out, encoding="utf-8") as fh:
            got = {k2: fmt12(v) for k2, v in json.load(fh).items()}
        ops.check("cli_trend", got == state["trend"], str(got))


# --- the child process ----------------------------------------------------


def _run_rep(job, rec, ops):
    """One repetition; an exception counts as one failed operation."""
    try:
        return REPS[kind(job["workload"])](job, rec, ops)
    except Exception:  # the run must report the failure, not die
        ops.failed += 1
        ops.errors.append(traceback.format_exc(limit=4))
        return None


def run_job(job) -> dict:
    ops = Ops()
    started = time.perf_counter()
    reps = []
    outputs = None

    def one():
        """An untraced repetition; its outputs must equal the first one's."""
        nonlocal outputs
        # free the previous repetition's cyclic garbage now, not inside a
        # timed repetition, where it would also lift the peak RSS
        gc.collect()
        got = _run_rep(job, NullRecorder(), ops)
        if got is None:
            return None
        out, timings, _state = got
        if outputs is None:
            outputs = out
        else:
            ops.check("same_outputs_every_repetition", out == outputs)
        return timings

    warm = one()  # untimed warm-up repetition
    timed_from = time.perf_counter()
    while warm is not None:
        timings = one()
        if timings is None:
            break
        reps.append(timings)
        now = time.perf_counter()
        if job["trace"] or now - timed_from >= job["seconds"] or now - started >= HARD_STOP_S:
            break

    result = {"reps": reps, "outputs": outputs, "trace": None}
    if job["trace"] and reps:
        try:
            result["trace"] = traced_extras(job, ops, outputs)
        except Exception:  # reported as a failed operation, like a repetition
            ops.failed += 1
            ops.errors.append(traceback.format_exc(limit=4))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["errors"] = ops.errors
    return result


def traced_extras(job, ops, outputs) -> dict | None:
    """Traced repetition, replay and CLI call, each under its own trace id;
    the spans are written to the work directory when they are done."""
    base = f"{job['workload']}/seed={job['seed']}"
    rep_rec = SpanRecorder(base + "/rep")
    replay_rec = SpanRecorder(base + "/replay")
    cli_rec = SpanRecorder(base + "/cli")
    gc.collect()
    with rep_rec.span("bench.rep"):
        got = _run_rep(job, rep_rec, ops)
    if got is None:
        return None
    out, timings, state = got
    ops.check("traced_outputs_equal_untraced", out == outputs)
    k = kind(job["workload"])
    replay = None
    if k in ("evaluate", "sweep"):
        if k == "sweep":
            # replay set-up, outside every span: the split and model that
            # grid_sweep builds internally
            train, probes = split_leave_latest(state["dataset"])
            model = build_similarity(train)
            state["nnz"] = model.stored_entries
        else:
            train, probes, model = state["train"], state["probes"], state["model"]
        with replay_rec.span("bench.replay"):
            replay = replay_scoring(train, probes, model, state["specs"], replay_rec)
        ops.check("replay_hits_equal_library", replay["hits"] == state["hits"], str(replay["hits"]))
    run_cli(job, state, cli_rec, ops)

    spans_path = os.path.join(job["work"], f"spans-{job['workload']}-seed{job['seed']}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {r.trace_id: [vars(s) for s in r.spans] for r in (rep_rec, replay_rec, cli_rec)}, fh
        )
    return {
        "timings": timings,
        "nnz": state.get("nnz"),
        "replay": replay,
        "rep_layers": rep_rec.layer_self_times(),
        "replay_layers": replay_rec.layer_self_times(),
        "rep": _totals(rep_rec),
        "replay_spans": _totals(replay_rec),
        "cli_main_s": sum(s.duration for s in cli_rec.spans if s.name == "cli.main"),
        "cli_self_s": cli_rec.total("cli.main"),
    }


def _totals(rec) -> dict:
    """Self time and call count of each span name."""
    out: dict[str, dict] = {}
    for s, t in zip(rec.spans, rec.self_times()):
        entry = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += t
        entry["calls"] += 1
    return out


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
