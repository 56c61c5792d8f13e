"""driftcf benchmark: three pinned synthetic workloads, checked outputs.

    python3 perfbench/run.py --workload evaluate-70k --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The log for the workload is
generated from ``--seed`` with ``driftcf.synthetic`` and written to a TSV
before any timing starts; a child process (one per workload, so that peak
RSS belongs to that workload alone) then reads the file, runs one untimed
warm-up repetition and timed repetitions for ``--seconds``.

Every repetition checks its outputs: invariants that hold for any seed,
equality across repetitions, and, for the recorded seeds in
``expected.json``, equality with the values recorded when the benchmark
was defined.  Any failed check or exception counts in ``failed`` and makes
the command exit 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
Lines before it list every metric by name and unit, with sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

# expected.json records seed 1, the default, and seed 2, the second seed
# on which a claimed gain must also hold.
DEFAULT_SEED = 1

CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("dataset.parse_s", "s"),
    ("dataset.preprocess_s", "s"),
    ("dataset.split_s", "s"),
    ("dataset.hash_s", "s"),
    ("dataset.ratings", "count"),
    ("similarity.build_s", "s"),
    ("similarity.nnz", "count"),
    ("similarity.save_cache_s", "s"),
    ("similarity.cache_mb", "MiB"),
    ("similarity.load_cache_s", "s"),
    ("temporal.collect_ssnr_s", "s"),
    ("temporal.bin_s", "s"),
    ("temporal.fit_s", "s"),
    ("temporal.ssnr_samples", "count"),
    ("temporal.ssnr_excluded", "count"),
    ("decay.eval_s", "s"),
    ("decay.calls", "count"),
    ("recommender.score_s", "s"),
    ("recommender.rank_s", "s"),
    ("recommender.top_n_s", "s"),
    ("recommender.score_calls", "count"),
    ("recommender.candidates_per_user", "count"),
    ("recommender.probe_reachable_ratio", "ratio"),
    ("evaluation.evaluate_split_s", "s"),
    ("evaluation.grid_sweep_s", "s"),
    ("evaluation.self_s", "s"),
    ("evaluation.hits_at_10", "count"),
    ("evaluation.hits_at_20", "count"),
    ("evaluation.hits_at_50", "count"),
    ("cli.main_s", "s"),
    ("cli.overhead_s", "s"),
    ("synthetic.generate_s", "s"),
    ("warm_setup_s", "s"),
    ("user_evals_per_s", "1/s"),
    ("recommend_p50_ms", "ms"),
    ("recommend_p90_ms", "ms"),
    ("analysis_s", "s"),
    ("error_ratio", "ratio"),
    ("trace_overhead_s", "s"),
]
LAYERS = ("synthetic", "dataset", "similarity", "temporal", "decay", "recommender", "evaluation", "cli")
PER_LAYER += [(f"{layer}.layer_self_s", "s") for layer in LAYERS]

# Values derived by subtraction rather than measured by one span.
DERIVED = {"evaluation.self_s", "trace_overhead_s"}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# Settings the workload process runs under.  BLAS/OpenMP threads are
# pinned to one (at most nproc).  A fixed string-hash seed keeps dict and
# set layouts equal between runs.  A fixed glibc mmap threshold stops
# malloc from moving it at run time, which made the peak RSS of one
# workload vary by up to 8% between runs.  A fixed mmap threshold also
# fixes the trim threshold, at 128 KiB unless set, and at that size glibc
# hands the top of the heap back after one call and faults it in again in
# the next (the traced scoring replay ran twice as slow); so it is set to
# 64 MiB, the largest value glibc's own dynamic setting reaches.
PINNED_ENV = {var: "1" for var in THREAD_VARS}
PINNED_ENV.update(PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072",
                  MALLOC_TRIM_THRESHOLD_=str(64 * 2**20))


def pin_environment() -> dict[str, str]:
    """Apply PINNED_ENV to this process and its children; must run before
    numpy is imported."""
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = str(SRC)
    return dict(PINNED_ENV)


def import_package():
    if not (SRC / "driftcf" / "__init__.py").is_file():
        raise SetupError(f"no driftcf package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import driftcf  # noqa: F401
    import workloads

    return workloads


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def generate_input(wl, workload: str, seed: int, toy: bool, path: Path) -> tuple[str, float]:
    """Write the workload's log to ``path``; returns (SHA-256, seconds)."""
    from driftcf.dataset import write_events
    from driftcf.synthetic import SyntheticConfig, generate_synthetic

    sizes = wl.TOY_CONFIG if toy else wl.WORKLOAD_CONFIGS[workload]
    config = replace(SyntheticConfig(**sizes), seed=seed)
    t0 = time.perf_counter()
    log = generate_synthetic(config)
    generate_s = time.perf_counter() - t0
    buf = io.StringIO()
    write_events(log, buf)
    data = buf.getvalue().encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest(), generate_s


def run_child(job: dict, tag: str) -> dict:
    job_path = WORK / f"job-{tag}.json"
    result_path = WORK / f"result-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    if result_path.exists():
        result_path.unlink()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(job_path), str(result_path)],
            stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"workload process exceeded {CHILD_TIMEOUT_S:.0f} s and was killed"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"workload process exited with code {proc.returncode}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def compare_expected(recorded: dict | None, sha: str, outputs: dict | None) -> list[tuple[str, bool]]:
    """One check per recorded value: the input SHA-256 and every output."""
    if not recorded:
        return []
    checks = [("input_sha256", recorded.get("input_sha256") == sha)]
    for key, want in recorded.get("outputs", {}).items():
        checks.append((f"expected_{key}", outputs is not None and outputs.get(key) == want))
    return checks


def _p50_p90(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


def rep_figures(reps: list[dict]) -> dict[str, tuple[float, int]]:
    """Every end-to-end figure of the timed repetitions, as (median, samples)."""
    out: dict[str, tuple[float, int]] = {}
    for key in ("wall_s", "setup_s", "warm_setup_s", "analysis_s"):
        values = [r[key] for r in reps if key in r]
        if values:
            out[key] = (statistics.median(values), len(values))
    rates = [r["user_evals"] / r["eval_s"] for r in reps if "user_evals" in r]
    if rates:
        out["user_evals_per_s"] = (statistics.median(rates), len(rates))
    latencies = [x for r in reps for x in r.get("latencies_ms", [])]
    if latencies:
        p50, p90 = _p50_p90(latencies)
        out["recommend_p50_ms"] = (p50, len(latencies))
        out["recommend_p90_ms"] = (p90, len(latencies))
    return out


def layer_metrics(result: dict, generate_s: float, error_ratio: float) -> dict[str, float]:
    """The per-layer metrics of a traced run; 0 where a workload has no such layer."""
    tr = result["trace"]
    rep, replay = tr["rep"], tr["replay_spans"]

    def self_s(spans: dict, name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(spans: dict, name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    outputs = result["outputs"]
    timings = tr["timings"]
    rp = tr["replay"] or {}
    untraced = result["reps"][-1]
    hits = outputs.get("hits") or outputs.get("best_hits") or [0, 0, 0]
    m: dict[str, float] = {
        "dataset.parse_s": self_s(rep, "dataset.parse"),
        "dataset.preprocess_s": self_s(rep, "dataset.preprocess"),
        "dataset.split_s": self_s(rep, "dataset.split"),
        "dataset.hash_s": self_s(rep, "dataset.content_hash"),
        "dataset.ratings": outputs["ratings"],
        "similarity.build_s": self_s(rep, "similarity.build"),
        "similarity.nnz": outputs.get("nnz") or tr["nnz"] or 0,
        "similarity.save_cache_s": self_s(rep, "similarity.save_cache"),
        "similarity.cache_mb": timings.get("cache_bytes", 0) / 2**20,
        "similarity.load_cache_s": self_s(rep, "similarity.load_cache"),
        "temporal.collect_ssnr_s": self_s(rep, "temporal.collect_ssnr_ages"),
        "temporal.bin_s": self_s(rep, "temporal.log_bin_average"),
        "temporal.fit_s": self_s(rep, "temporal.fit_piecewise_trend"),
        "temporal.ssnr_samples": outputs.get("ssnr_samples", 0),
        "temporal.ssnr_excluded": sum(outputs.get("ssnr_excluded", {}).values()),
        "decay.eval_s": self_s(replay, "decay.eval_decay"),
        "decay.calls": rp.get("decay_calls", 0),
        "recommender.score_s": self_s(rep, "recommender.score_items")
        + self_s(replay, "recommender.score_items"),
        "recommender.rank_s": self_s(replay, "recommender.probe_rank"),
        "recommender.top_n_s": self_s(rep, "recommender.top_n"),
        "recommender.score_calls": calls(rep, "recommender.score_items")
        + calls(replay, "recommender.score_items"),
        "recommender.candidates_per_user": rp.get("candidates_per_user", 0.0),
        "recommender.probe_reachable_ratio": rp.get("probe_reachable_ratio", 0.0),
        "evaluation.evaluate_split_s": self_s(rep, "evaluation.evaluate_split"),
        "evaluation.grid_sweep_s": self_s(rep, "evaluation.grid_sweep"),
        "evaluation.hits_at_10": hits[0],
        "evaluation.hits_at_20": hits[1],
        "evaluation.hits_at_50": hits[2],
        "cli.main_s": tr["cli_main_s"],
        "cli.overhead_s": tr["cli_self_s"],
        "synthetic.generate_s": generate_s,
        "error_ratio": error_ratio,
        "trace_overhead_s": timings["wall_s"] - untraced["wall_s"],
    }
    evaluation = m["evaluation.evaluate_split_s"] + m["evaluation.grid_sweep_s"]
    replayed = self_s(replay, "recommender.score_items") + m["recommender.rank_s"]
    m["evaluation.self_s"] = evaluation - replayed if replayed else 0.0
    single = rep_figures([untraced])
    for key in ("warm_setup_s", "user_evals_per_s", "recommend_p50_ms", "recommend_p90_ms", "analysis_s"):
        m[key] = single[key][0] if key in single else 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_self["synthetic"] = generate_s
    # of the CLI call, only the cli layer's own time: the library calls it
    # makes are already counted in the traced repetition
    for table in (tr["rep_layers"], tr["replay_layers"], {"cli": m["cli.overhead_s"]}):
        for layer, seconds in table.items():
            layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    return m


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool,
                  toy: bool = False, expected: dict | None = None) -> dict:
    """Generate, run and check one workload; returns the printable report."""
    wl = import_package()
    if workload not in wl.WORKLOAD_CONFIGS:
        raise SetupError(f"unknown workload {workload!r} (known: {', '.join(wl.WORKLOAD_CONFIGS)})")
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-toy" if toy else "")
    tsv = WORK / f"input-{tag}.tsv"
    cache = WORK / f"simcache-{tag}.bin"
    try:
        sha, generate_s = generate_input(wl, workload, seed, toy, tsv)
        job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "input": str(tsv), "cache": str(cache), "work": str(WORK)}
        result = run_child(job, tag)
    finally:
        for path in (tsv, cache):
            if path.exists():
                path.unlink()

    if expected is None:
        expected = {} if toy else load_expected()
    recorded = expected.get(workload, {}).get(str(seed))
    attempted = 1 + result.get("attempted", 0)  # input generation, then the child's
    failed = result.get("failed", 0)
    errors = list(result.get("errors", []))
    if "error" in result:
        failed += 1
        errors.append(result["error"])
    for name, ok in compare_expected(recorded, sha, result.get("outputs")):
        attempted += 1
        if not ok:
            failed += 1
            errors.append(f"check {name} failed against expected.json")
    ok_run = "error" not in result and bool(result.get("reps"))
    if trace and ok_run and result.get("trace") is None:
        ok_run = False
    error_ratio = failed / attempted

    report = {
        "workload": workload, "seed": seed, "trace": trace, "sha256": sha,
        "recorded": recorded is not None, "errors": errors,
        "correct": failed == 0 and ok_run, "attempted": attempted, "failed": failed,
        "outputs": result.get("outputs"), "figures": {}, "metrics": {},
    }
    if not ok_run:
        return report
    figures = rep_figures(result["reps"])
    figures["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    report["figures"] = figures
    if trace:
        values = layer_metrics(result, generate_s, error_ratio)
        report["layer_tables"] = {
            "rep": result["trace"]["rep_layers"],
            "replay": result["trace"]["replay_layers"],
        }
        units = PER_LAYER
    else:
        values = {name: figures[name][0] for name, _unit in END_TO_END}
        units = END_TO_END
    report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return report


def print_report(report: dict, env: dict) -> None:
    out = sys.stdout
    print(f"# driftcf benchmark  workload={report['workload']} seed={report['seed']} "
          f"trace={int(report['trace'])}", file=out)
    print("# machine " + " ".join(f"{k}={v}" for k, v in env.items()), file=out)
    print(f"# input sha256={report['sha256']} "
          + ("(checked against expected.json)" if report["recorded"]
             else "(no recorded values for this seed: invariant and repeatability checks only)"),
          file=out)
    units = dict(PER_LAYER + END_TO_END)
    for name, (value, count) in sorted(report["figures"].items()):
        unit = units[name]
        print(f"  {name:<40} {value:>14.6g} {unit:<6} median of n={count}", file=out)
    if report["trace"] and report["metrics"]:
        for name, entry in report["metrics"].items():
            label = " (derived)" if name in DERIVED else ""
            print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6}{label}", file=out)
        for trace_id, table in report.get("layer_tables", {}).items():
            cells = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(table.items()))
            print(f"  self time by layer [{trace_id}]: {cells}", file=out)
    print(f"  {'error_ratio':<40} {report['failed'] / report['attempted']:>14.6g} ratio  "
          f"{report['failed']} failed of {report['attempted']} operations", file=out)
    for err in report["errors"]:
        print(f"  FAILED: {err}", file=out)


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def self_test() -> int:
    """Toy-size run of every workload, traced and untraced: every metric in
    BENCHMARK.json must be emitted with its unit, and a corrupted expected
    value must be reported as a failure."""
    wl = import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in wl.WORKLOAD_CONFIGS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            report = run_benchmark(workload, DEFAULT_SEED, 0, trace, toy=True)
            if not report["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {report['errors']}")
                continue
            for entry in spec[section]:
                got = report["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: {entry['name']} missing or wrong unit")
            if set(report["metrics"]) != {e["name"] for e in spec[section]}:
                problems.append(f"{workload} trace={int(trace)}: metrics differ from BENCHMARK.json")
        if not report["correct"]:
            continue
        # record the toy outputs, corrupt one value, and expect a failure
        good = {workload: {str(DEFAULT_SEED): {"input_sha256": report["sha256"],
                                               "outputs": report["outputs"]}}}
        again = run_benchmark(workload, DEFAULT_SEED, 0, False, toy=True, expected=good)
        if not again["correct"]:
            problems.append(f"{workload}: toy run does not match its own recorded outputs")
        key = sorted(report["outputs"])[0]
        bad = json.loads(json.dumps(good))
        bad[workload][str(DEFAULT_SEED)]["outputs"][key] = "corrupted"
        corrupt = run_benchmark(workload, DEFAULT_SEED, 0, False, toy=True, expected=bad)
        if corrupt["correct"] or corrupt["failed"] < 1:
            problems.append(f"{workload}: corrupted expected {key!r} was reported as a pass")
        print(f"self-test {workload}: {'ok' if not problems else 'FAILED'}", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="toy-size run of every workload that checks the harness itself")
    args = parser.parse_args(argv)
    env = pin_environment()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(report, {**machine_info(), **env})
    print(result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
