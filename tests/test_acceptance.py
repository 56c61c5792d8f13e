"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and
runtime bound, printing one PASS/FAIL line per criterion.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import statistics
import time
from contextlib import contextmanager
from functools import partial
from unittest.mock import patch

import pytest

from driftcf import temporal
from driftcf.cli import main
from driftcf.dataset import preprocess
from driftcf.decay import (
    Constant,
    Exponential,
    Logistic,
    Outraday,
    Piecewise,
    Window,
    eval_decay,
)
from driftcf.evaluation import evaluate_split, prepare_evaluation
from driftcf.recommender import score_items, top_n
from driftcf.similarity import build_similarity
from driftcf.synthetic import SyntheticConfig, generate_synthetic
from driftcf.temporal import (
    CurveBin,
    BinnedCurve,
    collect_ssnr_ages,
    fit_piecewise_trend,
    log_bin_average,
)
import numpy as np

from helpers import (
    DegenerateRatioError,
    compute_ssnr,
    evaluate,
    scores_dict,
    similarity_row,
    similarity_value,
)
from oracles import (
    dense_cosine,
    dense_scores,
    hit_rate,
    random_train,
    reference_ibcf_top_n,
    sort_truncate,
    ssnr_full_loop,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL", flush=True)
        raise
    print(f"[ACCEPTANCE] {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def instances():
    """100+ random small instances shared by the similarity and ssnr oracles."""
    rng = random.Random(5150)
    out = []
    while len(out) < 110:
        _ds, train, probes = random_train(rng, max_users=15, max_items=20)
        model = build_similarity(train)
        dense = dense_cosine(train)
        out.append((train, probes, model, dense))
    return out


def test_similarity_oracle(instances):
    with criterion("similarity-oracle"):
        started = time.perf_counter()
        for train, _probes, model, dense in instances:
            n = train.n_items
            for i in range(n):
                row = similarity_row(model, i)
                for j in range(n):
                    if i == j:
                        continue
                    assert abs(row.get(j, 0.0) - dense[i][j]) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"similarity oracle took {elapsed:.1f}s"


def test_ssnr_oracle(instances):
    with criterion("ssnr-oracle"):
        for train, probes, model, dense in instances:
            exclusions = 0
            samples = 0
            for u in probes.evaluated_users:
                probe_item, _t = probes.probes[u]
                for item, _ts in train.profiles[u]:
                    num, den = ssnr_full_loop(dense, item, probe_item)
                    if den == 0.0:
                        with pytest.raises(DegenerateRatioError):
                            compute_ssnr(model, item, probe_item)
                        exclusions += 1
                    else:
                        expected = num / den
                        got = compute_ssnr(model, item, probe_item)
                        assert abs(got - expected) < 1e-12 * max(1.0, expected)
                        samples += 1
            collected, tallies = collect_ssnr_ages(train, probes, model)
            # per-user pair counts: L ratings give L - 1 samples minus exclusions
            expected_pairs = sum(
                len(train.profiles[u]) for u in probes.evaluated_users
            )
            assert len(collected) == samples
            assert sum(tallies.values()) == exclusions
            assert len(collected) + sum(tallies.values()) == expected_pairs


def test_scoring_oracle():
    with criterion("scoring-oracle"):
        t_s, t_l, k_s, k_l = 5e4, 1e6, 0.6, 0.3
        spec = Piecewise(t_s, t_l, k_s, k_l)

        def closed_form_weight(age):
            t = max(age, 1.0)
            if t < t_s:
                return (t / t_s) ** -k_s
            if t < t_l:
                return 1.0
            return (t / t_l) ** -k_l

        rng = random.Random(1618)
        checked = 0
        while checked < 30:
            _ds, train, probes = random_train(rng)
            if train.n_users < 5:
                continue
            checked += 1
            model = build_similarity(train)
            dense = dense_cosine(train)
            for u in probes.evaluated_users:
                t_now = probes.probes[u][1]
                sv = score_items(train, model, u, t_now, spec)
                expected = dense_scores(train, dense, u, t_now, closed_form_weight)
                for j in range(train.n_items):
                    assert abs(scores_dict(sv).get(j, 0.0) - expected.get(j, 0.0)) < 1e-12
                for n in (1, 5, 10):
                    assert top_n(sv, n) == sort_truncate(scores_dict(sv), n)


def test_decay_correctness():
    with criterion("decay-closed-forms"):
        tol = 1e-12
        pw = Piecewise(5e4, 1e6, 0.6, 0.3)
        assert eval_decay(Constant(), 12345) == 1.0
        assert eval_decay(pw, 5 * 10**4) == 1.0
        assert eval_decay(pw, 10**6) == 1.0
        assert abs(eval_decay(pw, 10**7) - 10.0 ** -0.3) < tol
        assert eval_decay(Exponential(5e4), 0) == 1.0
        assert abs(eval_decay(Exponential(5e4), 50000) - math.exp(-1)) < tol
        assert abs(eval_decay(Logistic(3e4), 0) - 1 / (1 + math.exp(-5))) < tol
        assert abs(eval_decay(Logistic(3e4), 150000) - 0.5) < tol
        assert eval_decay(Window(1e7), 10**7) == 1.0
        assert eval_decay(Window(1e7), 10**7 + 1) == 0.0
        assert eval_decay(Outraday(0.9), 86399) == 1.0
        assert abs(eval_decay(Outraday(0.9), 864000) - 10.0 ** -0.9) < tol

        # branch continuity at both junctions
        for spec in (pw, Piecewise(100.0, 5e5, 1.0, 1.0)):
            assert eval_decay(spec, spec.t_s) == 1.0
            assert eval_decay(spec, spec.t_l) == 1.0
            assert abs(eval_decay(spec, spec.t_s - 1) - 1.0) < 2 * spec.k_s / spec.t_s
            assert abs(eval_decay(spec, spec.t_l + 1) - 1.0) < 2 * spec.k_l / spec.t_l

        # monotone non-increasing over 1000 random draws from the sweep ranges
        rng = random.Random(271828)
        ages = sorted({int(a) for a in np.geomspace(1, 10**9, 120)} | {86399, 86400})
        draws = [
            lambda: Window(10 ** rng.uniform(2, 8)),
            lambda: Logistic(10 ** rng.uniform(0, 8)),
            lambda: Exponential(10 ** rng.uniform(0, 8)),
            lambda: Outraday(rng.uniform(0.1, 2.0)),
            lambda: Piecewise(
                10 ** rng.uniform(2, 5),
                10 ** rng.uniform(math.log10(5e5), math.log10(5e7)),
                rng.uniform(0.1, 1.0),
                rng.uniform(0.1, 1.0),
            ),
        ]
        for k in range(1000):
            spec = draws[k % len(draws)]()
            local = sorted(
                set(ages)
                | {
                    max(1, int(getattr(spec, t)) + d)
                    for t in ("t_w", "t_g", "t_e", "t_s", "t_l")
                    if hasattr(spec, t)
                    for d in (-1, 0, 1)
                }
            )
            previous = None
            for age in local:
                w = eval_decay(spec, age)
                assert w >= 0.0
                if previous is not None:
                    assert w <= previous * (1 + 1e-12) + 1e-300
                previous = w


def test_ibcf_equivalence():
    with criterion("ibcf-equivalence"):
        rng = random.Random(777)
        for _ in range(50):
            _ds, train, probes = random_train(rng)
            model = build_similarity(train)
            for u in probes.evaluated_users:
                t_now = probes.probes[u][1]
                sv = score_items(train, model, u, t_now, Constant())
                got = top_n(sv, 10)
                expected = reference_ibcf_top_n(train, u, 10, sim=partial(similarity_value, model))
                assert [j for j, _ in got] == [j for j, _ in expected]


def test_hit_rate_fidelity():
    with criterion("hit-rate-definition"):
        assert hit_rate([True, False], 10) == 0.05
        for n in (1, 2, 5, 10, 50):
            assert hit_rate([True] * 9, n) == 1.0 / n
        rng = random.Random(31337)
        for _ in range(300):
            n = rng.randint(1, 60)
            flags = [rng.random() < 0.4 for _ in range(rng.randint(1, 40))]
            assert 0.0 <= hit_rate(flags, n) <= 1.0 / n
        # hits are monotone in depth on a real evaluation
        ds = preprocess(generate_synthetic(SyntheticConfig(
            users=50, items=140, events=1800, topics=6, seed=21,
        )))
        report = evaluate(ds, Piecewise(5e4, 1e6, 0.6, 0.3), [1, 2, 5, 10, 20, 50])
        hits = [report.at(n).hits for n in (1, 2, 5, 10, 20, 50)]
        assert hits == sorted(hits)


def test_trend_fit_round_trip():
    with criterion("trend-round-trip"):
        started = time.perf_counter()
        t_s, t_l, k_s, k_l, level = 5e4, 1e6, 0.6, 0.3, 1.0
        ratio = 10 ** 0.1
        bins = []
        lo = 10.0
        while lo < 1e9:
            hi = lo * ratio
            mid = math.sqrt(lo * hi)
            if mid < t_s:
                y = level * (mid / t_s) ** (-k_s)
            elif mid < t_l:
                y = level
            else:
                y = level * (mid / t_l) ** (-k_l)
            bins.append(CurveBin(lo, hi, y, 40))
            lo = hi
        curve = BinnedCurve(tuple(bins))
        ts_grid = np.array(sorted(set(np.geomspace(100, 1e5, 20)) | {t_s}))
        tl_grid = np.array(sorted(set(np.geomspace(5e5, 5e7, 20)) | {t_l}))
        with patch.object(temporal, "TS_GRID", ts_grid), patch.object(temporal, "TL_GRID", tl_grid):
            fit = fit_piecewise_trend(curve)
        step_ts = ts_grid[-1] / ts_grid[-2]
        step_tl = tl_grid[-1] / tl_grid[-2]
        assert t_s / step_ts <= fit.t_s <= t_s * step_ts
        assert t_l / step_tl <= fit.t_l <= t_l * step_tl
        assert abs(fit.k_s - k_s) < 1e-9
        assert abs(fit.k_l - k_l) < 1e-9
        assert abs(fit.plateau - level) < 1e-9
        assert fit.residual < 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"trend fit took {elapsed:.1f}s"


def test_planted_drift_recovery():
    with criterion("planted-drift-recovery"):
        started = time.perf_counter()
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)

        drift_constant = []
        drift_piecewise = []
        for seed in range(5):
            ds = preprocess(generate_synthetic(SyntheticConfig(seed=seed)))
            train, probes, model = prepare_evaluation(ds)
            drift_constant.append(
                evaluate_split(train, probes, model, Constant(), [10]).at(10).hit_rate
            )
            drift_piecewise.append(
                evaluate_split(train, probes, model, spec, [10]).at(10).hit_rate
            )
        mean_constant = statistics.fmean(drift_constant)
        mean_piecewise = statistics.fmean(drift_piecewise)
        assert mean_constant > 0.0
        gain = mean_piecewise / mean_constant - 1.0
        print(
            f"  drift:     constant H@10 {mean_constant:.5f}, "
            f"piecewise H@10 {mean_piecewise:.5f}, gain {gain * 100:+.0f}%",
            flush=True,
        )
        assert gain >= 0.20, f"planted gain {gain * 100:.1f}% below 20%"

        diffs = []
        flat_constant = []
        for seed in range(10):
            config = SyntheticConfig(seed=100 + seed).zero_drift()
            ds = preprocess(generate_synthetic(config))
            train, probes, model = prepare_evaluation(ds)
            c = evaluate_split(train, probes, model, Constant(), [10]).at(10).hit_rate
            p = evaluate_split(train, probes, model, spec, [10]).at(10).hit_rate
            diffs.append(p - c)
            flat_constant.append(c)
        mean_diff = statistics.fmean(diffs)
        sem = statistics.stdev(diffs) / math.sqrt(len(diffs))
        baseline = statistics.fmean(flat_constant)
        # paired t at 95% (9 dof -> 2.262), with a 5% relative guard band
        significant = sem > 0 and abs(mean_diff) > 2.262 * sem
        material = abs(mean_diff) > 0.05 * baseline
        print(
            f"  zero-drift: mean paired diff {mean_diff:+.6f} "
            f"(sem {sem:.6f}, baseline {baseline:.5f})",
            flush=True,
        )
        assert not (significant and material), (
            f"zero-drift gap {mean_diff:+.6f} is significant and material"
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"planted-drift criterion took {elapsed:.0f}s"


def test_fitted_trend_decay_out_of_sample():
    # the paper's loop: the ssnr trend fitted on one log is the piecewise
    # decay that scores another, so the fit never reads the probes it ranks
    with criterion("fitted-trend-decay"):
        started = time.perf_counter()
        splits = [
            prepare_evaluation(preprocess(generate_synthetic(SyntheticConfig(seed=seed))))
            for seed in range(5)
        ]
        fitted_hits = constant_hits = 0
        for k, (train, probes, model) in enumerate(splits):
            samples, _exclusions = collect_ssnr_ages(train, probes, model)
            fit = fit_piecewise_trend(log_bin_average(samples))
            spec = Piecewise(fit.t_s, fit.t_l, fit.k_s, fit.k_l)
            scored = splits[(k + 1) % len(splits)]
            fitted_hits += evaluate_split(*scored, spec, [10]).at(10).hits
            constant_hits += evaluate_split(*scored, Constant(), [10]).at(10).hits
        print(f"  H@10 hits: fitted piecewise {fitted_hits}, constant {constant_hits}", flush=True)
        assert fitted_hits >= 1.2 * constant_hits
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"fitted-trend criterion took {elapsed:.0f}s"


def test_cli_determinism(tmp_path):
    with criterion("cli-determinism"):
        synth_args = [
            "synth", "--seed", "70", "--users", "60", "--items", "150",
            "--events", "2500", "--topics", "6",
        ]
        log_a, log_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(synth_args + ["--out", str(log_a)]) == 0
        assert main(synth_args + ["--out", str(log_b)]) == 0
        assert log_a.read_bytes() == log_b.read_bytes()

        pairs = []
        for tag in ("x", "y"):
            summary = tmp_path / f"summary-{tag}.json"
            curve = tmp_path / f"curve-{tag}.csv"
            report = tmp_path / f"report-{tag}.json"
            table = tmp_path / f"table-{tag}.csv"
            best = tmp_path / f"best-{tag}.json"
            assert main(["ingest", "--in", str(log_a), "--out", str(summary)]) == 0
            assert main([
                "analyze-ssnr", "--in", str(log_a), "--curve-out", str(curve),
            ]) == 0
            assert main([
                "evaluate", "--in", str(log_a),
                "--decay", "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3",
                "--out", str(report),
            ]) == 0
            assert main([
                "sweep", "--in", str(log_a), "--family", "exp,outraday",
                "--grid-points", "3", "--threads", "2",
                "--table-out", str(table), "--best-out", str(best),
            ]) == 0
            pairs.append((summary, curve, report, table, best))
        for first, second in zip(*pairs):
            assert first.read_bytes() == second.read_bytes(), first.name

        # spot check the evaluate artifact parses and respects the H bound
        report = json.loads((tmp_path / "report-x.json").read_text())
        for row in report["results"]:
            assert 0.0 <= row["hit_rate"] <= 1.0 / row["n"]
