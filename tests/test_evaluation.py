"""Hit-rate, the leave-the-latest-out harness, grid sweeps, and the thread
split of the build and the scoring."""

import os
import random
import threading
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftcf import evaluation, similarity
from driftcf.dataset import ProbeSet, preprocess
from driftcf.decay import Constant, Piecewise, eval_decay, format_decay, parse_decay
from driftcf.evaluation import (
    EvalReport,
    ParamGrid,
    evaluate_split,
    grid_sweep,
    prepare_evaluation,
)
from driftcf.recommender import SPEC_CHUNK, probe_ranks
from driftcf.similarity import _in_threads, build_similarity
from driftcf.synthetic import SyntheticConfig, generate_synthetic
from helpers import evaluate, rating_log
from oracles import hit_rate, pipeline_hits, random_dataset, random_train


class TestHitRate:
    def test_two_users_one_hit_at_ten(self):
        assert hit_rate([True, False], 10) == 0.05

    def test_all_hit_reaches_the_upper_bound(self):
        for n in (1, 5, 10):
            assert hit_rate([True] * 7, n) == 1.0 / n

    def test_no_hits(self):
        assert hit_rate([False, False, False], 10) == 0.0

    def test_empty_flags_rejected(self):
        with pytest.raises(ValueError):
            hit_rate([], 10)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            hit_rate([True], 0)


def dataset_where_probe_always_wins():
    """Every evaluated user's probe is the item most co-rated with their profile."""
    events = []
    # users 0..7 rate a, b then p; users 8, 9 rate p, a then b
    for k in range(8):
        u = f"u{k}"
        events += [(u, "a", 10), (u, "b", 20), (u, "p", 30)]
    for k in (8, 9):
        u = f"u{k}"
        events += [(u, "p", 10), (u, "a", 20), (u, "b", 30)]
    return preprocess(rating_log(events))


class TestEvaluate:
    def test_constructed_instance_has_perfect_h_at_1(self):
        ds = dataset_where_probe_always_wins()
        report = evaluate(ds, Constant(), [1])
        assert report.evaluated_users == 10
        assert report.at(1).hit_rate == 1.0
        # cross-check through the brute-force pipeline
        hits, users = pipeline_hits(ds, lambda age: 1.0, [1])
        assert hits[1] == users == 10

    def test_matches_end_to_end_bruteforce_pipeline(self):
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        rng = random.Random(404)
        checked = 0
        while checked < 12:
            ds = random_dataset(rng, max_users=10, max_items=14, max_events=90)
            if ds.n_ratings == 0:
                continue
            try:
                report = evaluate(ds, spec, [1, 5, 10])
            except ValueError:
                continue
            checked += 1
            hits, users = pipeline_hits(
                ds, lambda age: eval_decay(spec, age), [1, 5, 10]
            )
            assert report.evaluated_users == users
            for n in (1, 5, 10):
                assert report.at(n).hits == hits[n]
                assert report.at(n).hit_rate == hits[n] / (users * n)

    def test_constant_equals_reference_pipeline(self):
        rng = random.Random(405)
        checked = 0
        while checked < 12:
            ds = random_dataset(rng)
            if ds.n_ratings == 0:
                continue
            try:
                report = evaluate(ds, Constant(), [5, 10])
            except ValueError:
                continue
            checked += 1
            hits, users = pipeline_hits(ds, lambda age: 1.0, [5, 10])
            for n in (5, 10):
                assert report.at(n).hits == hits[n]

    def test_hits_monotone_in_depth_and_bounds(self):
        rng = random.Random(406)
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        checked = 0
        while checked < 15:
            ds = random_dataset(rng)
            if ds.n_ratings == 0:
                continue
            try:
                report = evaluate(ds, spec, [1, 2, 5, 10, 20])
            except ValueError:
                continue
            checked += 1
            hits = [report.at(n).hits for n in (1, 2, 5, 10, 20)]
            assert hits == sorted(hits)
            for n in (1, 2, 5, 10, 20):
                assert 0.0 <= report.at(n).hit_rate <= 1.0 / n

    def test_deterministic_reports(self):
        ds = preprocess(generate_synthetic(SyntheticConfig(
            users=30, items=80, events=900, topics=5, seed=11,
        )))
        spec = parse_decay("piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3")
        a = evaluate(ds, spec, [10, 20])
        b = evaluate(ds, spec, [10, 20])
        assert a.results == b.results
        assert a.decay == b.decay

    def test_no_evaluable_users_rejected(self):
        ds = preprocess(rating_log([("u1", "a", 1), ("u2", "a", 2)]))
        with pytest.raises(ValueError):
            evaluate(ds, Constant(), [10])
        # a model built, but no probe to score it on
        train, _probes, model = prepare_evaluation(dataset_where_probe_always_wins())
        with pytest.raises(ValueError, match="no evaluable users"):
            evaluate_split(train, ProbeSet({}), model, Constant())

    def test_duplicate_depths_rejected(self):
        ds = dataset_where_probe_always_wins()
        with pytest.raises(ValueError, match="depth 1 is listed twice"):
            evaluate(ds, Constant(), [1, 1])

    def test_report_lookup(self):
        report = EvalReport("constant", 3, [])
        with pytest.raises(KeyError):
            report.at(10)


class TestParamGrid:
    def test_default_covers_all_families(self):
        grid = ParamGrid.default(points_per_param=3)
        families = {family for family, _p, _s in grid.specs()}
        assert families == {
            "constant", "window", "logistic", "exp", "outraday", "piecewise",
        }

    def test_two_point_default_grid_decay_strings(self):
        grid = ParamGrid.default(points_per_param=2)
        assert [format_decay(spec) for _f, _p, spec in grid.specs()] == [
            "constant",
            "window:Tw=100",
            "window:Tw=100000000",
            "logistic:Tg=1,b=5",
            "logistic:Tg=100000000,b=5",
            "exp:Te=1",
            "exp:Te=100000000",
            "outraday:Ko=0.1",
            "outraday:Ko=2",
            "piecewise:Ts=100,Tl=500000,Ks=0.1,Kl=0.1",
            "piecewise:Ts=100,Tl=500000,Ks=0.1,Kl=1",
            "piecewise:Ts=100,Tl=500000,Ks=1,Kl=0.1",
            "piecewise:Ts=100,Tl=500000,Ks=1,Kl=1",
            "piecewise:Ts=100,Tl=50000000,Ks=0.1,Kl=0.1",
            "piecewise:Ts=100,Tl=50000000,Ks=0.1,Kl=1",
            "piecewise:Ts=100,Tl=50000000,Ks=1,Kl=0.1",
            "piecewise:Ts=100,Tl=50000000,Ks=1,Kl=1",
            "piecewise:Ts=100000,Tl=500000,Ks=0.1,Kl=0.1",
            "piecewise:Ts=100000,Tl=500000,Ks=0.1,Kl=1",
            "piecewise:Ts=100000,Tl=500000,Ks=1,Kl=0.1",
            "piecewise:Ts=100000,Tl=500000,Ks=1,Kl=1",
            "piecewise:Ts=100000,Tl=50000000,Ks=0.1,Kl=0.1",
            "piecewise:Ts=100000,Tl=50000000,Ks=0.1,Kl=1",
            "piecewise:Ts=100000,Tl=50000000,Ks=1,Kl=0.1",
            "piecewise:Ts=100000,Tl=50000000,Ks=1,Kl=1",
        ]

    def test_points_per_param_below_one_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="points per parameter"):
                ParamGrid.default(points_per_param=bad)

    def test_unknown_family_names_the_known_ones(self):
        with pytest.raises(ValueError, match="linear.*constant, window, logistic"):
            ParamGrid.default(families=("linear",))

    def test_enumeration_count_with_ts_tl_filter(self):
        # the default ranges of t_s and t_l do not overlap; the second grid's do
        overlapping = ParamGrid({
            "piecewise": {"t_s": [1e3, 1e5], "t_l": [1e4, 1e6], "k_s": [0.5], "k_l": [0.2]},
        })
        for grid in (ParamGrid.default(families=("piecewise",), points_per_param=3), overlapping):
            points = list(grid.specs())
            values = grid.values["piecewise"]
            expected = sum(
                1
                for ts in values["t_s"]
                for tl in values["t_l"]
                for _ks in values["k_s"]
                for _kl in values["k_l"]
                if ts <= tl
            )
            assert len(points) == expected
            assert grid.size() == expected
        assert [(p["t_s"], p["t_l"]) for _f, p, _s in points] == [(1e3, 1e4), (1e3, 1e6), (1e5, 1e6)]

    def test_every_point_satisfies_spec_invariants(self):
        grid = ParamGrid.default(points_per_param=4)
        for _family, _params, spec in grid.specs():
            # constructing the spec already validates; probe an evaluation
            assert eval_decay(spec, 1000) >= 0.0

    def test_single_point_grid(self):
        grid = ParamGrid({"exp": {"t_e": [5e4]}})
        ds = dataset_where_probe_always_wins()
        result = grid_sweep(ds, grid, objective_n=1, n_list=[1])
        assert result.best_row["family"] == "exp"
        assert result.best_row["params"] == {"t_e": 5e4}


class TestGridSweep:
    def test_best_equals_max_of_table(self):
        ds = preprocess(generate_synthetic(SyntheticConfig(
            users=40, items=100, events=1200, topics=6, seed=5,
        )))
        grid = ParamGrid.default(
            families=("constant", "exp", "piecewise"), points_per_param=2
        )
        result = grid_sweep(ds, grid, objective_n=10, n_list=[10])
        table_best = max(row["hit_rate"][10] for row in result.rows)
        assert result.best_row["hit_rate"][10] == table_best

    # an empty ``depths`` means grid_sweep refuses the call
    @pytest.mark.parametrize("objective_n, n_list, depths", [
        (10, [10, 20], [10, 20]),
        (5, [10, 20], []),
        (10, [10, 10], []),
    ])
    def test_depths_are_the_scored_ones(self, objective_n, n_list, depths):
        ds = dataset_where_probe_always_wins()
        grid = ParamGrid({"constant": {}})
        if not depths:
            with pytest.raises(ValueError, match="is not among the depths|is listed twice"):
                grid_sweep(ds, grid, objective_n=objective_n, n_list=n_list)
            return
        result = grid_sweep(ds, grid, objective_n=objective_n, n_list=n_list)
        assert list(result.rows[0]["hit_rate"]) == depths
        assert list(result.rows[0]["hits"]) == depths

    def test_tie_breaks_to_earlier_grid_order(self):
        ds = dataset_where_probe_always_wins()
        # constant and window with a huge Tw behave identically here
        grid = ParamGrid({"constant": {}, "window": {"t_w": [1e9]}})
        result = grid_sweep(ds, grid, objective_n=1, n_list=[1])
        assert result.best_row["family"] == "constant"

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        windows=st.lists(st.sampled_from([1e2, 1e4, 1e9]), min_size=1, max_size=4),
        scales=st.lists(st.sampled_from([1e2, 1e4, 1e9]), min_size=1, max_size=4),
        objective_n=st.sampled_from([1, 2, 5]),
    )
    # equal grid values tie within a family; constant and window:Tw=1e9 across
    @example(seed=0, windows=[1e9, 1e4, 1e9], scales=[1e4, 1e4], objective_n=1)
    def test_best_rows_are_first_maxima(self, seed, windows, scales, objective_n):
        dataset, _train, _probes = random_train(random.Random(seed))
        grid = ParamGrid({"constant": {}, "window": {"t_w": windows}, "exp": {"t_e": scales}})
        result = grid_sweep(dataset, grid, objective_n=objective_n, n_list=[objective_n])
        objective = [row["hit_rate"][objective_n] for row in result.rows]

        def first_max(indices):
            return result.rows[min(indices, key=lambda k: (-objective[k], k))]

        families = [row["family"] for row in result.rows]
        assert list(result.best_per_family) == list(dict.fromkeys(families))
        for family, best in result.best_per_family.items():
            assert best is first_max([k for k, f in enumerate(families) if f == family])
        assert result.best_row is first_max(range(len(result.rows)))

    def test_planted_drift_prefers_time_aware_spec(self):
        wins = 0
        for seed in range(5):
            ds = preprocess(generate_synthetic(SyntheticConfig(
                users=60, items=150, events=2400, topics=6, seed=seed,
            )))
            grid = ParamGrid({
                "constant": {},
                "piecewise": {
                    "t_s": [5e4], "t_l": [1e6], "k_s": [0.6], "k_l": [0.3],
                },
            })
            result = grid_sweep(ds, grid, objective_n=10, n_list=[10])
            if result.best_row["family"] == "piecewise":
                wins += 1
        assert wins >= 4

    def test_sweep_rows_match_evaluate_split(self):
        ds = preprocess(generate_synthetic(SyntheticConfig(
            users=40, items=100, events=1200, topics=6, seed=8,
        )))
        grid = ParamGrid.default(points_per_param=2)
        result = grid_sweep(ds, grid)
        train, probes, model = prepare_evaluation(ds)
        assert len(result.rows) == grid.size()
        for row in result.rows:
            report = evaluate_split(train, probes, model, row["spec"])
            assert row["decay"] == report.decay
            assert row["evaluated_users"] == report.evaluated_users
            assert row["hits"] == {r.n: r.hits for r in report.results}
            assert row["hit_rate"] == {r.n: r.hit_rate for r in report.results}

    def test_empty_grid_rejected(self):
        ds = dataset_where_probe_always_wins()
        with pytest.raises(ValueError):
            grid_sweep(ds, ParamGrid({}))

    def test_rows_across_spec_chunks_match_evaluate_split(self):
        ds = preprocess(generate_synthetic(SyntheticConfig(
            users=30, items=80, events=900, topics=5, seed=9,
        )))
        # two full chunks of specs and one more
        grid = ParamGrid({
            "window": {"t_w": [float(x) for x in np.geomspace(1e2, 1e8, SPEC_CHUNK)]},
            "exp": {"t_e": [float(x) for x in np.geomspace(1.0, 1e8, SPEC_CHUNK + 1)]},
        })
        assert grid.size() == 2 * SPEC_CHUNK + 1
        result = grid_sweep(ds, grid)
        train, probes, model = prepare_evaluation(ds)
        for row in result.rows:
            report = evaluate_split(train, probes, model, row["spec"])
            assert row["hits"] == {r.n: r.hits for r in report.results}
        assert len({tuple(row["hits"].values()) for row in result.rows}) > 1


def model_arrays(model) -> tuple[bytes, ...]:
    m = model.matrix
    return tuple(a.tobytes() for a in (m.indptr, m.indices, m.data, model.user_counts, model.row_sq_sums))


class TestThreads:
    """The build's row blocks and the scoring's users are dealt out to one
    thread per CPU; ``similarity._cpu_count`` is patched to set the count."""

    @pytest.mark.parametrize("cpus, n_tasks, shares", [
        (1, 3, [[0, 1, 2]]),
        (3, 7, [[0, 3, 6], [1, 4], [2, 5]]),
        (3, 2, [[0], [1]]),
        (2, 0, [[]]),
    ])
    def test_tasks_dealt_round_robin_over_at_most_the_tasks(self, cpus, n_tasks, shares):
        with patch.object(similarity, "_cpu_count", lambda: cpus):
            assert _in_threads(n_tasks, list) == shares

    @pytest.mark.parametrize("count, cpus", [(5, 5), (None, 1)])
    def test_cpu_count_without_sched_getaffinity(self, monkeypatch, count, cpus):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert similarity._cpu_count() == cpus

    def test_interrupt_while_starting_threads(self):
        # the second thread's start is interrupted; the first thread, already
        # running, stops at its next task and is joined
        start, started, done = threading.Thread.start, [], []
        interrupt = KeyboardInterrupt()

        def start_once(thread):
            if started:
                raise interrupt
            start(thread)
            started.append(thread)

        def share(tasks):
            for task in tasks:
                done.append(task)
                time.sleep(0.005)

        before = threading.active_count()
        with patch.object(similarity, "_cpu_count", lambda: 3), \
                patch.object(threading.Thread, "start", start_once):
            with pytest.raises(KeyboardInterrupt) as caught:
                _in_threads(300, share)
        assert caught.value is interrupt
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before
        # the calling thread never ran its share; the started one stopped early
        assert 0 not in done and len(done) < 100, done

    def test_outputs_do_not_depend_on_thread_count(self):
        seen = {"fewer users than threads": 0, "more users than threads": 0, "several blocks": 0}
        specs = [Constant(), parse_decay("exp:Te=2e5")]
        grid = ParamGrid.default(points_per_param=2)
        matmat = similarity._sparsetools.csr_matmat

        @settings(max_examples=100, deadline=None)
        @given(seed=st.integers(0, 2**32))
        def check(seed):
            dataset, train, probes = random_train(random.Random(seed))
            outputs = []
            for cpus in (1, 2, 3):
                blocks = []

                def counted(n_row, *args):
                    blocks.append(n_row)
                    return matmat(n_row, *args)

                # blocks cut at n_items entries, the least a block may take
                with patch.object(similarity, "_cpu_count", lambda: cpus), \
                        patch.object(similarity, "BLOCK_ENTRIES", 1), \
                        patch.object(similarity._sparsetools, "csr_matmat", counted):
                    model = build_similarity(train)
                    reports = [evaluate_split(train, probes, model, spec) for spec in specs]
                    sweep = grid_sweep(dataset, grid)
                outputs.append((model_arrays(model), reports, sweep.rows, sweep.best_row))
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
            users = len(probes.evaluated_users)
            seen["fewer users than threads"] += users < 3
            seen["more users than threads"] += users > 3
            seen["several blocks"] += len(blocks) > 3

        check()
        assert all(seen.values()), seen

    # user 0 is the calling thread's first task, user 1 a worker's first
    @pytest.mark.parametrize("failing_user", [0, 1], ids=["calling", "worker"])
    @pytest.mark.parametrize("error", [ValueError("planted"), KeyboardInterrupt()])
    def test_first_error_raised_and_no_thread_left(self, error, failing_user):
        ds = preprocess(generate_synthetic(SyntheticConfig(
            users=40, items=100, events=1200, topics=6, seed=8,
        )))
        train, probes, model = prepare_evaluation(ds)
        users = probes.evaluated_users
        scored = []

        def failing(train, model, user, *args):
            # one thread's first user fails; every other takes 10 ms
            if user == users[failing_user]:
                raise error
            scored.append(user)
            time.sleep(0.01)
            return probe_ranks(train, model, user, *args)

        before = threading.active_count()
        with patch.object(similarity, "_cpu_count", lambda: 3), \
                patch.object(evaluation, "probe_ranks", failing):
            with pytest.raises(type(error)) as caught:
                evaluate_split(train, probes, model, Constant())
        assert caught.value is error
        assert threading.active_count() == before
        # the other threads stopped at their next user, far short of all
        assert len(scored) < len(users) // 2, scored
