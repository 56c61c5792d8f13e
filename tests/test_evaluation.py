"""Hit-rate, the leave-the-latest-out harness, and grid sweeps."""

import random

import pytest

from driftcf.dataset import RatingEvent, RatingLog, preprocess
from driftcf.decay import Constant, Piecewise, eval_decay, format_decay, parse_decay
from driftcf.evaluation import (
    EvalReport,
    ParamGrid,
    evaluate,
    evaluate_split,
    grid_sweep,
    hit_rate,
    prepare_evaluation,
)
from driftcf.synthetic import SyntheticConfig, generate_synthetic
from oracles import pipeline_hits, random_dataset


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
    return preprocess(
        RatingLog(tuple(RatingEvent(u, i, t) for u, i, t in events))
    )


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
        ds = preprocess(
            RatingLog((RatingEvent("u1", "a", 1), RatingEvent("u2", "a", 2)))
        )
        with pytest.raises(ValueError):
            evaluate(ds, Constant(), [10])

    def test_report_lookup(self):
        report = EvalReport("constant", 3, 0.0, [])
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
        grid = ParamGrid.default(families=("piecewise",), points_per_param=3)
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

    def test_tie_breaks_to_earlier_grid_order(self):
        ds = dataset_where_probe_always_wins()
        # constant and window with a huge Tw behave identically here
        grid = ParamGrid({"constant": {}, "window": {"t_w": [1e9]}})
        result = grid_sweep(ds, grid, objective_n=1, n_list=[1])
        assert result.best_row["family"] == "constant"

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
