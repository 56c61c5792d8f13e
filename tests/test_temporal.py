"""SSNR computation, sample collection, log binning, and trend fitting."""

import math
import random
import statistics
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftcf import temporal
from driftcf.dataset import ProbeSet
from driftcf.similarity import SimilarityModel, build_similarity
from driftcf.temporal import (
    BIN_RATIO,
    BinnedCurve,
    CurveBin,
    SsnrSamples,
    TrendFit,
    TrendFitError,
    collect_ssnr_ages,
    fit_piecewise_trend,
    log_bin_average,
)
from helpers import DegenerateRatioError, SampleRow, compute_ssnr, sample_rows, ssnr_samples
from oracles import dense_cosine, fit_trend_grid_loop, random_train, scan_bins, ssnr_full_loop


def model_from_dense(dense) -> SimilarityModel:
    """Test-only constructor from a dense symmetric matrix."""
    arr = np.asarray(dense, dtype=float)
    np.fill_diagonal(arr, 0.0)
    matrix = sp.csr_matrix(arr)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return SimilarityModel(matrix, np.zeros(arr.shape[0], dtype=np.int64))


class TestComputeSsnr:
    def test_hand_case(self):
        # row of item 0: probe (item 1) at 0.6, two neighbors at 0.3
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 0.6
        dense[0, 2] = dense[2, 0] = 0.3
        dense[0, 3] = dense[3, 0] = 0.3
        model = model_from_dense(dense)
        assert compute_ssnr(model, 0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_zero_numerator(self):
        dense = np.zeros((4, 4))
        dense[0, 2] = dense[2, 0] = 0.5
        model = model_from_dense(dense)
        assert compute_ssnr(model, 0, 1) == 0.0

    def test_low_noise_item_beats_high_similarity_item(self):
        # item k points weakly at the probe but at nothing else; item i
        # points strongly at the probe and even more strongly elsewhere.
        # k still carries the sharper signal.
        n = 8  # probe=0, i=1, k=2, five other items 3..7
        dense = np.zeros((n, n))
        dense[1, 0] = dense[0, 1] = 0.8
        dense[2, 0] = dense[0, 2] = 0.2
        for j in range(3, 8):
            dense[1, j] = dense[j, 1] = 0.95
            dense[2, j] = dense[j, 2] = 0.05
        model = model_from_dense(dense)
        ssnr_i = compute_ssnr(model, 1, 0)
        ssnr_k = compute_ssnr(model, 2, 0)
        num_i, den_i = ssnr_full_loop(dense.tolist(), 1, 0)
        num_k, den_k = ssnr_full_loop(dense.tolist(), 2, 0)
        assert ssnr_i == pytest.approx(num_i / den_i, abs=1e-12)
        assert ssnr_k == pytest.approx(num_k / den_k, abs=1e-12)
        assert ssnr_k == pytest.approx(0.04 / (5 * 0.05**2), abs=1e-12)
        assert ssnr_i == pytest.approx(0.64 / (5 * 0.95**2), abs=1e-12)
        assert ssnr_k > ssnr_i

    def test_probe_item_itself_rejected(self):
        model = model_from_dense(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            compute_ssnr(model, 1, 1)

    def test_degenerate_infinite(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        with pytest.raises(DegenerateRatioError) as exc:
            compute_ssnr(model, 0, 1)
        assert exc.value.kind == "degenerate_infinite"

    def test_isolated(self):
        model = model_from_dense(np.zeros((3, 3)))
        with pytest.raises(DegenerateRatioError) as exc:
            compute_ssnr(model, 0, 1)
        assert exc.value.kind == "isolated"

    def test_matches_full_loop_oracle_on_random_instances(self):
        rng = random.Random(431)
        for _ in range(40):
            _ds, train, probes = random_train(rng)
            model = build_similarity(train)
            dense = dense_cosine(train)
            for u in probes.evaluated_users:
                probe_item, _t = probes.probes[u]
                for item, _ts in train.profiles[u]:
                    num, den = ssnr_full_loop(dense, item, probe_item)
                    if den == 0.0:
                        with pytest.raises(DegenerateRatioError):
                            compute_ssnr(model, item, probe_item)
                    else:
                        got = compute_ssnr(model, item, probe_item)
                        assert abs(got - num / den) < 1e-12 * max(1.0, num / den)

    def test_invariant_under_all_zero_item_padding(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 0.6
        dense[0, 2] = dense[2, 0] = 0.3
        dense[0, 3] = dense[3, 0] = 0.3
        padded = np.zeros((7, 7))
        padded[:4, :4] = dense
        a = compute_ssnr(model_from_dense(dense), 0, 1)
        b = compute_ssnr(model_from_dense(padded), 0, 1)
        assert a == b

    def test_strictly_increasing_in_probe_similarity(self):
        previous = None
        for s in (0.1, 0.2, 0.4, 0.6):
            dense = np.zeros((4, 4))
            dense[0, 1] = dense[1, 0] = s
            dense[0, 2] = dense[2, 0] = 0.3
            dense[0, 3] = dense[3, 0] = 0.3
            value = compute_ssnr(model_from_dense(dense), 0, 1)
            if previous is not None:
                assert value > previous
            previous = value


class TestCollect:
    def test_user_with_two_train_items_gives_two_samples(self):
        rng = random.Random(77)
        while True:
            _ds, train, probes = random_train(rng)
            two = [u for u in probes.evaluated_users if len(train.profiles[u]) == 2]
            if two:
                break
        model = build_similarity(train)
        u = two[0]
        mine, exclusions = collect_ssnr_ages(train, ProbeSet({u: probes.probes[u]}), model)
        assert len(mine) + sum(exclusions.values()) == 2

    def test_sample_count_identity(self):
        rng = random.Random(78)
        for _ in range(40):
            _ds, train, probes = random_train(rng)
            model = build_similarity(train)
            samples, exclusions = collect_ssnr_ages(train, probes, model)
            expected = sum(len(train.profiles[u]) for u in probes.evaluated_users)
            assert len(samples) + sum(exclusions.values()) == expected

    def test_ages_nonnegative_and_ssnr_nonnegative(self):
        rng = random.Random(79)
        _ds, train, probes = random_train(rng)
        model = build_similarity(train)
        samples, _ = collect_ssnr_ages(train, probes, model)
        for s in sample_rows(samples):
            assert s.age >= 0
            assert s.ssnr >= 0.0

    @pytest.mark.parametrize("extra", [-1, 3])
    def test_model_of_another_item_count_refused(self, extra):
        # a larger model used to give samples and no error, a smaller one an
        # IndexError; both are refused as a scoring query refuses them
        _ds, train, probes = random_train(random.Random(80))
        n_items = train.n_items + extra
        matrix = build_similarity(train).matrix.copy()
        matrix.resize((n_items, n_items))
        model = SimilarityModel(matrix, np.zeros(n_items, dtype=np.int64))
        message = f"the model has {n_items} items, the training set {train.n_items}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            collect_ssnr_ages(train, probes, model)

    # Small catalogs give items whose only neighbour is the probe
    # (degenerate-infinite) and items with an empty row (isolated).
    EXCLUDING_SIZES = {"max_users": 8, "max_items": 6, "max_events": 30}

    @staticmethod
    def check_against_per_rating_loop(seed):
        """collect_ssnr_ages equals one compute_ssnr call per rating, with ==;
        returns the exclusion tallies."""
        _ds, train, probes = random_train(random.Random(seed), **TestCollect.EXCLUDING_SIZES)
        model = build_similarity(train)
        rows, tallies = [], {"degenerate_infinite": 0, "isolated": 0}
        for u in probes.evaluated_users:
            probe_item, probe_time = probes.probes[u]
            for item, ts in train.profiles[u]:
                try:
                    value = compute_ssnr(model, item, probe_item)
                except DegenerateRatioError as exc:
                    tallies[exc.kind] += 1
                    continue
                rows.append(SampleRow(probe_time - ts, value))
        samples, exclusions = collect_ssnr_ages(train, probes, model)
        assert [a.dtype for a in (samples.ages, samples.ssnr)] == [np.int64, np.float64]
        assert sample_rows(samples) == rows
        assert exclusions == tallies
        return tallies

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(9)
    def test_equals_per_rating_compute_ssnr(self, seed):
        self.check_against_per_rating_loop(seed)

    def test_oracle_instances_hit_both_exclusion_kinds(self):
        totals = {"degenerate_infinite": 0, "isolated": 0}
        for seed in range(80):
            for kind, count in self.check_against_per_rating_loop(seed).items():
                totals[kind] += count
        assert totals["degenerate_infinite"] > 0 and totals["isolated"] > 0


def naive_bins(samples, ratio, age_min):
    """Scan-based bin assignment; no logs, no floors."""
    grouped = {}
    for s in samples:
        k = 0
        if s.age >= age_min:
            while s.age >= age_min * ratio ** (k + 1):
                k += 1
        grouped.setdefault(k, []).append(s.ssnr)
    return {
        k: (statistics.fmean(vals), len(vals)) for k, vals in grouped.items()
    }


class TestLogBinAverage:
    def test_single_sample(self):
        curve = log_bin_average(ssnr_samples([SampleRow(100, 0.5)]))
        assert len(curve.bins) == 1
        b = curve.bins[0]
        assert b.mean_ssnr == 0.5
        assert b.count == 1
        assert b.age_lo <= 100 < b.age_hi

    def test_two_samples_one_bin_mean(self):
        # both inside the bin [10**2, 10**2.1)
        samples = [SampleRow(110, 0.2), SampleRow(111, 0.4)]
        curve = log_bin_average(ssnr_samples(samples))
        assert len(curve.bins) == 1
        assert curve.bins[0].mean_ssnr == pytest.approx(0.3, abs=1e-15)
        assert curve.bins[0].count == 2

    def test_age_zero_clamped_into_first_bin(self):
        samples = [SampleRow(0, 1.0), SampleRow(1, 3.0)]
        curve = log_bin_average(ssnr_samples(samples))
        assert len(curve.bins) == 1
        assert curve.bins[0].mean_ssnr == pytest.approx(2.0)

    def test_empty_input(self):
        curve = log_bin_average(ssnr_samples([]))
        assert curve.bins == ()

    def test_bins_are_geometric_and_ordered(self):
        rng = random.Random(5)
        samples = [
            SampleRow(rng.randrange(0, 10**7), rng.random())
            for _ in range(500)
        ]
        curve = log_bin_average(ssnr_samples(samples))
        for b in curve.bins:
            assert b.age_hi == pytest.approx(b.age_lo * BIN_RATIO, rel=1e-12)
        los = [b.age_lo for b in curve.bins]
        assert los == sorted(los)

    def test_matches_naive_grouping_oracle(self):
        rng = random.Random(6)
        samples = [
            SampleRow(rng.randrange(0, 10**8), rng.random() * 10)
            for _ in range(1000)
        ]
        ratio, age_min = 10 ** 0.1, 1.0
        curve = log_bin_average(ssnr_samples(samples))
        expected = naive_bins(samples, ratio, age_min)
        assert len(curve.bins) == len(expected)
        for b in curve.bins:
            # recover k from the bin edge
            k = round(math.log(b.age_lo / age_min) / math.log(ratio))
            mean, count = expected[k]
            assert b.count == count
            assert abs(b.mean_ssnr - mean) < 1e-12 * max(1.0, mean)

    def test_matches_scan_oracle_at_every_edge(self):
        # each integer edge ceil(10**(k/10)) below 2**63, one off it either
        # way, and both ends of the int64 ages
        ratio = 10 ** 0.1
        edges = [math.ceil(ratio**k) for k in range(200) if ratio**k < 2**63]
        assert len(edges) == 190
        ages = [0, 2**63 - 1] + [edge + d for edge in edges for d in (-1, 0, 1)]
        rng = random.Random(8)
        rows = [SampleRow(age, rng.random() * 10) for age in ages]
        rng.shuffle(rows)
        curve = log_bin_average(ssnr_samples(rows))
        # scan_bins reads (user, item, age, ssnr) rows
        expected = [CurveBin(*b) for b in scan_bins([(0, 0, *r) for r in rows], ratio, 1.0)]
        assert list(curve.bins) == expected

    def test_ages_beyond_float_precision_binned_exactly(self):
        # 2**63 - 1 rounds up to the float 2**63; as an integer it is below it
        ages = [2**63 - 1, 2**63 - 2, 2**62, 2**62 - 1, 2**53 + 1, 2**53, 2**53 - 1]
        rows = [SampleRow(age, float(n)) for n, age in enumerate(ages)]
        curve = log_bin_average(ssnr_samples(rows))
        scanned = scan_bins([(0, 0, *r) for r in rows], 10 ** 0.1, 1.0)
        expected = [CurveBin(*b) for b in scanned]
        assert list(curve.bins) == expected

    def test_total_count(self):
        samples = [SampleRow(10 * k + 1, 1.0) for k in range(50)]
        assert log_bin_average(ssnr_samples(samples)).total_count == 50

    def test_negative_ages_rejected(self):
        samples = SsnrSamples(np.array([-200, -100]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match=r"^2 negative ssnr age\(s\), the first -200$"):
            log_bin_average(samples)
        # age 0 alone is clamped into bin 0
        curve = log_bin_average(SsnrSamples(np.array([0, 1]), np.array([0.1, 0.3])))
        assert [(b.age_lo, b.count) for b in curve.bins] == [(1.0, 2)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(0, allow_infinity=False))))
    @example([(0, 0.0), (2**63 - 1, 0.0)])
    @example([(5, 1.7e308), (5, 1.7e308), (500, 1.0)])
    def test_every_bin_is_well_formed(self, pairs):
        # the trend fit reads each bin at sqrt(age_lo * age_hi) and log(mean_ssnr)
        samples = ssnr_samples(pairs)
        negative = [age for age, _ssnr in pairs if age < 0]
        try:
            curve = log_bin_average(samples)
        except ValueError as exc:
            if negative:
                assert str(exc) == f"{len(negative)} negative ssnr age(s), the first {negative[0]}"
                return
            # only when a bin's sum overflows, which the sum of all samples then does
            assert "ssnr sum is not finite" in str(exc)
            assert math.isinf(sum(ssnr for _age, ssnr in pairs))
            return
        assert not negative
        assert curve.total_count == len(pairs)
        for b in curve.bins:
            assert 0 < b.age_lo < b.age_hi < math.inf
            assert 0 < b.age_lo * b.age_hi < math.inf
            assert 0 <= b.mean_ssnr < math.inf
            assert b.count >= 1


def synthetic_curve(t_s, t_l, k_s, k_l, level, age_lo=10.0, age_hi=1e9, per_decade=10):
    """Bins whose means sit exactly on a piecewise power law.

    Written out longhand so the fit is checked against the closed form,
    not against the library's own decay evaluation.
    """
    ratio = 10 ** (1.0 / per_decade)
    bins = []
    lo = age_lo
    while lo < age_hi:
        hi = lo * ratio
        mid = math.sqrt(lo * hi)
        if mid < t_s:
            y = level * (mid / t_s) ** (-k_s)
        elif mid < t_l:
            y = level
        else:
            y = level * (mid / t_l) ** (-k_l)
        bins.append(CurveBin(lo, hi, y, 25))
        lo = hi
    return BinnedCurve(tuple(bins))


def fit_on_grids(curve, ts_grid, tl_grid):
    """``fit_piecewise_trend`` with its breakpoint grids patched to these."""
    with patch.object(temporal, "TS_GRID", ts_grid), patch.object(temporal, "TL_GRID", tl_grid):
        return fit_piecewise_trend(curve)


class TestTrendFit:
    def test_round_trip_exact_recovery(self):
        t_s, t_l, k_s, k_l, level = 5e4, 1e6, 0.6, 0.3, 1.0
        curve = synthetic_curve(t_s, t_l, k_s, k_l, level)
        ts_grid = np.geomspace(100, 1e5, 13)  # contains 5e4? use explicit grid
        ts_grid = np.array(sorted(set(ts_grid) | {t_s}))
        tl_grid = np.array(sorted(set(np.geomspace(5e5, 5e7, 13)) | {t_l}))
        fit = fit_on_grids(curve, ts_grid, tl_grid)
        assert fit.t_s == pytest.approx(t_s)
        assert fit.t_l == pytest.approx(t_l)
        assert fit.k_s == pytest.approx(k_s, abs=1e-9)
        assert fit.k_l == pytest.approx(k_l, abs=1e-9)
        assert fit.plateau == pytest.approx(level, abs=1e-9)
        assert fit.residual < 1e-9

    def test_flat_curve(self):
        curve = synthetic_curve(5e4, 1e6, 0.0, 0.0, 0.37)
        fit = fit_piecewise_trend(curve)
        assert fit.k_s == pytest.approx(0.0, abs=1e-12)
        assert fit.k_l == pytest.approx(0.0, abs=1e-12)
        assert fit.plateau == pytest.approx(0.37, rel=1e-9)
        assert fit.residual < 1e-18

    def test_phase_boundaries_recovered_within_one_grid_step(self):
        # plateau between 1e4 and 1e6 seconds, decay on both sides
        curve = synthetic_curve(1e4, 1e6, 0.5, 0.4, 0.02)
        fit = fit_piecewise_trend(curve)
        ts_grid = np.geomspace(100, 1e5, 20)
        tl_grid = np.geomspace(5e5, 5e7, 20)
        step_ts = ts_grid[1] / ts_grid[0]
        step_tl = tl_grid[1] / tl_grid[0]
        assert 1e4 / step_ts <= fit.t_s <= 1e4 * step_ts
        assert 1e6 / step_tl <= fit.t_l <= 1e6 * step_tl

    def test_positive_slopes_clamp_to_zero(self):
        # rising curve everywhere: negated slopes are negative, so clamp
        ratio = 10 ** 0.1
        bins = []
        lo = 10.0
        while lo < 1e8:
            hi = lo * ratio
            mid = math.sqrt(lo * hi)
            bins.append(CurveBin(lo, hi, 0.001 * mid ** 0.2, 5))
            lo = hi
        fit = fit_piecewise_trend(BinnedCurve(tuple(bins)))
        assert fit.k_s == 0.0
        assert fit.k_l == 0.0

    def test_too_few_bins_fails_with_diagnostic(self):
        curve = synthetic_curve(5e4, 1e6, 0.6, 0.3, 1.0, age_lo=2e6, age_hi=3e7)
        with pytest.raises(TrendFitError):
            fit_piecewise_trend(curve)

    def test_outer_segment_at_one_midpoint_is_unusable(self):
        # two bins share the midpoint sqrt(2); a short segment holding only
        # them cannot fix a slope, and polyfit would warn and fit anyway
        lo_bins = (CurveBin(1.0, 2.0, 0.5, 3), CurveBin(1.0, 2.0, 0.4, 3))
        doubling = tuple(CurveBin(1e5 * 2**k, 2e5 * 2**k, 0.3, 3) for k in range(14))
        curve = BinnedCurve(lo_bins + doubling)
        ts_grid, tl_grid = np.geomspace(10.0, 1e6, 11), np.geomspace(1e5, 1e9, 9)
        fit = fit_on_grids(curve, ts_grid, tl_grid)
        assert fit == TrendFit(*fit_trend_grid_loop(curve, ts_grid, tl_grid))
        assert fit.t_s > 2e5  # the short segment reaches the doubling bins
        with pytest.raises(TrendFitError):
            fit_on_grids(curve, ts_grid[:5], tl_grid)

    def test_zero_mean_bins_ignored(self):
        base = synthetic_curve(5e4, 1e6, 0.6, 0.3, 1.0)
        spiked = BinnedCurve(base.bins + (CurveBin(2e9, 2.5e9, 0.0, 3),))
        fit = fit_piecewise_trend(spiked)
        assert fit.k_s > 0.0


@st.composite
def curves_and_grids(draw):
    """A curve of 6 to 40 bins above 10 s, about one in ten of them
    zero-mean, and breakpoint grids spanning parts of its age range."""
    ratio = draw(st.floats(1.1, 3.0))
    mean = st.tuples(st.integers(0, 9), st.floats(1e-6, 10.0)).map(
        lambda p: 0.0 if p[0] == 0 else p[1]
    )
    means = draw(st.lists(mean, min_size=6, max_size=40))
    edges = [10.0 * ratio**k for k in range(len(means) + 1)]
    bins = tuple(CurveBin(lo, hi, m, 1) for lo, hi, m in zip(edges, edges[1:], means))

    # t_s from edges a..c and t_l from edges b..d, so the ranges overlap
    a, b, c, d = sorted(draw(st.lists(st.integers(0, len(means)), min_size=4, max_size=4)))
    ts_grid = np.geomspace(edges[a], edges[c], draw(st.integers(1, 12)))
    tl_grid = np.geomspace(edges[b], edges[d], draw(st.integers(1, 12)))
    return BinnedCurve(bins), ts_grid, tl_grid


class TestMemoisedTrendFit:
    @settings(max_examples=100, deadline=None)
    @given(curves_and_grids())
    def test_equals_unmemoised_grid_loop(self, case):
        curve, ts_grid, tl_grid = case
        expected = fit_trend_grid_loop(curve, ts_grid, tl_grid)
        if expected is None:
            with pytest.raises(TrendFitError):
                fit_on_grids(curve, ts_grid, tl_grid)
        else:
            assert fit_on_grids(curve, ts_grid, tl_grid) == TrendFit(*expected)

    def test_default_grid_equals_unmemoised_grid_loop(self):
        curve = synthetic_curve(1e4, 1e6, 0.5, 0.4, 0.02)
        ts_grid = np.geomspace(100, 1e5, 20)
        tl_grid = np.geomspace(5e5, 5e7, 20)
        assert fit_piecewise_trend(curve) == TrendFit(*fit_trend_grid_loop(curve, ts_grid, tl_grid))

