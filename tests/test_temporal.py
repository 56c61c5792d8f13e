"""SSNR computation, sample collection, log binning, and trend fitting."""

import math
import random
import statistics

import numpy as np
import pytest
import scipy.sparse as sp

from driftcf.similarity import SimilarityModel, build_similarity
from driftcf.temporal import (
    BinnedCurve,
    CurveBin,
    DegenerateRatioError,
    SsnrSample,
    TrendFitError,
    collect_ssnr_ages,
    compute_fsnr,
    compute_ssnr,
    fit_piecewise_trend,
    log_bin_average,
)
from helpers import score_vector
from oracles import dense_cosine, random_train, ssnr_full_loop


def model_from_dense(dense) -> SimilarityModel:
    """Test-only constructor from a dense symmetric matrix."""
    arr = np.asarray(dense, dtype=float)
    np.fill_diagonal(arr, 0.0)
    matrix = sp.csr_matrix(arr)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    sq = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    counts = np.zeros(arr.shape[0], dtype=np.int64)
    return SimilarityModel(matrix, counts, sq)


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
        samples, exclusions = collect_ssnr_ages(train, probes, model)
        u = two[0]
        mine = [s for s in samples if s.user == u]
        excluded_mine = 2 - len(mine)
        assert 0 <= excluded_mine <= 2
        assert len(mine) + excluded_mine == 2

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
        for s in samples:
            assert s.age >= 0
            assert s.ssnr >= 0.0


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
        curve = log_bin_average([SsnrSample(0, 0, 100, 0.5)], 10 ** 0.1, 1.0)
        assert len(curve.bins) == 1
        b = curve.bins[0]
        assert b.mean_ssnr == 0.5
        assert b.count == 1
        assert b.age_lo <= 100 < b.age_hi

    def test_two_samples_one_bin_mean(self):
        samples = [SsnrSample(0, 0, 100, 0.2), SsnrSample(0, 1, 101, 0.4)]
        curve = log_bin_average(samples, 10.0, 1.0)
        assert len(curve.bins) == 1
        assert curve.bins[0].mean_ssnr == pytest.approx(0.3, abs=1e-15)
        assert curve.bins[0].count == 2

    def test_age_zero_clamped_into_first_bin(self):
        samples = [SsnrSample(0, 0, 0, 1.0), SsnrSample(0, 1, 1, 3.0)]
        curve = log_bin_average(samples, 10.0, 1.0)
        assert len(curve.bins) == 1
        assert curve.bins[0].mean_ssnr == pytest.approx(2.0)

    def test_empty_input(self):
        curve = log_bin_average([])
        assert curve.bins == ()

    def test_bins_are_geometric_and_ordered(self):
        rng = random.Random(5)
        samples = [
            SsnrSample(0, k, rng.randrange(0, 10**7), rng.random())
            for k in range(500)
        ]
        curve = log_bin_average(samples)
        for b in curve.bins:
            assert b.age_hi == pytest.approx(b.age_lo * curve.ratio, rel=1e-12)
        los = [b.age_lo for b in curve.bins]
        assert los == sorted(los)

    def test_matches_naive_grouping_oracle(self):
        rng = random.Random(6)
        samples = [
            SsnrSample(0, k, rng.randrange(0, 10**8), rng.random() * 10)
            for k in range(1000)
        ]
        ratio, age_min = 10 ** 0.1, 1.0
        curve = log_bin_average(samples, ratio, age_min)
        expected = naive_bins(samples, ratio, age_min)
        assert len(curve.bins) == len(expected)
        for b in curve.bins:
            # recover k from the bin edge
            k = round(math.log(b.age_lo / age_min) / math.log(ratio))
            mean, count = expected[k]
            assert b.count == count
            assert abs(b.mean_ssnr - mean) < 1e-12 * max(1.0, mean)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            log_bin_average([], ratio=1.0)
        with pytest.raises(ValueError):
            log_bin_average([], age_min=0.5)

    def test_total_count(self):
        samples = [SsnrSample(0, k, 10 * k + 1, 1.0) for k in range(50)]
        assert log_bin_average(samples).total_count == 50


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
    return BinnedCurve(tuple(bins), ratio, age_lo)


class TestTrendFit:
    def test_round_trip_exact_recovery(self):
        t_s, t_l, k_s, k_l, level = 5e4, 1e6, 0.6, 0.3, 1.0
        curve = synthetic_curve(t_s, t_l, k_s, k_l, level)
        ts_grid = np.geomspace(100, 1e5, 13)  # contains 5e4? use explicit grid
        ts_grid = np.array(sorted(set(ts_grid) | {t_s}))
        tl_grid = np.array(sorted(set(np.geomspace(5e5, 5e7, 13)) | {t_l}))
        fit = fit_piecewise_trend(curve, ts_grid, tl_grid)
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
        fit = fit_piecewise_trend(BinnedCurve(tuple(bins), ratio, 10.0))
        assert fit.k_s == 0.0
        assert fit.k_l == 0.0

    def test_too_few_bins_fails_with_diagnostic(self):
        curve = synthetic_curve(5e4, 1e6, 0.6, 0.3, 1.0, age_lo=2e6, age_hi=3e7)
        with pytest.raises(TrendFitError):
            fit_piecewise_trend(curve)

    def test_zero_mean_bins_ignored(self):
        base = synthetic_curve(5e4, 1e6, 0.6, 0.3, 1.0)
        spiked = BinnedCurve(
            base.bins + (CurveBin(2e9, 2.5e9, 0.0, 3),), base.ratio, base.age_min
        )
        fit = fit_piecewise_trend(spiked)
        assert fit.k_s > 0.0


class TestComputeFsnr:
    def test_uniform_scores(self):
        sv = score_vector({5: 1.0, 6: 1.0, 7: 1.0})
        assert compute_fsnr(sv, 5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_probe_score(self):
        sv = score_vector({5: 0.0, 6: 1.0, 7: 2.0})
        assert compute_fsnr(sv, 5) == 0.0

    def test_permuting_non_probe_scores_is_invariant(self):
        a = score_vector({1: 0.7, 2: 0.1, 3: 0.4, 4: 0.2})
        b = score_vector({1: 0.7, 2: 0.4, 3: 0.2, 4: 0.1})
        assert compute_fsnr(a, 1) == compute_fsnr(b, 1)

    def test_probe_missing_rejected(self):
        with pytest.raises(ValueError):
            compute_fsnr(score_vector({2: 1.0}), 5)

    def test_degenerate_infinite(self):
        with pytest.raises(DegenerateRatioError) as exc:
            compute_fsnr(score_vector({5: 1.0, 6: 0.0}), 5)
        assert exc.value.kind == "degenerate_infinite"

    def test_undefined(self):
        with pytest.raises(DegenerateRatioError) as exc:
            compute_fsnr(score_vector({5: 0.0, 6: 0.0}), 5)
        assert exc.value.kind == "undefined"
