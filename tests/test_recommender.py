"""Decay-weighted scoring and top-N selection."""

import random

import numpy as np
import pytest
import scipy.sparse as sp

from driftcf.dataset import Dataset
from driftcf.decay import Constant, Outraday, Piecewise, Window, eval_decay
from driftcf.recommender import probe_rank, score_items, top_n
from driftcf.similarity import SimilarityModel, build_similarity
from helpers import score_vector, scores_dict
from oracles import (
    dense_cosine,
    dense_scores,
    random_train,
    reference_ibcf_top_n,
    sort_truncate,
)


def model_from_dense(dense) -> SimilarityModel:
    arr = np.asarray(dense, dtype=float)
    np.fill_diagonal(arr, 0.0)
    matrix = sp.csr_matrix(arr)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    sq = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    return SimilarityModel(matrix, sq.astype(np.int64) * 0, sq)


def train_with_profiles(n_items, profiles) -> Dataset:
    users = [f"u{k}" for k in range(len(profiles))]
    items = [f"i{k}" for k in range(n_items)]
    return Dataset(users, items, [list(p) for p in profiles])


class TestScoreItems:
    def test_single_term(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(3, [[(0, 100)]])
        sv = score_items(train, model, 0, 500, Constant())
        assert scores_dict(sv) == {1: pytest.approx(0.4)}

    def test_two_term_sum_with_half_weight(self):
        # outraday with Ko=1 gives weight 1 at age 0 and exactly 1/2 at two days
        dense = np.zeros((3, 3))
        dense[0, 2] = dense[2, 0] = 0.5
        dense[1, 2] = dense[2, 1] = 0.5
        model = model_from_dense(dense)
        t_now = 1_000_000
        train = train_with_profiles(3, [[(0, t_now), (1, t_now - 172800)]])
        sv = score_items(train, model, 0, t_now, Outraday(1.0))
        assert scores_dict(sv)[2] == pytest.approx(0.75, abs=1e-15)

    def test_profile_items_never_scored(self):
        rng = random.Random(11)
        _ds, train, probes = random_train(rng)
        model = build_similarity(train)
        u = probes.evaluated_users[0]
        t_now = probes.probes[u][1]
        sv = score_items(train, model, u, t_now, Constant())
        profile_items = {i for i, _t in train.profiles[u]}
        assert not profile_items & set(scores_dict(sv))

    def test_window_keeps_reachable_zero_score_candidates(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(3, [[(0, 100)]])
        sv = score_items(train, model, 0, 10**9, Window(10.0))
        assert scores_dict(sv) == {1: 0.0}
        assert top_n(sv, 5) == []

    def test_unknown_user_rejected(self):
        model = model_from_dense(np.zeros((2, 2)))
        train = train_with_profiles(2, [[(0, 1)]])
        with pytest.raises(ValueError):
            score_items(train, model, 3, 10, Constant())

    def test_query_time_before_rating_rejected(self):
        dense = np.zeros((2, 2))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(2, [[(0, 100)]])
        with pytest.raises(ValueError):
            score_items(train, model, 0, 99, Constant())

    def test_empty_profile_rejected(self):
        model = model_from_dense(np.zeros((2, 2)))
        train = train_with_profiles(2, [[]])
        with pytest.raises(ValueError):
            score_items(train, model, 0, 10, Constant())

    def test_matches_dense_triple_loop_oracle(self):
        rng = random.Random(88)
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        checked = 0
        while checked < 25:
            _ds, train, probes = random_train(rng)
            if train.n_users < 8 or train.n_items < 12:
                continue
            checked += 1
            dense = dense_cosine(train)
            model = build_similarity(train)
            for u in probes.evaluated_users:
                t_now = probes.probes[u][1]
                sv = score_items(train, model, u, t_now, spec)
                expected = dense_scores(
                    train, dense, u, t_now, lambda age: eval_decay(spec, age)
                )
                for j, f in expected.items():
                    assert abs(scores_dict(sv).get(j, 0.0) - f) < 1e-12 * max(1.0, f)

    def test_zero_row_item_changes_nothing(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 0.4
        dense[0, 2] = dense[2, 0] = 0.2
        padded = np.zeros((5, 5))
        padded[:4, :4] = dense
        train_a = train_with_profiles(4, [[(0, 100)]])
        train_b = train_with_profiles(5, [[(0, 100)]])
        sv_a = score_items(train_a, model_from_dense(dense), 0, 200, Constant())
        sv_b = score_items(train_b, model_from_dense(padded), 0, 200, Constant())
        assert scores_dict(sv_a) == scores_dict(sv_b)


class TestTopN:
    def test_basic_order(self):
        sv = score_vector({7: 0.9, 3: 0.5, 9: 0.1})
        assert top_n(sv, 2) == [(7, 0.9), (3, 0.5)]

    def test_tie_breaks_to_lower_index(self):
        sv = score_vector({4: 0.5, 2: 0.5})
        assert top_n(sv, 1) == [(2, 0.5)]

    def test_n_larger_than_candidates(self):
        sv = score_vector({4: 0.5, 2: 0.1})
        assert [j for j, _ in top_n(sv, 10)] == [4, 2]

    def test_zero_scores_never_ranked(self):
        sv = score_vector({4: 0.0, 2: 0.1})
        assert [j for j, _ in top_n(sv, 10)] == [2]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            top_n(score_vector({}), 0)

    def test_equals_full_sort_truncate(self):
        rng = random.Random(13)
        for _ in range(200):
            scores = {
                j: rng.choice([0.0, rng.random(), 0.25])
                for j in rng.sample(range(50), rng.randint(1, 30))
            }
            sv = score_vector(scores)
            for n in (1, 3, 10):
                assert top_n(sv, n) == sort_truncate(scores, n)

    def test_scale_invariance(self):
        rng = random.Random(14)
        for _ in range(50):
            scores = {j: rng.random() for j in range(20)}
            sv = score_vector(scores)
            for c in (1e-6, 0.5, 3.0, 1e6):
                scaled = score_vector({j: c * f for j, f in scores.items()})
                assert [j for j, _ in top_n(sv, 10)] == [
                    j for j, _ in top_n(scaled, 10)
                ]

    def test_scaled_weight_function_preserves_rankings_end_to_end(self):
        class Scaled:
            def __init__(self, inner, factor):
                self.inner = inner
                self.factor = factor

            def weight(self, age):
                return self.factor * self.inner.weight(age)

        rng = random.Random(16)
        base = Piecewise(5e4, 1e6, 0.6, 0.3)
        for _ in range(15):
            _ds, train, probes = random_train(rng)
            model = build_similarity(train)
            for u in probes.evaluated_users[:3]:
                t_now = probes.probes[u][1]
                plain = top_n(score_items(train, model, u, t_now, base), 10)
                for c in (0.01, 7.5):
                    scaled = top_n(
                        score_items(train, model, u, t_now, Scaled(base, c)), 10
                    )
                    assert [j for j, _ in plain] == [j for j, _ in scaled]


class TestProbeRank:
    def test_consistent_with_top_n(self):
        rng = random.Random(15)
        for _ in range(200):
            scores = {
                j: rng.choice([0.0, rng.random(), 0.4])
                for j in rng.sample(range(40), rng.randint(2, 25))
            }
            sv = score_vector(scores)
            probe = rng.choice(list(scores))
            rank = probe_rank(sv, probe)
            for n in (1, 2, 5, 10, 40):
                in_list = probe in {j for j, _ in top_n(sv, n)}
                assert in_list == (rank is not None and rank <= n)

    def test_missing_probe(self):
        assert probe_rank(score_vector({1: 0.5}), 9) is None

    def test_nan_probe_score_is_unranked(self):
        # row 0 holds s_01 = nan and s_02 = 0.4, and the transposed entries
        matrix = sp.csr_matrix(
            ([np.nan, 0.4, np.nan, 0.4], [1, 2, 0, 0], [0, 2, 3, 4]), shape=(3, 3)
        )
        model = SimilarityModel(matrix, np.zeros(3, dtype=np.int64), np.zeros(3))
        train = train_with_profiles(3, [[(0, 100)]])
        sv = score_items(train, model, 0, 500, Constant())
        assert probe_rank(sv, 1) is None
        assert probe_rank(sv, 2) == 1
        assert top_n(sv, 5) == [(2, 0.4)]


class TestIbcfEquivalence:
    def test_constant_decay_matches_reference_rankings(self):
        rng = random.Random(2026)
        checked = 0
        while checked < 60:
            _ds, train, probes = random_train(rng)
            checked += 1
            model = build_similarity(train)
            for u in probes.evaluated_users:
                t_now = probes.probes[u][1]
                sv = score_items(train, model, u, t_now, Constant())
                got = top_n(sv, 10)
                expected = reference_ibcf_top_n(train, u, 10, sim=model.value)
                assert [j for j, _ in got] == [j for j, _ in expected]
                for (_, fa), (_, fb) in zip(got, expected):
                    assert abs(fa - fb) < 1e-12 * max(1.0, fb)
