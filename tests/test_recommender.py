"""Decay-weighted scoring and top-N selection."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcf.dataset import Dataset
from driftcf.decay import (
    Constant,
    Exponential,
    Logistic,
    Outraday,
    Piecewise,
    Window,
    eval_decay,
)
from driftcf import recommender
from driftcf.recommender import SPEC_CHUNK, probe_rank, probe_ranks, score_items, top_n
from driftcf.similarity import SimilarityModel, build_similarity
from helpers import dataset_from_profiles, score_vector, scores_dict, similarity_value
from oracles import (
    dense_cosine,
    dense_scores,
    profile_order_scores,
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
    return SimilarityModel(matrix, np.zeros(arr.shape[0], dtype=np.int64))


def train_with_profiles(n_items, profiles) -> Dataset:
    users = [f"u{k}" for k in range(len(profiles))]
    items = [f"i{k}" for k in range(n_items)]
    return dataset_from_profiles(users, items, profiles)


class Scaled:
    """A spec whose weights are ``factor`` times those of ``inner``."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor

    def weight(self, age):
        return self.factor * self.inner.weight(age)


def with_index_dtype(model: SimilarityModel, dtype) -> SimilarityModel:
    """The same model with its CSR index arrays in ``dtype``."""
    matrix = model.matrix.copy()
    matrix.indptr, matrix.indices = matrix.indptr.astype(dtype), matrix.indices.astype(dtype)
    return SimilarityModel(matrix, model.user_counts)


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
        train = train_with_profiles(3, [[(1, t_now - 172800), (0, t_now)]])
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

    def test_window_zero_score_items_are_not_candidates(self):
        # item 1 is reachable, but the window scores it exactly 0
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(3, [[(0, 100)]])
        sv = score_items(train, model, 0, 10**9, Window(10.0))
        assert scores_dict(sv) == {}
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

    def test_query_time_above_int64_rejected(self):
        dense = np.zeros((2, 2))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(2, [[(0, 100)]])
        assert scores_dict(score_items(train, model, 0, 2**63 - 1, Constant())) == {1: 0.4}
        with pytest.raises(ValueError, match="exceeds"):
            score_items(train, model, 0, 2**63, Constant())

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
            for n in (1, 3, 10, len(scores), len(scores) + 1):
                assert top_n(sv, n) == sort_truncate(scores, n)
        # few distinct scores, so ties straddle the n-th one
        for _ in range(50):
            scores = {j: rng.choice([0.125, 0.25, 0.5]) for j in rng.sample(range(50), 30)}
            sv = score_vector(scores)
            for n in range(1, 31):
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
        model = SimilarityModel(matrix, np.zeros(3, dtype=np.int64))
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
                expected = reference_ibcf_top_n(train, u, 10, sim=partial(similarity_value, model))
                assert [j for j, _ in got] == [j for j, _ in expected]
                for (_, fa), (_, fb) in zip(got, expected):
                    assert abs(fa - fb) < 1e-12 * max(1.0, fb)


# One spec per family; Window points below the profile's ages weigh every
# rating zero, so reachable items score exactly 0 and are no candidates.
spec_strategy = st.one_of(
    st.just(Constant()),
    st.floats(1.0, 2e6).map(Window),
    st.builds(Logistic, st.floats(1.0, 1e7), st.floats(-10.0, 10.0)),
    st.floats(1.0, 1e7).map(Exponential),
    st.floats(0.0, 3.0).map(Outraday),
    st.builds(
        lambda ts, factor, ks, kl: Piecewise(ts, ts * factor, ks, kl),
        st.floats(1.0, 1e6), st.floats(1.0, 100.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
    ),
)


def reference_ranks(train, model, user, t_now, probe, specs):
    """probe_rank over score_items, one spec at a time, None as 0."""
    return [probe_rank(score_items(train, model, user, t_now, spec), probe) or 0 for spec in specs]


def assert_ranks_match(train, model, user, t_now, probes, specs):
    for probe in probes:
        got = probe_ranks(train, model, user, t_now, probe, specs)
        assert got.dtype == np.int64
        assert got.tolist() == reference_ranks(train, model, user, t_now, probe, specs)


class TestProbeRanks:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        specs=st.lists(spec_strategy, min_size=1, max_size=8),
        later=st.integers(0, 10**7),
    )
    def test_equals_probe_rank_of_score_items(self, seed, specs, later):
        _ds, train, _probes = random_train(random.Random(seed))
        model = build_similarity(train)
        for u, profile in enumerate(train.profiles):
            if not len(profile):
                continue
            t_now = max(ts for _item, ts in profile) + later
            # every item, the profile's own among them, and the two indices
            # just outside the item range
            assert_ranks_match(train, model, u, t_now, range(-1, train.n_items + 1), specs)

    def test_threads_scoring_at_once_match_one_thread(self):
        # several specs gather similarity rows into scratch buffers of each
        # thread's own; one spec allocates its buffers per call
        rng = random.Random(61)
        _ds, train, probes = random_train(rng, max_users=40, max_items=30, max_events=400)
        model = build_similarity(train)

        def ranks(specs):
            return [
                probe_ranks(train, model, u, probes.probes[u][1], probes.probes[u][0], specs).tolist()
                for u in probes.evaluated_users * 20
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for specs in ([Constant(), Exponential(5e4)], [Exponential(5e4)]):
                expected = ranks(specs)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = [pool.submit(ranks, specs) for _ in range(8)]
                    assert all(r.result(timeout=120) == expected for r in results)
        finally:
            sys.setswitchinterval(interval)

    def test_nan_and_negative_similarities(self):
        dense = np.zeros((6, 6))
        dense[0, 1] = dense[1, 0] = np.nan
        dense[0, 2] = dense[2, 0] = -0.3
        dense[0, 3] = dense[3, 0] = 0.2
        dense[4, 3] = dense[3, 4] = 0.6
        dense[4, 5] = dense[5, 4] = 0.2
        dense[4, 2] = dense[2, 4] = 0.5
        matrix = sp.csr_matrix(dense)
        model = SimilarityModel(matrix, np.zeros(6, dtype=np.int64))
        train = train_with_profiles(6, [[(0, 100), (4, 5000)], [(4, 10)]])
        specs = [Constant(), Window(1000.0), Exponential(3000.0), Piecewise(10.0, 2000.0, 1.0, 0.5)]
        for user in (0, 1):
            for t_now in (5000, 6000, 10**6):
                assert_ranks_match(train, model, user, t_now, range(-1, 7), specs)
        # the nan reaches item 1 under every spec: never ranked
        assert probe_ranks(train, model, 0, 5000, 1, specs).tolist() == [0, 0, 0, 0]

    def test_exact_ties_break_to_lower_index(self):
        dense = np.full((6, 6), 0.5)
        model = model_from_dense(dense)
        train = train_with_profiles(6, [[(2, 100)]])
        specs = [Constant()]
        assert_ranks_match(train, model, 0, 500, range(-1, 7), specs)
        # items 0, 1, 3, 4, 5 tie; item 2 is the profile
        ranks = [probe_ranks(train, model, 0, 500, j, specs)[0] for j in range(6)]
        assert ranks == [1, 2, 0, 3, 4, 5]

    @pytest.mark.parametrize("probe", [-1, 3, 4, 2**40])
    def test_probe_outside_item_range_is_unranked(self, probe):
        # without the range check, -1 would read item 3, the only candidate
        dense = np.zeros((4, 4))
        dense[0, 3] = dense[3, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(4, [[(0, 100)]])
        expected = [1] if probe == 3 else [0]
        assert probe_ranks(train, model, 0, 500, probe, [Constant()]).tolist() == expected

    def test_raises_the_errors_of_score_items(self):
        dense = np.zeros((2, 2))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(2, [[(0, 100)], []])
        for user, t_now in ((3, 500), (1, 500), (0, 99), (0, 2**63)):
            with pytest.raises(ValueError) as scored:
                score_items(train, model, user, t_now, Constant())
            with pytest.raises(ValueError) as ranked:
                probe_ranks(train, model, user, t_now, 1, [Constant()])
            assert str(ranked.value) == str(scored.value)


class TestKernelScoring:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        spec=spec_strategy,
        factor=st.sampled_from([1.0, -1.0, 0.0, -2.5]),
        flip=st.booleans(),
        later=st.integers(0, 10**7),
    )
    def test_scores_equal_profile_order_oracle_exactly(self, seed, spec, factor, flip, later):
        # negative and zero weights through factor; negative similarities
        # through flip, which negates every other stored entry
        rng = random.Random(seed)
        _ds, train, _probes = random_train(rng)
        model = build_similarity(train)
        if flip:
            model.matrix.data[::2] *= -1.0
        scaled = Scaled(spec, factor)
        for u, profile in enumerate(train.profiles):
            if not len(profile):
                continue
            t_now = int(profile[:, 1].max()) + later
            expected = profile_order_scores(
                train, model, u, t_now, lambda age: factor * eval_decay(spec, age)
            )
            # the candidates are exactly the oracle's nonzero scores
            nonzero = {j: f for j, f in expected.items() if f != 0.0}
            assert scores_dict(score_items(train, model, u, t_now, scaled)) == nonzero

    def test_int64_index_model_scores_bit_for_bit(self):
        rng = random.Random(71)
        _ds, train, probes = random_train(rng, max_users=40, max_items=30, max_events=400)
        narrow = with_index_dtype(build_similarity(train), np.int32)
        wide = with_index_dtype(narrow, np.int64)
        assert wide.matrix.indices.dtype == wide.matrix.indptr.dtype == np.int64
        one = [Piecewise(5e4, 1e6, 0.6, 0.3)]
        many = [Constant(), Window(1e5), Exponential(5e4), *one]

        def queries(model, index_dtype):
            out = []
            for u in probes.evaluated_users:
                probe, t_now = probes.probes[u]
                sv = score_items(train, model, u, t_now, one[0])
                out.append((sv.items.tobytes(), sv.scores.tobytes()))
                for specs in (one, many):
                    for item in (probe, *sv.items[:3].tolist()):
                        out.append(probe_ranks(train, model, u, t_now, item, specs).tolist())
                # the rows were gathered in the model's own index dtype
                assert recommender._scratch.indices.dtype == index_dtype
            return out

        assert queries(wide, np.int64) == queries(narrow, np.int32)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        specs=st.lists(spec_strategy, min_size=1, max_size=3),
        factor=st.sampled_from([1.0, -1.0, 0.0, -2.5]),
        flip=st.booleans(),
        nan=st.booleans(),
        index_dtype=st.sampled_from([np.int32, np.int64]),
        later=st.integers(0, 10**7),
    )
    def test_one_spec_kernel_equals_its_column_of_the_block_bit_for_bit(
        self, seed, specs, factor, flip, nan, index_dtype, later
    ):
        # score_items multiplies the model's own rows; the several-spec
        # block multiplies a gathered copy of them.  Negative and zero
        # weights come through factor, negative and nan similarities
        # through flip and nan.
        _ds, train, _probes = random_train(random.Random(seed))
        model = with_index_dtype(build_similarity(train), index_dtype)
        if flip:
            model.matrix.data[::2] *= -1.0
        if nan:
            model.matrix.data[1::3] = np.nan
        scaled = [Scaled(spec, factor) for spec in specs]
        several = [*scaled, Constant()]
        for u, profile in enumerate(train.profiles):
            if not len(profile):
                continue
            t_now = int(profile[:, 1].max()) + later
            rows, ages = recommender._check_query(train, model, u, t_now)
            block = recommender._scores(model, rows, ages, several, recommender._gather(model, rows))
            for spec, column in zip(scaled, block.T):
                sv = score_items(train, model, u, t_now, spec)
                assert sv.items.tolist() == np.flatnonzero(column).tolist()
                assert sv.scores.tobytes() == column[sv.items].tobytes()

    def test_one_spec_gathers_no_rows(self, monkeypatch):
        rng = random.Random(83)
        _ds, train, probes = random_train(rng, max_users=40, max_items=30, max_events=400)
        model = build_similarity(train)
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        queries = []
        for u in probes.evaluated_users:
            probe, t_now = probes.probes[u]
            # the gathered several-spec path, the only one before csr_matmat
            rows, ages = recommender._check_query(train, model, u, t_now)
            column = recommender._scores(
                model, rows, ages, [spec, spec], recommender._gather(model, rows)
            )[:, 0]
            items = np.flatnonzero(column)
            for item in (probe, *items[:3].tolist()):
                rank = probe_ranks(train, model, u, t_now, item, [spec, spec]).tolist()[:1]
                queries.append((u, t_now, item, items, column[items], rank))

        def no_gather(*_args):
            raise AssertionError("a one-spec query gathered rows")

        monkeypatch.setattr(_sparsetools, "csr_row_index", no_gather)
        for u, t_now, item, items, scores, rank in queries:
            sv = score_items(train, model, u, t_now, spec)
            assert sv.items.tobytes() == items.tobytes()
            assert sv.scores.tobytes() == scores.tobytes()
            assert probe_ranks(train, model, u, t_now, item, [spec]).tolist() == rank

    def test_several_specs_gather_once_per_query(self, monkeypatch):
        rng = random.Random(84)
        _ds, train, probes = random_train(rng, max_users=40, max_items=30, max_events=400)
        model = build_similarity(train)
        gathers = []
        gather = _sparsetools.csr_row_index

        def counted(*args):
            gathers.append(args[0])
            return gather(*args)

        def no_matmat(*_args):
            raise AssertionError("a gathered query multiplied the model's rows")

        monkeypatch.setattr(_sparsetools, "csr_row_index", counted)
        monkeypatch.setattr(_sparsetools, "csr_matmat", no_matmat)
        # two specs, and a chunk of SPEC_CHUNK followed by a one-spec chunk
        for specs in ([Constant(), Exponential(5e4)], [Exponential(5e4)] * (SPEC_CHUNK + 1)):
            for u in probes.evaluated_users:
                probe, t_now = probes.probes[u]
                gathers.clear()
                probe_ranks(train, model, u, t_now, probe, specs)
                assert gathers == [len(train.profiles[u])]

    @pytest.mark.parametrize("item", [3, 7])
    def test_profile_item_outside_the_model_rejected_before_any_kernel(self, monkeypatch, item):
        # a model with fewer items than the training set: the kernels, which
        # check no bounds, would read past its rows
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 0.4
        model = model_from_dense(dense)
        train = train_with_profiles(8, [[(0, 100), (item, 200)]])
        monkeypatch.setattr(recommender, "_sparsetools", None)
        message = "the model has 3 items, the training set 8"
        with pytest.raises(ValueError, match=message):
            score_items(train, model, 0, 500, Constant())
        with pytest.raises(ValueError, match=message):
            probe_ranks(train, model, 0, 500, 1, [Constant()])
