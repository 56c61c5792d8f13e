"""Parsing, preprocessing, and leave-the-latest-out split."""

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcf.dataset import (
    Dataset,
    RatingLog,
    parse_events,
    preprocess,
    split_leave_latest,
    write_events,
)
from helpers import log_triples, profile_pairs, rating_log
from oracles import random_log


def log_of(*triples) -> RatingLog:
    return rating_log(triples)


class TestParseEvents:
    def test_single_line(self):
        log = parse_events(io.StringIO("u1\tb7\t1100000000\n"))
        assert log_triples(log) == [("u1", "b7", 1100000000)]
        assert log.skipped == 0

    def test_empty_stream(self):
        log = parse_events(io.StringIO(""))
        assert log_triples(log) == []
        assert log.timestamps.dtype == np.int64
        assert log.skipped == 0

    def test_malformed_lines_skipped_not_fatal(self):
        text = "u1\ta\t1\nu2\ta\t2\nu9\tb2\tnotatime\nu3\tb\t3\n"
        log = parse_events(io.StringIO(text))
        assert len(log) == 3
        assert log.skipped == 1

    def test_wrong_field_count_and_negative_timestamp_skipped(self):
        text = "u1\ta\n\nu2\ta\t-5\nu2\ta\t7\n"
        log = parse_events(io.StringIO(text))
        assert log.users == ["u2"]
        assert log.skipped == 3

    def test_only_ascii_digit_timestamps_accepted(self):
        stamps = ("1_000", "+12", " 12", "\u0661\u0662")  # the last is Arabic-Indic 12
        text = "".join(f"u1\ta\t{t}\n" for t in stamps) + "u2\ta\t12\n"
        log = parse_events(io.StringIO(text))
        assert log_triples(log) == [("u2", "a", 12)]
        assert log.skipped == 4

    def test_timestamps_above_int64_skipped(self):
        stamps = (str(2**63 - 1), str(2**63), "99999999999999999999")
        text = "".join(f"u1\ta\t{t}\n" for t in stamps)
        log = parse_events(io.StringIO(text))
        assert log_triples(log) == [("u1", "a", 2**63 - 1)]
        assert log.skipped == 2
        with pytest.raises(ValueError):
            RatingLog(["u1"], ["a"], [2**63])

    def test_write_round_trip(self):
        log = log_of(("u1", "a", 1), ("u2", "b", 2))
        buf = io.StringIO()
        write_events(log, buf)
        back = parse_events(io.StringIO(buf.getvalue()))
        assert log_triples(back) == log_triples(log)

    def test_crlf_line_ends_accepted(self):
        log = parse_events(io.StringIO("u1\ta\t1\r\nu2\tb\t2\r\n"))
        assert log_triples(log) == [("u1", "a", 1), ("u2", "b", 2)]
        assert log.skipped == 0

    def test_id_with_a_carriage_return_is_not_written(self, tmp_path):
        # read back through open(), "a\rb" would end a line and leave an
        # event of a user "b" who never existed
        log = log_of(("a\rb", "x", 1), ("u2", "x", 2))
        path = tmp_path / "log.tsv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            with pytest.raises(ValueError, match=r"identifier 'a\\rb' holds a tab, CR or LF"):
                write_events(log, fh)
        assert path.read_bytes() == b""


class TestPreprocess:
    def test_single_user_item_removed(self):
        ds = preprocess(log_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3)))
        assert (ds.n_users, ds.n_items, ds.n_ratings) == (2, 1, 2)
        assert ds.item_ids == ["a"]

    def test_dedup_then_rule_gives_empty(self):
        ds = preprocess(log_of(("u1", "a", 5), ("u1", "a", 2)))
        assert (ds.n_users, ds.n_items, ds.n_ratings) == (0, 0, 0)

    def test_duplicates_collapse_to_earliest(self):
        ds = preprocess(log_of(("u1", "a", 5), ("u1", "a", 2), ("u2", "a", 9)))
        u1 = ds.user_ids.index("u1")
        assert profile_pairs(ds)[u1] == [(ds.item_ids.index("a"), 2)]

    def test_profiles_sorted_by_time_then_item(self):
        ds = preprocess(
            log_of(
                ("u1", "b", 7), ("u1", "a", 7), ("u1", "c", 3),
                ("u2", "a", 1), ("u2", "b", 1), ("u2", "c", 1),
            )
        )
        for prof in profile_pairs(ds):
            assert prof == sorted(prof, key=lambda r: (r[1], r[0]))

    def test_stats(self):
        ds = preprocess(
            log_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3), ("u2", "b", 4))
        )
        assert ds.summary()["sparsity"] == 1.0 - 4 / (2 * 2)
        assert ds.summary()["excluded_users"] == 0


def oracle_repeated_filter(events):
    """Brute-force fixed point: drop single-user items, then empty users."""
    earliest = {}
    for user, item, timestamp in events:
        key = (user, item)
        if key not in earliest or timestamp < earliest[key]:
            earliest[key] = timestamp
    current = {(u, i, t) for (u, i), t in earliest.items()}
    while True:
        item_users = {}
        for u, i, _t in current:
            item_users.setdefault(i, set()).add(u)
        keep = {i for i, users in item_users.items() if len(users) >= 2}
        reduced = {(u, i, t) for (u, i, t) in current if i in keep}
        if reduced == current:
            return current
        current = reduced


def dataset_triples(ds):
    return {
        (ds.user_ids[u], ds.item_ids[i], t)
        for u, prof in enumerate(profile_pairs(ds))
        for i, t in prof
    }


class TestPreprocessFixedPoint:
    def test_cascade_matches_repeated_filter_oracle(self):
        rng = random.Random(1402)
        for _ in range(250):
            log = random_log(rng, max_users=6, max_items=6, max_events=50)
            ds = preprocess(log)
            assert dataset_triples(ds) == oracle_repeated_filter(log_triples(log))

    def test_idempotent(self):
        rng = random.Random(77)
        for _ in range(50):
            ds = preprocess(random_log(rng))
            again = preprocess(rating_log(dataset_triples(ds)))
            assert dataset_triples(again) == dataset_triples(ds)

    def test_every_item_has_two_distinct_users(self):
        rng = random.Random(9)
        for _ in range(100):
            ds = preprocess(random_log(rng))
            counts = [0] * ds.n_items
            for prof in profile_pairs(ds):
                for i, _t in prof:
                    counts[i] += 1
            assert all(c >= 2 for c in counts)


class TestSplitLeaveLatest:
    def test_latest_by_timestamp(self):
        ds = preprocess(
            log_of(
                ("u1", "a", 1), ("u1", "b", 5), ("u1", "c", 9),
                ("u2", "a", 1), ("u2", "b", 2), ("u2", "c", 3),
            )
        )
        train, probes = split_leave_latest(ds)
        u1 = ds.user_ids.index("u1")
        assert probes.probes[u1] == (ds.item_ids.index("c"), 9)
        assert [i for i, _t in profile_pairs(train)[u1]] == [
            ds.item_ids.index("a"),
            ds.item_ids.index("b"),
        ]

    def test_single_rating_user_excluded(self):
        ds = preprocess(
            log_of(("u1", "a", 1), ("u2", "a", 2), ("u2", "b", 3), ("u3", "b", 4))
        )
        train, probes = split_leave_latest(ds)
        u1 = ds.user_ids.index("u1")
        u3 = ds.user_ids.index("u3")
        assert sorted(set(range(ds.n_users)) - set(probes.probes)) == sorted([u1, u3])
        assert ds.summary()["excluded_users"] == 2
        assert len(train.profiles[u1]) == 0

    def test_timestamp_tie_breaks_to_higher_item_index(self):
        ds = preprocess(
            log_of(
                ("u1", "a", 7), ("u1", "b", 7),
                ("u2", "a", 1), ("u2", "b", 1),
            )
        )
        train, probes = split_leave_latest(ds)
        hi = max(ds.item_ids.index("a"), ds.item_ids.index("b"))
        for u in (ds.user_ids.index("u1"), ds.user_ids.index("u2")):
            assert probes.probes[u][0] == hi

    def test_partition_counts(self):
        rng = random.Random(31)
        for _ in range(100):
            ds = preprocess(random_log(rng))
            train, probes = split_leave_latest(ds)
            excluded = set(range(ds.n_users)) - set(probes.probes)
            excluded_ratings = sum(len(ds.profiles[u]) for u in excluded)
            assert train.n_ratings + len(probes.probes) == ds.n_ratings - excluded_ratings

    def test_probe_not_in_train_profile_and_is_latest(self):
        rng = random.Random(32)
        for _ in range(100):
            ds = preprocess(random_log(rng))
            train, probes = split_leave_latest(ds)
            profiles = profile_pairs(train)
            for u, (item, ts) in probes.probes.items():
                train_items = {i for i, _t in profiles[u]}
                assert item not in train_items
                assert all(t <= ts for _i, t in profiles[u])


class TestRatingLog:
    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            RatingLog(["u1", "u2"], ["a"], [1, 2])

    @pytest.mark.parametrize("users, items", [([""], ["a"]), (["u1"], [""])])
    def test_empty_identifiers_rejected(self, users, items):
        with pytest.raises(ValueError, match="non-empty"):
            RatingLog(users, items, [1])

    @pytest.mark.parametrize("stamp", [-1, 2**63, 2**64, 10**30])
    def test_timestamp_out_of_range_is_a_value_error(self, stamp):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            RatingLog(["u1"], ["a"], [stamp])

    def test_timestamps_are_read_only_int64(self):
        log = RatingLog(["u1"], ["a"], [5])
        assert log.timestamps.dtype == np.int64
        with pytest.raises(ValueError):
            log.timestamps[0] = 6


# Identifiers without a tab, CR, LF or surrogate (which the text streams
# could not encode); commas and a trailing NUL must survive the trip.
FIELD_BREAKS = "\t\r\n"
identifiers = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=FIELD_BREAKS),
    min_size=1,
    max_size=6,
)


@st.composite
def unwritable_identifiers(draw):
    """An identifier holding at least one tab, CR or LF."""
    head, tail = draw(identifiers | st.just("")), draw(identifiers | st.just(""))
    return head + draw(st.sampled_from(FIELD_BREAKS)) + tail


def read_back(text: str) -> RatingLog:
    """Parse ``text`` as the command line reads a file: UTF-8, universal newlines."""
    return parse_events(io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8"))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        events=st.lists(
            st.tuples(identifiers, identifiers, st.integers(0, 2**63 - 1)), max_size=30
        ),
    )
    def test_write_then_parse_returns_the_columns(self, events):
        log = rating_log(events)
        buf = io.StringIO()
        write_events(log, buf)
        back = read_back(buf.getvalue())
        assert back.skipped == 0
        assert back.users == log.users and back.items == log.items
        assert back.timestamps.tolist() == log.timestamps.tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                identifiers | unwritable_identifiers(),
                identifiers | unwritable_identifiers(),
                st.integers(0, 2**63 - 1),
            ),
            min_size=1,
            max_size=30,
        ).filter(lambda events: any(set(FIELD_BREAKS) & set(u + i) for u, i, _t in events)),
    )
    def test_id_with_a_field_break_is_refused_before_writing(self, events):
        first = next(x for u, i, _t in events for x in (u, i) if set(FIELD_BREAKS) & set(x))
        buf = io.StringIO()
        with pytest.raises(ValueError) as exc:
            write_events(rating_log(events), buf)
        assert str(exc.value) == f"identifier {first!r} holds a tab, CR or LF and cannot be written"
        assert buf.getvalue() == ""


class TestColumnarLayout:
    def test_trailing_nul_ids_stay_distinct(self):
        # numpy "<U" arrays would drop the NUL and merge the two items
        ds = preprocess(log_of(
            ("u1", "a", 1), ("u2", "a", 2), ("u1", "a\x00", 3), ("u2", "a\x00", 4),
        ))
        assert ds.item_ids == ["a", "a\x00"]
        assert ds.n_ratings == 4

    def test_profiles_are_read_only_views_built_once(self):
        ds = preprocess(log_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3), ("u2", "b", 4)))
        assert ds.profiles is ds.profiles
        assert [len(p) for p in ds.profiles] == np.diff(ds.indptr).tolist()
        prof = ds.profiles[0]
        assert prof.base is not None and np.shares_memory(prof, ds.ratings)
        with pytest.raises(ValueError):
            prof[0, 1] = 0
        assert ds.ratings.dtype == ds.indptr.dtype == np.int64

    def test_caller_arrays_stay_writeable(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        ratings = np.array([[0, 1], [0, 2]], dtype=np.int64)
        stamps = np.array([1, 2], dtype=np.int64)
        ds = Dataset(["u1", "u2"], ["a"], indptr, ratings)
        log = RatingLog(["u1", "u2"], ["a", "a"], stamps)
        pairs = ((indptr, ds.indptr), (ratings, ds.ratings), (stamps, log.timestamps))
        for given_array, stored in pairs:
            # the stored array is a view, not a copy
            assert np.shares_memory(given_array, stored)
            assert given_array.flags.writeable
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 0

    def test_content_hash_reads_ids_offsets_and_rows(self):
        ds = preprocess(log_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3), ("u2", "b", 4)))
        moved = ds.ratings.copy()
        moved[-1, 1] += 1
        variants = [
            Dataset(ds.user_ids, ds.item_ids, ds.indptr, moved),
            Dataset(ds.user_ids, ds.item_ids, [0, 1, 4], ds.ratings),
            Dataset(["u1", "u3"], ds.item_ids, ds.indptr, ds.ratings),
        ]
        digests = {ds.content_hash()} | {v.content_hash() for v in variants}
        assert len(digests) == 4
        assert Dataset(ds.user_ids, ds.item_ids, ds.indptr, ds.ratings).content_hash() == ds.content_hash()
