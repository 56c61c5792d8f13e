"""Similarity model construction, queries, and the binary cache."""

import math
import random
import struct
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from driftcf import similarity
from driftcf.cli import main
from driftcf.dataset import Dataset, preprocess, split_leave_latest
from driftcf.similarity import (
    CacheFormatError,
    CacheMismatchError,
    SimilarityModel,
    build_similarity,
    load_cache,
    save_cache,
)
from driftcf.synthetic import SyntheticConfig, generate_synthetic
from helpers import (
    dataset_from_profiles,
    error_class,
    profile_pairs,
    rating_log,
    similarity_row,
    similarity_value,
)
from oracles import coo_similarity, dense_cosine, random_dataset


def train_of(*triples):
    ds = preprocess(rating_log(triples))
    assert ds.n_ratings > 0
    return ds


class TestBuildSimilarity:
    def test_identical_user_sets_give_one(self):
        train = train_of(("u1", "i", 1), ("u2", "i", 2), ("u1", "j", 3), ("u2", "j", 4))
        model = build_similarity(train)
        i, j = train.item_ids.index("i"), train.item_ids.index("j")
        assert similarity_value(model, i, j) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_user_sets_not_stored(self):
        # u3 bridges i and j into the dataset without co-rating them
        train = train_of(
            ("u1", "i", 1), ("u3", "i", 2),
            ("u2", "j", 3), ("u3b", "j", 4),
            ("u1", "k", 5), ("u2", "k", 6), ("u3", "k", 7), ("u3b", "k", 8),
        )
        model = build_similarity(train)
        i, j = train.item_ids.index("i"), train.item_ids.index("j")
        assert j not in similarity_row(model, i)
        assert similarity_value(model, i, j) == 0.0

    def test_two_versus_three_raters(self):
        train = train_of(
            ("a", "i", 1), ("b", "i", 2),
            ("b", "j", 3), ("c", "j", 4), ("d", "j", 5),
            # keep every user at two items so nothing is filtered
            ("a", "k", 6), ("c", "k", 7), ("d", "k", 8),
        )
        model = build_similarity(train)
        i, j = train.item_ids.index("i"), train.item_ids.index("j")
        expected = 1.0 / (math.sqrt(2) * math.sqrt(3))
        assert similarity_value(model, i, j) == pytest.approx(expected, abs=1e-12)

    def test_empty_train_rejected(self):
        ds = preprocess(rating_log([]))
        with pytest.raises(ValueError):
            build_similarity(ds)

    def test_repeated_rating_rejected(self):
        train = dataset_from_profiles(["a", "b"], ["x", "y"], [[(0, 1), (0, 2), (1, 3)], [(0, 4), (1, 5)]])
        with pytest.raises(ValueError, match="twice"):
            build_similarity(train)

    def test_sparse_catalog_takes_few_blocks(self, monkeypatch):
        # user k rates items 2k and 2k + 1 alone: 100,000 items, each row
        # one entry, which a block per BLOCK_ENTRIES // n_items rows would
        # have formed one row at a time
        n_users = 50_000
        items = np.arange(2 * n_users)
        ratings = np.stack([items, items], axis=1)
        train = Dataset(
            [f"u{k:05d}" for k in range(n_users)], [f"i{j:06d}" for j in items],
            np.arange(0, 2 * n_users + 1, 2), ratings,
        )
        blocks = []
        matmat = similarity._sparsetools.csr_matmat

        def counted(n_row, *args):
            blocks.append(n_row)
            return matmat(n_row, *args)

        monkeypatch.setattr(similarity._sparsetools, "csr_matmat", counted)
        model = build_similarity(train)
        assert sum(blocks) == 2 * n_users and len(blocks) <= 7, blocks
        m = model.matrix
        assert np.array_equal(m.indices, items ^ 1) and np.all(m.data == 1.0)

    def test_diagonal_never_stored(self):
        rng = random.Random(5)
        train = random_dataset(rng)
        while train.n_ratings == 0:
            train = random_dataset(rng)
        model = build_similarity(train)
        for i in range(model.n_items):
            assert i not in similarity_row(model, i)


class TestCooReference:
    def test_build_matches_coo_reference_bit_for_bit(self):
        seen = {"unrated item": 0, "several blocks": 0, "one-row block": 0, "several-row block": 0}
        matmat = similarity._sparsetools.csr_matmat

        @settings(max_examples=80, deadline=None)
        @given(rng=st.randoms(use_true_random=False))
        def check(rng):
            train, _probes = split_leave_latest(random_dataset(rng))
            assume(train.n_ratings > 0)
            matrix, counts, sq_sums = coo_similarity(train)
            expected = (matrix.indptr, matrix.indices, matrix.data, counts, sq_sums)
            n = train.n_items
            # one block, then blocks cut at n_items entries (the least a block
            # may take) and at 3 n_items
            for entries in (None, 1, 3 * n):
                blocks = []

                def counted(n_row, *args):
                    blocks.append(n_row)
                    return matmat(n_row, *args)

                with pytest.MonkeyPatch.context() as mp:
                    if entries is not None:
                        mp.setattr(similarity, "BLOCK_ENTRIES", entries)
                    mp.setattr(similarity._sparsetools, "csr_matmat", counted)
                    model = build_similarity(train)
                assert sum(blocks) == n
                assert model.matrix.has_canonical_format
                for got, want in zip(model_arrays(model), expected):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                if len(blocks) > 1:
                    seen["several blocks"] += 1
                    seen["one-row block"] += 1 in blocks
                    seen["several-row block"] += max(blocks) > 1
            # an item whose only rating became a probe has no training rater
            seen["unrated item"] += bool(np.any(model.user_counts == 0))

        check()
        assert all(seen.values()), seen


class TestBuildMemory:
    def test_build_holds_the_model_plus_less_than_half_of_it(self):
        train, _probes = split_leave_latest(preprocess(generate_synthetic(SyntheticConfig())))
        tracemalloc.start()
        try:
            model = build_similarity(train)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = model.matrix
        model_bytes = sum(a.nbytes for a in (m.indptr, m.indices, m.data, model.user_counts))
        assert peak - model_bytes < model_bytes / 2, (peak, model_bytes)


class TestDenseOracle:
    def test_matches_dense_two_loop_cosine(self):
        rng = random.Random(8601)
        checked = 0
        while checked < 120:
            train = random_dataset(rng)
            if train.n_ratings == 0:
                continue
            checked += 1
            model = build_similarity(train)
            dense = dense_cosine(train)
            n = train.n_items
            for i in range(n):
                row = similarity_row(model, i)
                for j in range(n):
                    if i == j:
                        continue
                    expected = dense[i][j]
                    got = row.get(j, 0.0)
                    assert abs(got - expected) < 1e-12
                    if expected > 0:
                        assert j in row

    def test_symmetry_and_range(self):
        rng = random.Random(8602)
        for _ in range(30):
            train = random_dataset(rng)
            if train.n_ratings == 0:
                continue
            model = build_similarity(train)
            for i in range(model.n_items):
                for j, s in similarity_row(model, i).items():
                    assert 0.0 < s <= 1.0 + 1e-15
                    assert similarity_value(model, j, i) == pytest.approx(s, abs=0)

    def test_stored_entries_count_pairs_with_common_users(self):
        rng = random.Random(8603)
        for _ in range(30):
            train = random_dataset(rng)
            if train.n_ratings == 0:
                continue
            model = build_similarity(train)
            dense = dense_cosine(train)
            n = train.n_items
            pairs = sum(
                1 for i in range(n) for j in range(i + 1, n) if dense[i][j] > 0
            )
            assert model.stored_entries == 2 * pairs

    def test_cached_row_squared_sums(self):
        rng = random.Random(8604)
        for _ in range(30):
            train = random_dataset(rng)
            if train.n_ratings == 0:
                continue
            model = build_similarity(train)
            for i in range(model.n_items):
                recomputed = sum(s * s for s in similarity_row(model, i).values())
                cached = model.row_sq_sums[i]
                assert abs(cached - recomputed) <= 1e-9 * max(recomputed, 1e-300)


class TestRowQueries:
    def test_row_without_neighbors_is_empty(self):
        train = train_of(
            ("u1", "a", 1), ("u2", "a", 2),
            ("u3", "b", 3), ("u4", "b", 4),
            ("u1", "c", 5), ("u2", "c", 6), ("u3", "c", 7), ("u4", "c", 8),
        )
        # drop c from the training profiles to isolate a from b
        c = train.item_ids.index("c")
        train = dataset_from_profiles(train.user_ids, train.item_ids, [
            [(i, t) for i, t in prof if i != c] for prof in profile_pairs(train)
        ])
        model = build_similarity(train)
        assert similarity_row(model, train.item_ids.index("a")).get(train.item_ids.index("b")) is None


def old_row_sq_sums(matrix):
    """The elementwise-product form the row-sum helper replaced."""
    return np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()


class TestRowSqSums:
    @pytest.mark.parametrize("dense", [
        [[0, 0.5, 0], [0, 0, 0], [0.5, 0, 0.25]],  # plain reduceat gives .25 for row 1
        [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]],  # an empty last row starts past the data
        [[0, 0], [0, 0]],
    ])
    def test_empty_rows_are_exactly_zero(self, dense):
        matrix = sp.csr_matrix(np.array(dense))
        got = SimilarityModel(matrix, np.zeros(matrix.shape[0], dtype=np.int64)).row_sq_sums
        assert got.tobytes() == old_row_sq_sums(matrix).tobytes()
        assert np.all(got[np.diff(matrix.indptr) == 0] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 12), min_size=1, max_size=12),
        chunk=st.integers(1, 8),
        seed=st.integers(0, 2**32),
    )
    @example(lengths=[0, 3, 0, 9, 2, 0], chunk=4, seed=0)
    def test_chunked_sums_match_one_shot_form_bit_for_bit(self, lengths, chunk, seed):
        # rows of random lengths, empty ones and ones longer than the chunk
        # among them, summed SQ_SUM_ENTRIES = chunk entries at a time
        rng = np.random.default_rng(seed)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        n = len(lengths)
        indices = np.concatenate([np.sort(rng.choice(12, k, replace=False)) for k in lengths])
        matrix = sp.csr_matrix((rng.random(indptr[-1]), indices.astype(np.int32), indptr), shape=(n, 12))
        nonempty = np.diff(indptr) > 0
        one_shot = np.zeros(n)
        one_shot[nonempty] = np.add.reduceat(matrix.data * matrix.data, indptr[:-1][nonempty])
        with patch.object(similarity, "SQ_SUM_ENTRIES", chunk):
            got = SimilarityModel(matrix, np.zeros(n, dtype=np.int64)).row_sq_sums
        assert got.tobytes() == one_shot.tobytes()

    def test_built_and_loaded_models_match_old_form_bit_for_bit(self, tmp_path):
        rng = random.Random(2024)
        checked = 0
        while checked < 20:
            train = random_dataset(rng, max_users=10, max_items=14, max_events=40)
            if train.n_ratings == 0:
                continue
            model = build_similarity(train)
            path = str(tmp_path / "sim.bin")
            save_cache(model, path, train.content_hash())
            loaded = load_cache(path, train.content_hash())
            for m in (model, loaded):
                assert m.row_sq_sums.tobytes() == old_row_sq_sums(m.matrix).tobytes()
            checked += bool(np.any(np.diff(model.matrix.indptr) == 0))


def model_arrays(model) -> tuple[np.ndarray, ...]:
    m = model.matrix
    return m.indptr, m.indices, m.data, model.user_counts, model.row_sq_sums


class TestCache:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rng=st.randoms(use_true_random=False))
    def test_round_trip(self, tmp_path, rng):
        train = random_dataset(rng)
        assume(train.n_ratings > 0)
        model = build_similarity(train)
        path = str(tmp_path / "sim.bin")
        save_cache(model, path, train.content_hash())
        loaded = load_cache(path, train.content_hash())
        assert loaded.matrix.shape == model.matrix.shape
        for got, built in zip(model_arrays(loaded), model_arrays(model)):
            assert got.dtype == built.dtype
            assert got.tobytes() == built.tobytes()

    def test_mismatched_hash_refused(self, tmp_path):
        train = train_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3), ("u2", "b", 4))
        model = build_similarity(train)
        path = str(tmp_path / "sim.bin")
        save_cache(model, path, train.content_hash())
        with pytest.raises(CacheMismatchError):
            load_cache(path, "0" * 64)

    @pytest.mark.parametrize("digest", ["ab" * 31, "ab" * 33])
    def test_digest_not_sha256_refused(self, tmp_path, digest):
        train = train_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3), ("u2", "b", 4))
        with pytest.raises(ValueError, match="64-character hex SHA-256"):
            save_cache(build_similarity(train), str(tmp_path / "sim.bin"), digest)
        assert list(tmp_path.iterdir()) == []

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache at all")
        with pytest.raises(CacheFormatError):
            load_cache(str(path), "0" * 64)

    def test_rounding_above_one_loads(self, tmp_path):
        # three shared raters: 3 * (1/sqrt(3) * 1/sqrt(3)) rounds to 1 + 2**-52
        train = train_of(*((u, i, t) for t, (u, i) in enumerate(
            (u, i) for u in ("u1", "u2", "u3") for i in ("a", "b")
        )))
        model = build_similarity(train)
        assert similarity_value(model, train.item_ids.index("a"), train.item_ids.index("b")) == 1 + 2.0**-52
        path = str(tmp_path / "sim.bin")
        save_cache(model, path, train.content_hash())
        loaded = load_cache(path, train.content_hash())
        assert (loaded.matrix != model.matrix).nnz == 0

    def test_each_pair_stored_once(self, small_cache):
        # the strict upper triangle of a model in which every pair is stored
        _digest, blob = small_cache
        _counts, lengths, j, _s = cache_arrays(blob)
        assert CACHE_HEADER.unpack_from(blob)[-1] == 3
        assert lengths.tolist() == [2, 1, 0] and j.tolist() == [1, 2, 2]

    def test_truncated_file_rejected(self, tmp_path):
        train = train_of(("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3), ("u2", "b", 4))
        model = build_similarity(train)
        path = tmp_path / "sim.bin"
        save_cache(model, str(path), train.content_hash())
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(CacheFormatError):
            load_cache(str(path), train.content_hash())


# The cache layout, little-endian: magic (6), version (2), digest (32), item
# count (4) and entry count (8); then user counts and row lengths (u4 per
# item), column indices (u4 per entry) and similarities (f8 per entry), the
# entries being those of the strict upper triangle.
CACHE_HEADER = struct.Struct("<6sH32sIQ")
CACHE_BLOCKS = ("<u4", "<u4", "<u4", "<f8")
N_ITEMS_OFFSET, NNZ_OFFSET = 40, 44


def cache_arrays(blob: bytes) -> list[np.ndarray]:
    """Writable copies of a well-formed cache's user counts, row lengths,
    column indices and similarities."""
    *_head, n_items, nnz = CACHE_HEADER.unpack_from(blob)
    arrays, off = [], CACHE_HEADER.size
    for dtype, count in zip(CACHE_BLOCKS, (n_items, n_items, nnz, nnz)):
        arrays.append(np.frombuffer(blob, dtype, count, off).copy())
        off += arrays[-1].nbytes
    return arrays


def cache_bytes(blob: bytes, counts, lengths, j, s) -> bytes:
    """``blob``'s magic, version and digest, then the given arrays under
    their own item and entry counts."""
    head = CACHE_HEADER.unpack_from(blob)[:3]
    arrays = (counts, lengths, j, s)
    return CACHE_HEADER.pack(*head, len(counts), len(j)) + b"".join(
        np.asarray(a, dtype).tobytes() for dtype, a in zip(CACHE_BLOCKS, arrays)
    )


def corrupt_cache(blob: bytes, kind: str) -> bytes:
    if kind == "trailing_bytes":
        return blob + b"\0"
    counts, lengths, j, s = cache_arrays(blob)
    n_items = len(counts)
    starts = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    k = next(k for k in range(n_items) if lengths[k] >= 2)  # row k holds two entries or more
    lo = starts[k]
    if kind == "row_lengths_not_nnz":
        lengths[k] += 1
    elif kind == "entry_moved_between_rows":
        lengths[k] -= 1
        lengths[(k + 1) % n_items] += 1
    elif kind == "column_past_n_items":
        j[starts[k + 1] - 1] = n_items
    elif kind == "duplicate_column":
        j[lo + 1] = j[lo]
    elif kind == "descending_columns":
        j[lo], j[lo + 1] = j[lo + 1], j[lo]
    elif kind == "nan_similarity":
        s[lo] = float("nan")
    elif kind == "similarity_above_one":
        s[lo] = 1.5
    elif kind in ("diagonal_entry", "entry_below_row"):
        # row k's own item, or row k + 1 given item k: each goes first in its row
        row = k if kind == "diagonal_entry" else k + 1
        j, s = np.insert(j, starts[row], k), np.insert(s, starts[row], 0.5)
        lengths[row] += 1
    else:
        raise ValueError(kind)
    return cache_bytes(blob, counts, lengths, j, s)


CORRUPTIONS = (
    "row_lengths_not_nnz",
    "entry_moved_between_rows",
    "trailing_bytes",
    "column_past_n_items",
    "duplicate_column",
    "descending_columns",
    "nan_similarity",
    "similarity_above_one",
    "diagonal_entry",
    "entry_below_row",
)


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """Three items co-rated by two users: the rows hold 2, 1 and 0 stored
    entries, those above each row."""
    train = train_of(
        ("u1", "a", 1), ("u2", "a", 2), ("u1", "b", 3),
        ("u2", "b", 4), ("u1", "c", 5), ("u2", "c", 6),
    )
    path = tmp_path_factory.mktemp("cache") / "sim.bin"
    save_cache(build_similarity(train), str(path), train.content_hash())
    return train.content_hash(), path.read_bytes()


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory):
    """A synthetic log and the similarity cache analyze-ssnr writes for it."""
    work = tmp_path_factory.mktemp("cli")
    log, cache = work / "log.tsv", work / "sim.bin"
    assert main([
        "synth", "--seed", "7", "--out", str(log),
        "--users", "40", "--items", "120", "--events", "1600", "--topics", "6",
    ]) == 0
    assert main(analyze_with_cache(log, cache, work)) == 0
    return log, cache.read_bytes()


def analyze_with_cache(log, cache, work) -> list[str]:
    """The argv of an analyze-ssnr run that reads or writes ``cache``."""
    return [
        "analyze-ssnr", "--in", str(log), "--sim-cache", str(cache),
        "--curve-out", str(work / "curve.csv"),
    ]


class TestCorruptCache:
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_corruption_rejected(self, small_cache, tmp_path, kind):
        digest, blob = small_cache
        path = tmp_path / "bad.bin"
        path.write_bytes(corrupt_cache(blob, kind))
        with pytest.raises(CacheFormatError):
            load_cache(str(path), digest)

    def test_huge_item_count_rejected_before_allocating(self, small_cache, tmp_path):
        digest, blob = small_cache
        # the entry count too: either would ask for more memory than the file holds
        for fmt, offset, value in (
            ("<I", N_ITEMS_OFFSET, 2**32 - 1), ("<Q", NNZ_OFFSET, 2**64 - 1),
        ):
            out = bytearray(blob)
            struct.pack_into(fmt, out, offset, value)
            path = tmp_path / "bad.bin"
            path.write_bytes(bytes(out))
            with pytest.raises(CacheFormatError, match="truncated"):
                load_cache(str(path), digest)

    @pytest.mark.parametrize("version", [1, 3])
    def test_old_version_cache_rejected(self, cli_cache, tmp_path, capsys, version):
        # version 3 stored every pair twice, both halves of the symmetric
        # matrix, in this layout; version 1 keyed caches by a JSON hash of the
        # tuple profiles
        log, blob = cli_cache
        path = tmp_path / "old.bin"
        path.write_bytes(blob)
        m = load_cache(str(path), blob[8:40].hex()).matrix
        out = bytearray(cache_bytes(blob, cache_arrays(blob)[0], np.diff(m.indptr), m.indices, m.data))
        struct.pack_into("<H", out, 6, version)
        path.write_bytes(bytes(out))
        with pytest.raises(CacheFormatError, match=f"unsupported cache version {version}"):
            load_cache(str(path), blob[8:40].hex())
        code = main(analyze_with_cache(log, path, tmp_path))
        assert code == 1
        assert error_class(capsys.readouterr().err) == "CacheFormatError"

    def test_version_two_cache_rejected(self, cli_cache, tmp_path, capsys):
        # version 2 stored one record per item: index, user count, entry
        # count, then that row's (j u4, s f8) entries
        log, blob = cli_cache
        counts, lengths, j, s = cache_arrays(blob)
        parts = [struct.pack("<6sH32sI", b"DCFSIM", 2, blob[8:40], len(counts))]
        starts = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        for k, (count, length) in enumerate(zip(counts.tolist(), lengths.tolist())):
            parts.append(struct.pack("<III", k, count, length))
            parts += [struct.pack("<Id", j[e], s[e]) for e in range(starts[k], starts[k + 1])]
        path = tmp_path / "old.bin"
        path.write_bytes(b"".join(parts))
        with pytest.raises(CacheFormatError, match="unsupported cache version 2"):
            load_cache(str(path), blob[8:40].hex())
        code = main(analyze_with_cache(log, path, tmp_path))
        assert code == 1
        assert error_class(capsys.readouterr().err) == "CacheFormatError"

    # analyze-ssnr is the one command that reads a cache
    @pytest.mark.parametrize("command", ["analyze-ssnr"])
    @pytest.mark.parametrize("extra", [-60, 30])
    def test_item_count_unlike_the_training_set_refused(self, cli_cache, tmp_path, capsys, command, extra):
        # keyed by the training set's digest, but sized for fewer or more items
        log, blob = cli_cache
        digest = blob[8:40].hex()
        path = tmp_path / "sim.bin"
        path.write_bytes(blob)
        model = load_cache(str(path), digest)
        n_train, n_items = model.n_items, model.n_items + extra
        matrix = model.matrix.copy()
        matrix.resize((n_items, n_items))
        counts = np.zeros(n_items, dtype=np.int64)
        counts[: min(n_train, n_items)] = model.user_counts[:n_items]
        save_cache(SimilarityModel(matrix, counts), str(path), digest)
        argv = [command, "--in", str(log), "--sim-cache", str(path)]
        code = main(argv + ["--curve-out", str(tmp_path / "curve.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"cache holds {n_items} items, the training set {n_train}" in err
        assert "Traceback" not in err

    def test_short_header_rejected(self, small_cache, tmp_path):
        digest, blob = small_cache
        path = tmp_path / "bad.bin"
        path.write_bytes(blob[:10])
        with pytest.raises(CacheFormatError):
            load_cache(str(path), digest)

    @pytest.mark.parametrize("kind, entry, defect", [
        ("descending_columns", -1, "column indices are not strictly increasing"),
        ("nan_similarity", 0, "has a similarity not finite and > 0"),
        ("nan_similarity", -1, "has a similarity not finite and > 0"),
        ("similarity_above_one", 0, "has a similarity above 1"),
        ("diagonal_entry", 0, "has a column at or below its row"),
    ])
    def test_error_names_the_failing_record(self, cli_cache, tmp_path, kind, entry, defect):
        _log, blob = cli_cache
        counts, lengths, j, s = cache_arrays(blob)
        k = next(k for k in range(len(lengths) // 2, len(lengths)) if lengths[k] >= 2)
        at = int(lengths[:k].sum()) + entry % int(lengths[k])  # the row's first or last entry
        if kind == "descending_columns":
            j[at - 1], j[at] = j[at], j[at - 1]
        elif kind == "diagonal_entry":
            j[at] = k
        else:
            s[at] = float("nan") if kind == "nan_similarity" else 1.5
        path = tmp_path / "bad.bin"
        path.write_bytes(cache_bytes(blob, counts, lengths, j, s))
        with pytest.raises(CacheFormatError, match=f"record {k} {defect}"):
            load_cache(str(path), blob[8:40].hex())

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_byte_mutations_raise_only_cache_errors(self, small_cache, tmp_path, data):
        digest, blob = small_cache
        out = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4))):
            out[data.draw(st.integers(0, len(out) - 1))] = data.draw(st.integers(0, 255))
        path = tmp_path / "mutated.bin"
        path.write_bytes(bytes(out))
        try:
            load_cache(str(path), digest)
        except (CacheFormatError, CacheMismatchError):
            pass

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_cli_names_the_error(self, cli_cache, tmp_path, capsys, kind):
        log, blob = cli_cache
        path = tmp_path / "bad.bin"
        path.write_bytes(corrupt_cache(blob, kind))
        code = main(analyze_with_cache(log, path, tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert error_class(err) == "CacheFormatError"

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cli_on_mutated_cache_exits_cleanly(self, cli_cache, tmp_path, capsys, data):
        log, blob = cli_cache
        out = bytearray(blob)
        # bias half the draws toward the header and the first records
        span = data.draw(st.sampled_from([256, len(out)]))
        for _ in range(data.draw(st.integers(1, 4))):
            out[data.draw(st.integers(0, span - 1))] = data.draw(st.integers(0, 255))
        path = tmp_path / "mutated.bin"
        path.write_bytes(bytes(out))
        code = main(analyze_with_cache(log, path, tmp_path))
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert error_class(err) in (
                "CacheFormatError", "CacheMismatchError",
            )
