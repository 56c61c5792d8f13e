"""Sparse item-item cosine similarity over binary implicit ratings.

For binary ratings the cosine of items i and j reduces to
``s_ij = c_ij / sqrt(n_i * n_j)`` where ``c_ij`` counts users who rated
both and ``n_i`` counts users who rated i.  Only nonzero entries are
stored; the diagonal never is.  Rows are complete (no shrinkage,
thresholding, or top-k truncation), because downstream signal-to-noise
denominators sum over entire rows.

Co-rating counts are accumulated through user profiles (cost proportional
to the sum of squared profile lengths), realized as the sparse product
R^T R of the binary user-item matrix, whose CSR arrays are the training
set's own ``indptr`` and item column.  scipy's compiled ``_sparsetools``
kernels form it a block of item rows at a time: the rater counts are
subtracted from the diagonal inside the product, so it is never stored,
and each block is sorted by two counting transposes, scaled to cosines
and written straight into the model's arrays, at the offset that a
symbolic pass over every block fixed beforehand.  The blocks are spread
over one thread per CPU the process may run on (``_in_threads``), each
with scratch buffers of its own; every entry gets the same arithmetic
whichever thread forms it, so the model does not depend on the thread
count.  A block holds at most ``BLOCK_ENTRIES`` entries, or n_items if
that is larger, so a build holds the model plus one block per thread, and
the blocks' fixed O(n_items) costs stay within the product's own cost.
The finished model is immutable and safe for concurrent reads.  Its binary
cache stores each pair once, in the strict upper triangle U; a load returns
U + U^T, so the loaded model is symmetric by construction.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .atomic import atomic_open
from .dataset import Dataset

_CACHE_MAGIC = b"DCFSIM"
_CACHE_VERSION = 4
# Cache layout, little-endian; save_cache and load_cache both read it here.
# magic, version, training-set SHA-256, item count, entry count
_HEADER = struct.Struct("<6sH32sIQ")
# after the header: user counts and row lengths (one per item), then column
# indices and similarities of the strict upper triangle, rows in item order
_BLOCKS = ("<u4", "<u4", "<u4", "<f8")

# build_similarity rounds s_ij = c_ij * (1/sqrt(n_i) * 1/sqrt(n_j)) in six
# steps, so two items rated by the same users can get 1 + 2**-52; the
# largest similarity load_cache accepts covers every rounding of those steps.
MAX_SIMILARITY = 1 + 4 * 2.0**-52

# build_similarity forms the product a block of item rows at a time, in
# scratch buffers reused from block to block, each block holding rows whose
# entries are bounded by this many (or by the item count, if larger).
BLOCK_ENTRIES = 2**15

# row_sq_sums squares at most this many entries at a time (or one row, if
# longer), so its temporary stays small however large the model.
SQ_SUM_ENTRIES = 2**20


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _in_threads(n_tasks: int, share: Callable[[Iterator[int]], object]) -> list:
    """Run tasks 0 .. n_tasks - 1 on T = min(CPUs, n_tasks) threads, the
    calling one among them; returns the T results of ``share`` in order.

    ``share`` is called once per thread k with an iterator over the tasks
    k, k + T, k + 2T, ...; it does those tasks and returns what the caller
    combines.  Once any share raises, or an interrupt arrives, every
    iterator stops before its next task; the first error is raised after
    every thread has ended.
    """
    n = max(1, min(_cpu_count(), n_tasks))
    stop = threading.Event()
    results = [None] * n
    errors: list[BaseException] = []

    def tasks(k: int) -> Iterator[int]:
        for task in range(k, n_tasks, n):
            if stop.is_set():
                return
            yield task

    def run(k: int) -> None:
        try:
            results[k] = share(tasks(k))
        except BaseException as exc:  # re-raised below, in the calling thread
            errors.append(exc)
            stop.set()

    started: list[threading.Thread] = []
    try:
        for k in range(1, n):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        run(0)
        for thread in started:
            thread.join()
    except BaseException:  # an interrupt while starting or joining
        stop.set()
        for thread in started:
            thread.join()
        raise
    if errors:
        raise errors[0]
    return results


class CacheFormatError(ValueError):
    """Raised when a similarity cache file is malformed."""


class CacheMismatchError(ValueError):
    """Raised when a cache was built from a different training set."""


@dataclass
class SimilarityModel:
    """Symmetric sparse similarity matrix and per-item rater counts.

    ``matrix`` is items x items canonical CSR (sorted, no duplicate) with no
    diagonal entry; ``user_counts[i]`` counts the users who rated i.
    """

    matrix: sp.csr_matrix
    user_counts: np.ndarray

    @cached_property
    def row_sq_sums(self) -> np.ndarray:
        """Each row's sum of squared entries in stored order, computed on the
        first read (racing first reads compute equal arrays); exactly 0 for an
        empty row, where reduceat alone gives the next row's first.  Whole
        rows are squared ``SQ_SUM_ENTRIES`` entries at a time, and each row
        is summed by one reduceat segment, as over the whole array at once."""
        m = self.matrix
        indptr = m.indptr
        sums = np.zeros(m.shape[0])
        lo = 0
        while lo < m.shape[0]:
            # rows lo .. hi - 1 hold at most SQ_SUM_ENTRIES entries, or are one row
            start = int(indptr[lo])
            hi = max(int(np.searchsorted(indptr, start + SQ_SUM_ENTRIES, side="right")) - 1, lo + 1)
            rows = lo + np.flatnonzero(np.diff(indptr[lo:hi + 1]))
            if len(rows):
                chunk = m.data[start:indptr[hi]]
                sums[rows] = np.add.reduceat(chunk * chunk, indptr[rows] - start)
            lo = hi
        return sums

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    @property
    def stored_entries(self) -> int:
        return self.matrix.nnz


def _check_pairing(model: SimilarityModel, train: Dataset) -> None:
    """Refuse a model whose item count is not the training set's: its readers
    index it by the training set's items, and the kernels check no bounds."""
    if model.n_items != train.n_items:
        raise ValueError(f"the model has {model.n_items} items, the training set {train.n_items}")


def build_similarity(train: Dataset) -> SimilarityModel:
    """Build the item-item cosine model from a training set.

    Raises ValueError for an empty training set and one in which a user
    rates an item twice.  The kernels below check no bounds: they trust the
    ``indptr`` and item column that ``Dataset`` checked.
    """
    if train.n_ratings == 0:
        raise ValueError("cannot build similarity model from an empty training set")
    n_users, n_items, n_ratings = train.n_users, train.n_items, train.n_ratings
    # R^T R - diag(counts) is the product A B of B = [R; -diag(counts)] and
    # A = [R^T | I], B's pattern transposed with ones: the diagonal sums to
    # exactly 0, which csr_matmat does not store, and every other sum is a
    # positive co-count.  R as CSR is the training set's indptr and item column.
    b_indptr = np.concatenate((train.indptr, n_ratings + np.arange(1, n_items + 1)))
    b_indices = np.concatenate((train.ratings[:, 0], np.arange(n_items)))
    a_indptr, a_indices = np.empty(n_items + 1, np.int64), np.empty_like(b_indices)
    a_data, b_data = np.ones(len(b_indices)), np.ones(len(b_indices))
    # A as CSR is B's CSC arrays: each item's raters in ascending order, then
    # the item's own row of B
    _sparsetools.csr_tocsc(
        n_users + n_items, n_items, b_indptr, b_indices, b_data, a_indptr, a_indices, a_data
    )
    # a repeated rating would leave a diagonal sum that is not 0, stored past
    # its block's entry count below; equal neighbours in A can only be one
    if np.any(a_indices[1:] == a_indices[:-1]):
        raise ValueError("training set holds one user's rating of an item twice")
    counts = np.diff(a_indptr) - 1
    b_data[n_ratings:] = -counts
    cuts = _row_blocks(a_indptr, a_indices, b_indptr)
    # each block's entries, from a symbolic count that includes every
    # diagonal entry; their running sum places each block in the model
    sizes = [
        _sparsetools.csr_matmat_maxnnz(
            hi - lo, n_items, a_indptr[lo:hi + 1], a_indices, b_indptr, b_indices
        ) - (hi - lo)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    offsets = list(itertools.accumulate(sizes, initial=0))
    nnz = offsets[-1]
    # one index dtype holds every index array, the model's included, as the
    # kernels take one and do no bounds checks
    idx = np.int64 if max(nnz, len(b_indices), n_users + n_items) >= 2**31 else np.int32
    a_indptr, a_indices, b_indptr, b_indices = (
        a.astype(idx, copy=False) for a in (a_indptr, a_indices, b_indptr, b_indices)
    )
    inv_sqrt = np.divide(1.0, np.sqrt(counts), out=np.zeros(n_items), where=counts > 0)
    indptr, indices, data = np.zeros(n_items + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    max_rows, max_entries = max(np.diff(cuts)), max(sizes)

    def fill(blocks: Iterator[int]) -> None:
        # this thread's block of product rows and their transpose
        bp, bj = np.empty(max_rows + 1, idx), np.empty(max_entries, idx)
        bx = np.empty(max_entries)
        tp, tj, tx = np.empty(n_items + 1, idx), np.empty_like(bj), np.empty_like(bx)
        for b in blocks:
            lo, hi, start, end = cuts[b], cuts[b + 1], offsets[b], offsets[b + 1]
            _sparsetools.csr_matmat(
                hi - lo, n_items, a_indptr[lo:hi + 1], a_indices, a_data,
                b_indptr, b_indices, b_data, bp, bj, bx,
            )
            j, s = indices[start:end], data[start:end]
            # transposing twice sorts every row's columns; the second writes
            # the block's rows into the model's arrays
            _sparsetools.csr_tocsc(hi - lo, n_items, bp, bj, bx, tp, tj, tx)
            _sparsetools.csr_tocsc(n_items, hi - lo, tp, tj, tx, bp, j, s)
            indptr[lo + 1:hi + 1] = start + bp[1:hi - lo + 1]
            # s_ij = c_ij * (1/sqrt(n_j) * 1/sqrt(n_i)): the two scale factors
            # first, so s_ij == s_ji bit for bit; tx is free to hold them
            f = np.take(inv_sqrt, j, out=tx[:len(j)], mode="clip")
            _sparsetools.csr_scale_rows(hi - lo, n_items, bp, j, f, inv_sqrt[lo:hi])
            s *= f

    _in_threads(len(cuts) - 1, fill)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n_items, n_items))
    return SimilarityModel(matrix, counts)


def _row_blocks(a_indptr: np.ndarray, a_indices: np.ndarray, b_indptr: np.ndarray) -> list[int]:
    """Cut the rows of the product A B into blocks for build_similarity;
    returns the cut points, 0 first and the item count last.

    Row i of the product holds at most n_items entries, and at most one per
    entry of the B rows it sums (its raters' profiles and its own row).
    Besides its entries a block costs O(n_items) (the product's dense
    accumulator, the transposes' pass over every column), so a block takes
    rows while their bounds add up to ``BLOCK_ENTRIES`` or n_items, whichever
    is larger: the blocks' fixed costs then add up to at most twice the
    bounds plus n_items.
    """
    n_items = len(a_indptr) - 1
    bound = np.minimum(np.add.reduceat(np.diff(b_indptr)[a_indices], a_indptr[:-1]), n_items)
    budget, ends, cuts = max(BLOCK_ENTRIES, n_items), np.cumsum(bound), [0]
    while cuts[-1] < n_items:
        done = ends[cuts[-1] - 1] if cuts[-1] else 0
        # every bound is at most the budget, so each block takes a row
        cuts.append(int(np.searchsorted(ends, done + budget, side="right")))
    return cuts


def save_cache(model: SimilarityModel, path: str, dataset_hash: str) -> None:
    """Write a binary cache of the model, keyed by the training set hash.

    ``model`` must be as ``build_similarity`` returns it: symmetric, with no
    diagonal entry.  Layout: a header (magic, version, SHA-256 digest, item
    count, entry count), then the user counts and the strict upper triangle's
    row lengths, column indices and similarities.  The file appears atomically.
    """
    digest = bytes.fromhex(dataset_hash)
    if len(digest) != 32:
        raise ValueError("dataset_hash must be a 64-character hex SHA-256")
    m = model.matrix
    row = np.repeat(np.arange(model.n_items, dtype=m.indices.dtype), np.diff(m.indptr))
    upper = m.indices > row
    row = row[upper]
    lengths = np.diff(np.searchsorted(row, np.arange(model.n_items + 1, dtype=row.dtype)))
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, digest, model.n_items, len(row)))
        fh.write(np.ascontiguousarray(model.user_counts, dtype=_BLOCKS[0]))
        fh.write(np.ascontiguousarray(lengths, dtype=_BLOCKS[1]))
        # one entry array's upper-triangle copy at a time
        for dtype, arr in zip(_BLOCKS[2:], (m.indices, m.data)):
            fh.write(np.ascontiguousarray(arr[upper], dtype=dtype))


def load_cache(path: str, dataset_hash: str) -> SimilarityModel:
    """Load a cached model, refusing one built from a different dataset.

    The file holds the strict upper triangle U and the model is U + U^T, so
    s_ip reads as s_pi.  Raises CacheFormatError for a malformed file:
    truncated or trailing bytes, row lengths that do not add up to the entry
    count, a row whose columns are not strictly increasing from above its
    own item to below the item count, or a similarity that is not finite and
    positive or exceeds 1 by more than rounding (``MAX_SIMILARITY``).  An
    error in item k's row names it as record k.
    """
    counts, indptr, indices, data = _read_cache(path, dataset_hash)
    _check_entries(path, indptr, indices, data)
    # U is checked canonical and strictly upper, so the sum copies each entry
    upper = sp.csr_matrix((data, indices, indptr), shape=(len(counts),) * 2)
    return SimilarityModel(upper + upper.T, counts)


def _read_cache(
    path: str, dataset_hash: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check a cache file's header, length and row lengths; returns the user
    counts and the CSR indptr, indices and data it holds, copied out of the
    file buffer, which is freed on return.  The entries themselves are left
    to ``_check_entries``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_CACHE_MAGIC):
        raise CacheFormatError(f"{path}: not a similarity cache")
    if len(blob) < _HEADER.size:
        raise CacheFormatError(f"{path}: truncated cache header")
    _magic, version, digest, n_items, nnz = _HEADER.unpack_from(blob)
    if version != _CACHE_VERSION:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    if digest.hex() != dataset_hash:
        raise CacheMismatchError(
            f"{path}: cache was built from a different training set "
            f"(cache {digest.hex()[:12]}..., expected {dataset_hash[:12]}...)"
        )
    # the header's counts size everything allocated below, so check them first
    body, size = len(blob) - _HEADER.size, 8 * n_items + 12 * nnz
    if body < size:
        raise CacheFormatError(f"{path}: truncated cache ({n_items} items, {nnz} entries declared)")
    if body > size:
        raise CacheFormatError(f"{path}: trailing bytes after the last entry")

    blocks, off = [], _HEADER.size
    for dtype, count in zip(_BLOCKS, (n_items, n_items, nnz, nnz)):
        blocks.append(np.frombuffer(blob, dtype=dtype, count=count, offset=off))
        off += blocks[-1].nbytes
    counts, lengths, j, s = blocks
    indptr = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=indptr[1:])
    if indptr[-1] != nnz:
        raise CacheFormatError(f"{path}: row lengths add up to {indptr[-1]}, not {nnz} entries")
    return counts.astype(np.int64), indptr, j.astype(np.int32), s.astype(np.float64)


def _check_entries(path: str, indptr: np.ndarray, j: np.ndarray, s: np.ndarray) -> None:
    """Check every cache entry at once; a CacheFormatError names the first
    failing record and, within it, the first failing check in the order
    column order, column above its row, value."""
    n_items = len(indptr) - 1
    starts = indptr[:-1]
    not_increasing = np.zeros(len(j), dtype=bool)
    np.less_equal(j[1:], j[:-1], out=not_increasing[1:])
    not_increasing[starts[starts < len(j)]] = False  # a record's first entry
    row_of = np.repeat(np.arange(n_items, dtype=j.dtype), np.diff(indptr))
    checks = (
        # a column index of 2**31 or more reads as negative here
        (not_increasing | (j < 0) | (j >= n_items),
         f"column indices are not strictly increasing below {n_items}"),
        (j <= row_of, "has a column at or below its row"),
        # a nan similarity would make every probe it touches rank first
        (~(np.isfinite(s) & (s > 0)), "has a similarity not finite and > 0"),
        (s > MAX_SIMILARITY, "has a similarity above 1"),
    )
    failures = [
        (int(np.searchsorted(indptr, np.argmax(bad), side="right")) - 1, order, message)
        for order, (bad, message) in enumerate(checks)
        if bad.any()
    ]
    if failures:
        k, _order, message = min(failures)
        raise CacheFormatError(f"{path}: record {k} {message}")
