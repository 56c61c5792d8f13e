"""Time-weighted prediction scores and top-N recommendation lists.

A candidate item j is scored for user a at query time t_now by

    f_aj = sum over rated items i of  w(t_now - t_ai) * s_ij,

summed over the user's training profile.  A candidate is an item outside
the profile whose score is nonzero; every other item scores exactly zero
and is never ranked.  The sums run in scipy's private compiled
``_sparsetools`` kernels, which add the terms in profile order; the
similarity build is their only other caller.  One spec (``score_items``,
and ``probe_ranks`` with one spec) is one ``csr_matmat`` call that reads
the model's own rows, with nothing copied.  A profile's similarity rows
do not depend on the decay, so several specs share one ``csr_row_index``
gather of them, which ``csc_matvecs`` then multiplies by a block of
weights.  Both kernels give every nonzero score the same bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import _sparsetools

from .dataset import Dataset, _query_profile
from .decay import DecaySpec
from .similarity import SimilarityModel, _check_pairing


@dataclass(eq=False)
class ScoreVector:
    """Candidate scores for one user at one query time.

    ``items`` holds the candidate item indices in ascending order and
    ``scores`` their scores, a parallel float64 array; items absent from
    ``items`` (including the user's own profile) score exactly zero.
    """

    items: np.ndarray
    scores: np.ndarray


# Per-thread row-gather buffers that several-spec scoring reuses from one
# query to the next: a fresh block per query faults in every page it
# touches whenever the allocator maps it anew, as glibc does above its mmap
# threshold.
_scratch = threading.local()


def _check_query(
    train: Dataset, model: SimilarityModel, user: int, t_now: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a query; returns its profile's item indices, in the model's
    index dtype, and the ages of its ratings at ``t_now``.  Raises
    ValueError first for a model whose item count differs from the training
    set's, then as ``dataset._query_profile`` does.
    """
    _check_pairing(model, train)
    profile = _query_profile(train, user, t_now)
    return profile[:, 0].astype(model.matrix.indices.dtype), (t_now - profile[:, 1]).astype(float)


def _gather(model: SimilarityModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profile's similarity rows, transposed, as the CSC arrays
    ``(indptr, indices, data)`` of an items x profile matrix, one column
    per rating in profile order.  One ``csr_row_index`` call copies the
    rows into this thread's ``_scratch`` buffers, kept in the matrix's
    index dtype and overwritten by the next call.
    """
    m = model.matrix
    indptr = np.zeros(len(rows) + 1, rows.dtype)
    np.cumsum(m.indptr[rows + 1] - m.indptr[rows], out=indptr[1:])
    n = int(indptr[-1])
    fits = hasattr(_scratch, "data") and len(_scratch.data) >= n
    if not fits or _scratch.indices.dtype != indptr.dtype:
        _scratch.indices, _scratch.data = np.empty(2 * n, indptr.dtype), np.empty(2 * n)
    indices, data = _scratch.indices[:n], _scratch.data[:n]
    _sparsetools.csr_row_index(len(rows), rows, m.indptr, m.indices, m.data, indices, data)
    return indptr, indices, data


def _scores(
    model: SimilarityModel,
    rows: np.ndarray,
    ages: np.ndarray,
    specs: Sequence[DecaySpec],
    gathered: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The n_items x L score block of L specs: the profile's similarity rows
    times the P x L weight block of its ages.  Without ``gathered`` (one
    spec), ``csr_matmat`` multiplies the weights, as one row with the
    profile's items as columns, by the model's own CSR arrays and returns
    the sums that are not zero; with it, ``csc_matvecs`` multiplies the
    gathered columns.  Both add ``w_k * s_kj`` into item j's sum rating by
    rating in profile order, starting from 0, so every nonzero score has
    the same bits either way.  The profile's own items are zeroed, as they
    are never candidates."""
    weights = np.empty((len(ages), len(specs)))
    for k, spec in enumerate(specs):
        weights[:, k] = spec.weight(ages)
    n_items = model.n_items
    out = np.zeros((n_items, len(specs)))
    if gathered is None:
        # the product row's nonzero sums land in (cols, sums), unordered,
        # and their count in indptr[1]; one row holds at most n_items
        m, idx = model.matrix, rows.dtype
        indptr, cols, sums = np.empty(2, idx), np.empty(n_items, idx), np.empty(n_items)
        _sparsetools.csr_matmat(
            1, n_items, np.array([0, len(rows)], idx), rows, weights.ravel(),
            m.indptr, m.indices, m.data, indptr, cols, sums,
        )
        n = indptr[1]
        out[cols[:n], 0] = sums[:n]
    else:
        _sparsetools.csc_matvecs(n_items, len(ages), len(specs), *gathered, weights.ravel(), out.ravel())
    out[rows] = 0.0
    return out


def score_items(
    train: Dataset,
    model: SimilarityModel,
    user: int,
    t_now: int,
    spec: DecaySpec,
) -> ScoreVector:
    """Score all candidate items for ``user`` as of ``t_now`` under one spec.

    The candidates are the items whose score is nonzero; the rest score
    exactly 0 and can be neither recommended nor ranked.  Raises
    ValueError as ``_check_query`` does.
    """
    rows, ages = _check_query(train, model, user, t_now)
    scores = _scores(model, rows, ages, [spec])[:, 0]
    candidates = np.flatnonzero(scores)
    return ScoreVector(candidates, scores[candidates])


# Specs scored per product in probe_ranks; bounds the dense items x chunk
# score block whatever the number of specs.
SPEC_CHUNK = 64


def probe_ranks(
    train: Dataset,
    model: SimilarityModel,
    user: int,
    t_now: int,
    probe_item: int,
    specs: Sequence[DecaySpec],
) -> np.ndarray:
    """The probe's rank under each spec, as int64, 0 where it is unranked.

    Equal to ``probe_rank(score_items(...))`` per spec, with None as 0:
    the scores come from the same ``_scores`` block, so they agree bit for
    bit.  One spec is scored straight from the model's rows, as in
    ``score_items``; several share one gather of the profile's rows,
    scored one chunk of ``SPEC_CHUNK`` specs at a time.  A probe outside
    the item range is unranked.  Raises ValueError as ``score_items`` does.
    """
    rows, ages = _check_query(train, model, user, t_now)
    ranks = np.zeros(len(specs), dtype=np.int64)
    if not 0 <= probe_item < model.n_items:
        return ranks
    gathered = _gather(model, rows) if len(specs) > 1 else None
    for lo in range(0, len(specs), SPEC_CHUNK):
        chunk = specs[lo:lo + SPEC_CHUNK]
        scores = _scores(model, rows, ages, chunk, gathered)
        p = scores[probe_item]
        ahead = np.count_nonzero(scores > p, axis=0)
        ahead += np.count_nonzero(scores[:probe_item] == p, axis=0)
        ranks[lo:lo + len(chunk)] = np.where(p > 0, ahead + 1, 0)
    return ranks


def top_n(score_vector: ScoreVector, n: int) -> list[tuple[int, float]]:
    """The n highest-scoring candidates, fewer if fewer score above zero.

    Ordered by score descending, ties by item index ascending; identical
    to sorting all positive-score candidates and truncating.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    positive = score_vector.scores > 0
    items, scores = score_vector.items[positive], score_vector.scores[positive]
    if len(scores) > n:
        # only the scores at or above the n-th largest, ties included, can rank
        kth = np.partition(scores, len(scores) - n)[len(scores) - n]
        above = scores >= kth
        items, scores = items[above], scores[above]
    order = np.lexsort((items, -scores))[:n]
    return [(int(j), float(f)) for j, f in zip(items[order], scores[order])]


def probe_rank(score_vector: ScoreVector, probe_item: int) -> int | None:
    """1-based rank the probe would take in a full recommendation list.

    None when the probe is not a candidate or does not score above zero
    (NaN included).  Consistent with top_n: the probe is in the top-N
    exactly when rank <= N.
    """
    s, items = score_vector.scores, score_vector.items
    p = s[items == probe_item]
    if not (p.size and p[0] > 0):
        return None
    return int(np.count_nonzero((s > p[0]) | ((s == p[0]) & (items < probe_item)))) + 1
