"""Time-weighted prediction scores and top-N recommendation lists.

A candidate item j is scored for user a at query time t_now by

    f_aj = sum over rated items i of  w(t_now - t_ai) * s_ij,

summed over the user's training profile.  A candidate is an item outside
the profile whose score is nonzero; every other item scores exactly zero
and is never ranked.  A profile's similarity rows do not depend on the
decay, so ``probe_ranks`` ranks a probe under many specs from one gather,
and ``score_items`` is the one-spec case of the same score block.  The
gathers and sums run in scipy's private compiled ``_sparsetools``
kernels, which add the terms in profile order; no other module calls
them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import _sparsetools

from .dataset import MAX_TIMESTAMP, Dataset
from .decay import DecaySpec
from .similarity import SimilarityModel


@dataclass(eq=False)
class ScoreVector:
    """Candidate scores for one user at one query time.

    ``items`` holds the candidate item indices in ascending order and
    ``scores`` their scores, a parallel float64 array; items absent from
    ``items`` (including the user's own profile) score exactly zero.
    """

    items: np.ndarray
    scores: np.ndarray


# Per-thread row-gather buffers that scoring reuses from one query to the
# next: a fresh block per query faults in every page it touches whenever
# the allocator maps it anew, as glibc does above its mmap threshold.
_scratch = threading.local()


def _gather(
    train: Dataset, model: SimilarityModel, user: int, t_now: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Validate a query and gather its profile: the profile's item indices,
    the ages of its ratings at ``t_now``, and the transposed similarity rows
    as the CSC arrays ``(indptr, indices, data)`` of an items x profile
    matrix, one column per rating in profile order.  One ``csr_row_index``
    call copies the rows into this thread's ``_scratch`` buffers, kept in
    the matrix's index dtype and overwritten by the next call.  Raises
    ValueError for an unknown user, an empty training profile, a profile
    item outside the model, or a query time before one of its ratings or
    above 2**63 - 1.
    """
    if not 0 <= user < train.n_users:
        raise ValueError(f"unknown user index {user} (have {train.n_users} users)")
    profile = train.ratings[train.indptr[user]:train.indptr[user + 1]]
    if not len(profile):
        raise ValueError(f"user {user} has an empty training profile")
    latest = int(profile[:, 1].max())
    if t_now < latest:
        raise ValueError(f"query time {t_now} precedes a rating of user {user} at {latest}")
    if t_now > MAX_TIMESTAMP:
        raise ValueError(f"query time {t_now} exceeds 2**63 - 1")
    prof_items = profile[:, 0]
    # the kernels index without bounds checks
    outside = prof_items[(prof_items < 0) | (prof_items >= model.n_items)]
    if len(outside):
        raise ValueError(
            f"user {user} rated item {outside[0]}, outside the model's {model.n_items} items"
        )
    ages = (t_now - profile[:, 1]).astype(float)
    m = model.matrix
    rows = prof_items.astype(m.indices.dtype)
    indptr = np.zeros(len(rows) + 1, m.indices.dtype)
    np.cumsum(m.indptr[rows + 1] - m.indptr[rows], out=indptr[1:])
    n = int(indptr[-1])
    fits = hasattr(_scratch, "data") and len(_scratch.data) >= n
    if not fits or _scratch.indices.dtype != indptr.dtype:
        _scratch.indices, _scratch.data = np.empty(2 * n, indptr.dtype), np.empty(2 * n)
    indices, data = _scratch.indices[:n], _scratch.data[:n]
    _sparsetools.csr_row_index(len(rows), rows, m.indptr, m.indices, m.data, indices, data)
    return prof_items, ages, (indptr, indices, data)


def _scores(gathered, prof_items, ages, specs: Sequence[DecaySpec], n_items: int) -> np.ndarray:
    """The n_items x L score block of L specs: the gathered rows times the
    P x L weight block of the profile's ages, each rating's column added in
    profile order by ``csc_matvec`` (one spec) or ``csc_matvecs`` (several;
    one column of it gives the same bits at half the speed).  The profile's
    own items are zeroed, as they are never candidates."""
    weights = np.empty((len(ages), len(specs)))
    for k, spec in enumerate(specs):
        weights[:, k] = spec.weight(ages)
    out = np.zeros((n_items, len(specs)))
    arrays = (*gathered, weights.ravel(), out.ravel())
    if len(specs) == 1:
        _sparsetools.csc_matvec(n_items, len(ages), *arrays)
    else:
        _sparsetools.csc_matvecs(n_items, len(ages), len(specs), *arrays)
    out[prof_items] = 0.0
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
    ValueError as ``_gather`` does.
    """
    prof_items, ages, gathered = _gather(train, model, user, t_now)
    scores = _scores(gathered, prof_items, ages, [spec], model.n_items)[:, 0]
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

    Equal to ``probe_rank(score_items(...))`` per spec, with None as 0: the
    profile's similarity rows are gathered once and scored by the same
    ``_scores`` block as ``score_items``, one chunk of ``SPEC_CHUNK`` specs
    at a time, so the scores agree bit for bit.  A probe outside the item
    range is unranked.  Raises ValueError as ``score_items`` does.
    """
    prof_items, ages, gathered = _gather(train, model, user, t_now)
    ranks = np.zeros(len(specs), dtype=np.int64)
    if not 0 <= probe_item < model.n_items:
        return ranks
    for lo in range(0, len(specs), SPEC_CHUNK):
        chunk = specs[lo:lo + SPEC_CHUNK]
        scores = _scores(gathered, prof_items, ages, chunk, model.n_items)
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
