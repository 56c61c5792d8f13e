"""Time-weighted prediction scores and top-N recommendation lists.

A candidate item j is scored for user a at query time t_now by

    f_aj = sum over rated items i of  w(t_now - t_ai) * s_ij,

summed over the user's training profile.  Only items reachable through at
least one nonzero similarity are candidates; unreachable items score
exactly zero and are never ranked.  A profile's similarity rows do not
depend on the decay, so ``probe_ranks`` ranks a probe under many specs
from one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

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

    user: int
    t_now: int
    items: np.ndarray
    scores: np.ndarray


def _gather(
    train: Dataset, model: SimilarityModel, user: int, t_now: int
) -> tuple[np.ndarray, np.ndarray, sp.csc_matrix]:
    """Validate a query and gather its profile: the profile's item indices,
    the ages of its ratings at ``t_now``, and the transposed similarity rows
    (items x profile, one column per rating in profile order), whose arrays
    are this thread's ``model.scratch`` buffers, overwritten by the next
    call.  Raises ValueError for an unknown user, an empty training profile,
    or a query time before one of its ratings or above 2**63 - 1.
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
    ages = (t_now - profile[:, 1]).astype(float)
    m = model.matrix
    lo, hi = m.indptr[prof_items].tolist(), m.indptr[prof_items + 1].tolist()
    sub_t = sp.csc_matrix((m.shape[1], len(lo)))
    sub_t.indptr = np.cumsum([0, *np.subtract(hi, lo)], dtype=np.intp)
    n = int(sub_t.indptr[-1])
    scratch = model.scratch
    if not hasattr(scratch, "data") or len(scratch.data) < n:
        scratch.indices, scratch.data = np.empty(2 * n, np.intp), np.empty(2 * n)
    sub_t.indices = np.concatenate([m.indices[a:b] for a, b in zip(lo, hi)], out=scratch.indices[:n])
    sub_t.data = np.concatenate([m.data[a:b] for a, b in zip(lo, hi)], out=scratch.data[:n])
    return prof_items, ages, sub_t


def score_items(
    train: Dataset,
    model: SimilarityModel,
    user: int,
    t_now: int,
    spec: DecaySpec,
) -> ScoreVector:
    """Score all candidate items for ``user`` as of ``t_now`` under one spec.

    Raises ValueError for an unknown user, an empty training profile, or a
    query time before one of its ratings or above 2**63 - 1.
    """
    prof_items, ages, sub_t = _gather(train, model, user, t_now)
    reachable = np.asarray(sub_t.getnnz(axis=1)).ravel() > 0
    reachable[prof_items] = False
    candidates = np.flatnonzero(reachable)
    totals = sub_t.dot(spec.weight(ages))
    return ScoreVector(user, t_now, candidates, totals[candidates])


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
    profile's similarity rows are gathered once and every spec is scored by
    one (items x P) @ (P x specs) product per chunk of ``SPEC_CHUNK`` specs,
    which adds each rating's column in profile order as ``score_items``
    does, so the scores agree bit for bit.  A probe outside the item range
    is unranked.  Raises ValueError as ``score_items`` does.
    """
    prof_items, ages, sub_t = _gather(train, model, user, t_now)
    ranks = np.zeros(len(specs), dtype=np.int64)
    if not 0 <= probe_item < model.n_items:
        return ranks
    for lo in range(0, len(specs), SPEC_CHUNK):
        chunk = specs[lo:lo + SPEC_CHUNK]
        weights = np.empty((len(ages), len(chunk)))
        for k, spec in enumerate(chunk):
            weights[:, k] = spec.weight(ages)
        scores = sub_t @ weights
        # the user's own items are never candidates; unreachable ones score 0
        scores[prof_items] = 0.0
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
