"""Time-weighted prediction scores and top-N recommendation lists.

A candidate item j is scored for user a at query time t_now by

    f_aj = sum over rated items i of  w(t_now - t_ai) * s_ij,

summed over the user's training profile.  Only items reachable through at
least one nonzero similarity are candidates; unreachable items score
exactly zero and are never ranked.  A profile's similarity rows do not
depend on the decay, so ``score_specs`` scores many specs from one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import TrainSet
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


def score_specs(
    train: TrainSet,
    model: SimilarityModel,
    user: int,
    t_now: int,
    specs: Sequence[DecaySpec],
) -> Iterator[ScoreVector]:
    """One ScoreVector per spec, in order, from one validation and one gather
    of the profile's similarity rows.  Raises ValueError for an unknown user,
    an empty training profile, or a query time before one of its ratings.
    """
    if not 0 <= user < train.n_users:
        raise ValueError(f"unknown user index {user} (have {train.n_users} users)")
    profile = train.profiles[user]
    if not profile:
        raise ValueError(f"user {user} has an empty training profile")
    latest = max(ts for _item, ts in profile)
    if t_now < latest:
        raise ValueError(f"query time {t_now} precedes a rating of user {user} at {latest}")

    prof_items = np.array([item for item, _ts in profile])
    ages = np.array([t_now - ts for _item, ts in profile], dtype=float)
    sub_t = model.matrix[prof_items].T
    reachable = np.asarray(sub_t.getnnz(axis=1)).ravel() > 0
    reachable[prof_items] = False
    candidates = np.flatnonzero(reachable)
    for spec in specs:
        totals = sub_t.dot(spec.weight(ages))
        yield ScoreVector(user, t_now, candidates, totals[candidates])


def score_items(
    train: TrainSet,
    model: SimilarityModel,
    user: int,
    t_now: int,
    spec: DecaySpec,
) -> ScoreVector:
    """Score all candidate items for ``user`` as of ``t_now`` under one spec;
    raises ValueError as ``score_specs`` does."""
    return next(score_specs(train, model, user, t_now, [spec]))


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
