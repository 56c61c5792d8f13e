"""Conversions between ScoreVector and {item: score} maps, for tests that
state scores as a map."""

import numpy as np

from driftcf.recommender import ScoreVector


def score_vector(scores: dict[int, float], user: int = 0, t_now: int = 0) -> ScoreVector:
    """A ScoreVector holding ``scores``."""
    items = sorted(scores)
    return ScoreVector(
        user, t_now, np.array(items, dtype=np.int64), np.array([scores[j] for j in items], dtype=float)
    )


def scores_dict(sv: ScoreVector) -> dict[int, float]:
    """The candidate scores of ``sv`` as a map."""
    return {int(j): float(f) for j, f in zip(sv.items, sv.scores)}
