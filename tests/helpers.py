"""Conversions between the library's array layouts and plain Python
values, for tests that state events as triples, profiles as lists of
(item, timestamp) pairs, scores as a map or ssnr samples as rows."""

from typing import NamedTuple

import numpy as np

from driftcf.dataset import Dataset, RatingLog
from driftcf.recommender import ScoreVector
from driftcf.temporal import SsnrSamples


def rating_log(triples) -> RatingLog:
    """A RatingLog of (user, item, timestamp) ``triples``, in order."""
    triples = list(triples)
    return RatingLog([t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples])


def log_triples(log: RatingLog) -> list[tuple[str, str, int]]:
    """The events of ``log`` as (user, item, timestamp) triples, in order."""
    return list(zip(log.users, log.items, log.timestamps.tolist()))


def dataset_from_profiles(user_ids, item_ids, profiles) -> Dataset:
    """A Dataset whose user k rates ``profiles[k]``, a list of (item index,
    timestamp) pairs, in the order given."""
    indptr = np.cumsum([0] + [len(p) for p in profiles])
    rows = np.array([pair for p in profiles for pair in p], dtype=np.int64).reshape(-1, 2)
    return Dataset(list(user_ids), list(item_ids), indptr, rows)


def profile_pairs(dataset: Dataset) -> list[list[tuple[int, int]]]:
    """Each user's profile of ``dataset`` as (item index, timestamp) pairs."""
    return [[tuple(pair) for pair in prof.tolist()] for prof in dataset.profiles]


def score_vector(scores: dict[int, float]) -> ScoreVector:
    """A ScoreVector holding ``scores``."""
    items = sorted(scores)
    return ScoreVector(np.array(items, dtype=np.int64), np.array([scores[j] for j in items], dtype=float))


def scores_dict(sv: ScoreVector) -> dict[int, float]:
    """The candidate scores of ``sv`` as a map."""
    return {int(j): float(f) for j, f in zip(sv.items, sv.scores)}


class SampleRow(NamedTuple):
    """One ssnr sample as a row."""

    user: int
    item: int
    age: int
    ssnr: float


def ssnr_samples(rows) -> SsnrSamples:
    """SsnrSamples holding ``rows`` of (user, item, age, ssnr), in order."""
    rows = list(rows)
    return SsnrSamples(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.int64),
        np.array([r[3] for r in rows], dtype=float),
    )


def sample_rows(samples: SsnrSamples) -> list[SampleRow]:
    """The samples of ``samples`` as rows, in order."""
    return [
        SampleRow(int(u), int(i), int(a), float(v))
        for u, i, a, v in zip(samples.users, samples.items, samples.ages, samples.ssnr)
    ]
