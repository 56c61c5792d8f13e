"""Conversions between the library's array layouts and plain Python
values, for tests that state events as triples, profiles as lists of
(item, timestamp) pairs, similarity rows or scores as a map or ssnr
samples as rows; the one-call shortcuts only tests use: one
similarity, the one-pair ssnr and the split-build-evaluate pipeline; and
the class named by a CLI error line."""

import re
from typing import NamedTuple, Sequence

import numpy as np

from driftcf.dataset import Dataset, RatingLog
from driftcf.decay import DecaySpec
from driftcf.evaluation import EvalReport, evaluate_split, prepare_evaluation
from driftcf.recommender import ScoreVector
from driftcf.similarity import SimilarityModel
from driftcf.temporal import SsnrSamples


def error_class(err: str) -> str:
    """The exception class named by the last line of ``err``, the CLI's
    pipeline error line ``driftcf: error: <class>: <message>``."""
    last_line = err.strip().splitlines()[-1]
    return re.fullmatch(r"driftcf: error: (\w+): .*", last_line).group(1)


def rating_log(triples) -> RatingLog:
    """A RatingLog of (user, item, timestamp) ``triples``, in order."""
    triples = list(triples)
    return RatingLog.from_ids([t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples])


def log_triples(log: RatingLog) -> list[tuple[str, str, int]]:
    """The events of ``log`` as (user, item, timestamp) triples, in order."""
    users = [log.user_ids[u] for u in log.users.tolist()]
    items = [log.item_ids[i] for i in log.items.tolist()]
    return list(zip(users, items, log.timestamps.tolist()))


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


def _row(model: SimilarityModel, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i's column indices and values, sliced from the CSR arrays."""
    m = model.matrix
    lo, hi = m.indptr[i], m.indptr[i + 1]
    return m.indices[lo:hi], m.data[lo:hi]


def similarity_row(model: SimilarityModel, i: int) -> dict[int, float]:
    """Sparse row of item i; absent keys mean exactly zero."""
    idx, val = _row(model, i)
    return {int(j): float(s) for j, s in zip(idx, val)}


def similarity_value(model: SimilarityModel, i: int, j: int) -> float:
    """Single similarity s_ij (0.0 when not stored)."""
    idx, val = _row(model, i)
    pos = np.searchsorted(idx, j)
    if pos < len(idx) and idx[pos] == j:
        return float(val[pos])
    return 0.0


class DegenerateRatioError(ValueError):
    """A signal-to-noise ratio whose denominator vanished.

    ``kind`` is "degenerate_infinite" (zero denominator, positive
    numerator) or "isolated" (item with an empty similarity row), the keys
    of ``collect_ssnr_ages``'s exclusion tally.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def compute_ssnr(model: SimilarityModel, item: int, probe_item: int) -> float:
    """Signal-to-noise of ``item`` against ``probe_item``: the one-pair case
    of ``collect_ssnr_ages``, in the same float64 steps, so the same bits.
    Raises DegenerateRatioError when the denominator vanishes.
    """
    if item == probe_item:
        raise ValueError("ssnr is undefined for the probe item itself")
    s = similarity_value(model, item, probe_item)
    num = s * s
    denom = float(model.row_sq_sums[item]) - num
    if denom <= 0.0:
        if num > 0.0:
            raise DegenerateRatioError(
                "degenerate_infinite", f"item {item}: probe is its only similar item"
            )
        raise DegenerateRatioError("isolated", f"item {item}: empty similarity row")
    return num / denom


def evaluate(
    dataset: Dataset, spec: DecaySpec, n_list: Sequence[int] = (10, 20, 50)
) -> EvalReport:
    """Full pipeline: split, model, per-user scoring, aggregation."""
    train, probes, model = prepare_evaluation(dataset)
    return evaluate_split(train, probes, model, spec, n_list)


class SampleRow(NamedTuple):
    """One ssnr sample as a row."""

    age: int
    ssnr: float


def ssnr_samples(rows) -> SsnrSamples:
    """SsnrSamples holding ``rows`` of (age, ssnr), in order."""
    rows = list(rows)
    return SsnrSamples(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=float),
    )


def sample_rows(samples: SsnrSamples) -> list[SampleRow]:
    """The samples of ``samples`` as rows, in order."""
    return [SampleRow(int(a), float(v)) for a, v in zip(samples.ages, samples.ssnr)]
