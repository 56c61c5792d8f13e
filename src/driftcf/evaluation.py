"""Leave-the-latest-out evaluation, hit-rate, and parameter sweeps.

Each user's held-out latest rating is the probe; its timestamp is the
moment the recommendation is made.  The split and the similarity model
are built once and shared by all users and all sweep points.  Hit-rate at
search depth N is

    H@N = (1 / |U_eval|) * sum over users of h(probe, N) / N,

with h = 1 when the probe appears in the user's top-N list.  Note the
division by N inside the sum; a plain hit fraction (hits / |U_eval|) is
reported alongside for comparison with conventions that omit it.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import Dataset, ProbeSet, TrainSet, split_leave_latest
from .decay import FAMILIES, DecaySpec, family_class, format_decay, sweep_ranges
from .recommender import probe_rank, score_items
from .similarity import SimilarityModel, build_similarity


@dataclass(frozen=True)
class DepthResult:
    """Hit statistics at one search depth."""

    n: int
    hits: int
    hit_rate: float
    hit_fraction: float


@dataclass
class EvalReport:
    decay: str
    evaluated_users: int
    wall_time_s: float
    results: list[DepthResult]

    def at(self, n: int) -> DepthResult:
        for r in self.results:
            if r.n == n:
                return r
        raise KeyError(f"no result at depth {n}")


def hit_rate(flags: Sequence[bool], n: int) -> float:
    """Depth-normalized hit-rate of per-user hit flags."""
    if n < 1:
        raise ValueError(f"search depth must be at least 1, got {n}")
    if len(flags) == 0:
        raise ValueError("hit rate is undefined for an empty user set")
    return sum(flags) / (len(flags) * n)


def prepare_evaluation(dataset: Dataset) -> tuple[TrainSet, ProbeSet, SimilarityModel]:
    """One global split and one similarity model, shared by all users."""
    train, probes = split_leave_latest(dataset)
    model = build_similarity(train)
    return train, probes, model


def evaluate_split(
    train: TrainSet,
    probes: ProbeSet,
    model: SimilarityModel,
    spec: DecaySpec,
    n_list: Sequence[int] = (10, 20, 50),
) -> EvalReport:
    """Evaluate one decay spec against an existing split and model."""
    depths = list(n_list)
    for n in depths:
        if n < 1:
            raise ValueError(f"search depth must be at least 1, got {n}")
    users = probes.evaluated_users
    if not users:
        raise ValueError("no evaluable users: every profile has fewer than 2 ratings")
    started = time.perf_counter()
    hits = dict.fromkeys(depths, 0)
    for u in users:
        probe_item, probe_time = probes.probes[u]
        scores = score_items(train, model, u, probe_time, spec)
        rank = probe_rank(scores, probe_item)
        if rank is not None:
            for n in depths:
                if rank <= n:
                    hits[n] += 1
    count = len(users)
    results = [
        DepthResult(n, hits[n], hits[n] / (count * n), hits[n] / count) for n in depths
    ]
    return EvalReport(format_decay(spec), count, time.perf_counter() - started, results)


def evaluate(
    dataset: Dataset, spec: DecaySpec, n_list: Sequence[int] = (10, 20, 50)
) -> EvalReport:
    """Full pipeline: split, model, per-user scoring, aggregation."""
    train, probes, model = prepare_evaluation(dataset)
    return evaluate_split(train, probes, model, spec, n_list)


ALL_FAMILIES = tuple(FAMILIES)

DEFAULT_POINTS_PER_PARAM = 10


@dataclass
class ParamGrid:
    """Grid points per decay family, ``family -> param -> values``.

    Piecewise points with t_s > t_l are filtered out during enumeration,
    so every emitted point satisfies the decay spec invariants.
    """

    values: dict[str, dict[str, list[float]]]

    @classmethod
    def default(
        cls,
        families: Sequence[str] = ALL_FAMILIES,
        points_per_param: int = DEFAULT_POINTS_PER_PARAM,
    ) -> "ParamGrid":
        """Geometric grids over each family's default sweep ranges, which
        resolve the decade-spanning time scales."""
        return cls({
            family: {
                name: [float(x) for x in np.geomspace(lo, hi, points_per_param)]
                for name, (lo, hi) in sweep_ranges(family_class(family)).items()
            }
            for family in families
        })

    def specs(self) -> Iterator[tuple[str, dict[str, float], DecaySpec]]:
        """All grid points in deterministic enumeration order."""
        for family, params in self.values.items():
            spec_class = family_class(family)
            names = list(params)
            for combo in itertools.product(*(params[name] for name in names)):
                point = dict(zip(names, combo))
                if family == "piecewise" and point["t_s"] > point["t_l"]:
                    continue
                yield family, point, spec_class(**point)

    def size(self) -> int:
        return sum(1 for _ in self.specs())


@dataclass
class SweepResult:
    best_spec: DecaySpec
    best_row: dict
    rows: list[dict]
    objective_n: int

    def best_per_family(self) -> dict[str, dict]:
        best: dict[str, dict] = {}
        for row in self.rows:
            family = row["family"]
            current = best.get(family)
            if current is None or row["hit_rate"][self.objective_n] > current["hit_rate"][self.objective_n]:
                best[family] = row
        return best


def grid_sweep(
    dataset: Dataset,
    grid: ParamGrid,
    objective_n: int = 10,
    n_list: Sequence[int] = (10, 20, 50),
    threads: int = 1,
) -> SweepResult:
    """Evaluate every grid point and pick the best by H@objective_n.

    Ties break toward the earlier grid point.  All points share one split
    and one similarity model; points are independent, so they may be
    dispatched to a thread pool without affecting results.
    """
    depths = list(n_list)
    if objective_n not in depths:
        depths.append(objective_n)
    entries = list(grid.specs())
    if not entries:
        raise ValueError("parameter grid is empty")
    train, probes, model = prepare_evaluation(dataset)

    def run(entry: tuple[str, dict[str, float], DecaySpec]) -> dict:
        family, params, spec = entry
        report = evaluate_split(train, probes, model, spec, depths)
        return {
            "family": family,
            "spec": spec,
            "params": params,
            "decay": report.decay,
            "evaluated_users": report.evaluated_users,
            "hits": {r.n: r.hits for r in report.results},
            "hit_rate": {r.n: r.hit_rate for r in report.results},
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, entries))
    else:
        rows = [run(entry) for entry in entries]

    best_idx = 0
    for k, row in enumerate(rows):
        if row["hit_rate"][objective_n] > rows[best_idx]["hit_rate"][objective_n]:
            best_idx = k
    return SweepResult(entries[best_idx][2], rows[best_idx], rows, objective_n)
