"""Leave-the-latest-out evaluation, hit-rate, and parameter sweeps.

Each user's held-out latest rating is the probe; its timestamp is the
moment the recommendation is made.  The split and the similarity model
are built once and shared by all users and all sweep points; one pass
over the users scores every sweep point.  Hit-rate at search depth N is

    H@N = (1 / |U_eval|) * sum over users of h(probe, N) / N,

with h = 1 when the probe appears in the user's top-N list.  Note the
division by N inside the sum; a plain hit fraction (hits / |U_eval|) is
reported alongside for comparison with conventions that omit it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import Dataset, ProbeSet, TrainSet, split_leave_latest
from .decay import FAMILIES, DecaySpec, family_class, format_decay, sweep_ranges
from .recommender import probe_rank, score_specs
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


def _evaluate_specs(
    train: TrainSet,
    probes: ProbeSet,
    model: SimilarityModel,
    specs: Sequence[DecaySpec],
    n_list: Sequence[int],
) -> list[EvalReport]:
    """One report per spec, from one pass over the users timed as a whole."""
    depths = list(n_list)
    for n in depths:
        if n < 1:
            raise ValueError(f"search depth must be at least 1, got {n}")
    users = probes.evaluated_users
    if not users:
        raise ValueError("no evaluable users: every profile has fewer than 2 ratings")
    started = time.perf_counter()
    hits = [dict.fromkeys(depths, 0) for _ in specs]
    for u in users:
        probe_item, probe_time = probes.probes[u]
        for spec_hits, scores in zip(hits, score_specs(train, model, u, probe_time, specs)):
            rank = probe_rank(scores, probe_item)
            for n in depths:
                spec_hits[n] += rank is not None and rank <= n
    elapsed = time.perf_counter() - started
    count = len(users)
    return [
        EvalReport(format_decay(spec), count, elapsed, [
            DepthResult(n, h[n], h[n] / (count * n), h[n] / count) for n in depths
        ])
        for spec, h in zip(specs, hits)
    ]


def evaluate_split(
    train: TrainSet,
    probes: ProbeSet,
    model: SimilarityModel,
    spec: DecaySpec,
    n_list: Sequence[int] = (10, 20, 50),
) -> EvalReport:
    """Evaluate one decay spec against an existing split and model."""
    return _evaluate_specs(train, probes, model, [spec], n_list)[0]


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
        resolve the decade-spanning time scales.

        Raises ValueError when ``points_per_param`` is below 1.
        """
        if points_per_param < 1:
            raise ValueError(f"points per parameter must be at least 1, got {points_per_param}")
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
) -> SweepResult:
    """Evaluate every grid point and pick the best by H@objective_n.

    Ties break toward the earlier grid point.  All points share one split
    and one similarity model, and each user's similarity rows are
    gathered once for all points.
    """
    depths = list(n_list)
    if objective_n not in depths:
        depths.append(objective_n)
    entries = list(grid.specs())
    if not entries:
        raise ValueError("parameter grid is empty")
    train, probes, model = prepare_evaluation(dataset)
    reports = _evaluate_specs(train, probes, model, [spec for _f, _p, spec in entries], depths)
    rows = [
        {
            "family": family,
            "spec": spec,
            "params": params,
            "decay": report.decay,
            "evaluated_users": report.evaluated_users,
            "hits": {r.n: r.hits for r in report.results},
            "hit_rate": {r.n: r.hit_rate for r in report.results},
        }
        for (family, params, spec), report in zip(entries, reports)
    ]
    best_idx = max(range(len(rows)), key=lambda k: rows[k]["hit_rate"][objective_n])
    return SweepResult(entries[best_idx][2], rows[best_idx], rows, objective_n)
