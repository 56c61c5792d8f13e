"""Leave-the-latest-out evaluation, hit-rate, and parameter sweeps.

Each user's held-out latest rating is the probe; its timestamp is the
moment the recommendation is made.  The split and the similarity model
are built once and shared by all users and all sweep points; one pass
over the users scores every sweep point.  The users are dealt out round
robin to one thread per CPU the process may run on; each thread counts its
own hits and the counts are added at the end, so the reports do not depend
on the thread count.  Hit-rate at search depth N is

    H@N = (1 / |U_eval|) * sum over users of h(probe, N) / N,

with h = 1 when the probe appears in the user's top-N list.  Note the
division by N inside the sum; each result also holds the hit count, so the
plain hit fraction is hits / |U_eval|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import Dataset, ProbeSet, split_leave_latest
from .decay import FAMILIES, DecaySpec, family_class, format_decay, sweep_ranges
from .recommender import probe_ranks
from .similarity import SimilarityModel, _in_threads, build_similarity


@dataclass(frozen=True)
class DepthResult:
    """Hit statistics at one search depth."""

    n: int
    hits: int
    hit_rate: float


@dataclass
class EvalReport:
    decay: str
    evaluated_users: int
    results: list[DepthResult]

    def at(self, n: int) -> DepthResult:
        for r in self.results:
            if r.n == n:
                return r
        raise KeyError(f"no result at depth {n}")


def prepare_evaluation(dataset: Dataset) -> tuple[Dataset, ProbeSet, SimilarityModel]:
    """One global split and one similarity model, shared by all users."""
    train, probes = split_leave_latest(dataset)
    model = build_similarity(train)
    return train, probes, model


def check_depths(n_list: Sequence[int]) -> list[int]:
    """``n_list`` as a list; ValueError unless it holds depths >= 1, each once."""
    depths = list(n_list)
    if not depths:
        raise ValueError("no search depth given")
    for k, n in enumerate(depths):
        if n < 1:
            raise ValueError(f"search depth must be at least 1, got {n}")
        if n in depths[:k]:
            raise ValueError(f"depth {n} is listed twice")
    return depths


def _evaluate_specs(
    train: Dataset,
    probes: ProbeSet,
    model: SimilarityModel,
    specs: Sequence[DecaySpec],
    n_list: Sequence[int],
) -> list[EvalReport]:
    """One report per spec, from one pass over the users."""
    depths = check_depths(n_list)
    users = probes.evaluated_users
    if not users:
        raise ValueError("no evaluable users: every profile has fewer than 2 ratings")
    depth_col = np.array(depths)[:, None]

    def count_hits(share: Iterator[int]) -> np.ndarray:
        hits = np.zeros((len(depths), len(specs)), dtype=np.int64)
        for k in share:
            u = users[k]
            probe_item, probe_time = probes.probes[u]
            ranks = probe_ranks(train, model, u, probe_time, probe_item, specs)
            hits += (ranks > 0) & (ranks <= depth_col)
        return hits

    hits = sum(_in_threads(len(users), count_hits))
    count = len(users)
    return [
        EvalReport(format_decay(spec), count, [
            DepthResult(n, h, h / (count * n)) for n, h in zip(depths, spec_hits)
        ])
        for spec, spec_hits in zip(specs, hits.T.tolist())
    ]


def evaluate_split(
    train: Dataset,
    probes: ProbeSet,
    model: SimilarityModel,
    spec: DecaySpec,
    n_list: Sequence[int] = (10, 20, 50),
) -> EvalReport:
    """Evaluate one decay spec against an existing split and model."""
    return _evaluate_specs(train, probes, model, [spec], n_list)[0]


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

        Raises ValueError for no families or ``points_per_param`` below 1.
        """
        if not families:
            raise ValueError("no decay family given")
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
    best_row: dict
    rows: list[dict]
    # each family's first row with the largest objective hit rate
    best_per_family: dict[str, dict]


def grid_sweep(
    dataset: Dataset,
    grid: ParamGrid,
    objective_n: int = 10,
    n_list: Sequence[int] = (10, 20, 50),
) -> SweepResult:
    """Evaluate every grid point at the depths ``n_list`` and pick the best
    by H@objective_n, one of those depths, over the whole grid and within
    each family.

    Ties break toward the earlier grid point.  All points share one split
    and one similarity model, and each user's similarity rows are
    gathered once for all points.
    """
    depths = check_depths(n_list)
    if objective_n not in depths:
        raise ValueError(f"objective depth {objective_n} is not among the depths {depths}")
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
    per_family: dict[str, dict] = {}
    for row in rows:
        best = per_family.get(row["family"])
        if best is None or row["hit_rate"][objective_n] > best["hit_rate"][objective_n]:
            per_family[row["family"]] = row
    # each family's rows are contiguous in grid order, so the first maximum
    # over the family bests is the first maximum over all rows
    best_row = max(per_family.values(), key=lambda row: row["hit_rate"][objective_n])
    return SweepResult(best_row, rows, per_family)
