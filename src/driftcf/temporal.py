"""Temporal dynamics of rating impact.

For each evaluated user the held-out probe item stands in for the current
favorite.  The similarity signal-to-noise ratio of a rated item i against
probe p,

    ssnr(i, p) = s_ip^2 / sum_{j != p, j != i} s_ij^2,

measures how sharply i points at p relative to everything else it points
at.  Pairing each rating's ssnr with its age (probe time minus rating
time), log-binning the ages, and averaging per bin yields a decay curve;
a piecewise power-law trend fitted to that curve parameterizes the
piecewise decay function.

Sample collection is a pure read of the model and may run concurrently;
binning and fitting are single-threaded reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ProbeSet, TrainSet
from .decay import Piecewise, sweep_ranges
from .recommender import ScoreVector
from .similarity import SimilarityModel

DEFAULT_BIN_RATIO = 10 ** 0.1  # ten bins per decade
DEFAULT_AGE_MIN = 1.0

# The trend breakpoints are searched over the piecewise decay's sweep
# ranges, geometrically gridded.
DEFAULT_TS_GRID_RANGE = sweep_ranges(Piecewise)["t_s"]
DEFAULT_TL_GRID_RANGE = sweep_ranges(Piecewise)["t_l"]
DEFAULT_GRID_POINTS = 20


class DegenerateRatioError(ValueError):
    """A signal-to-noise ratio whose denominator vanished.

    ``kind`` is "degenerate_infinite" (zero denominator, positive
    numerator), "isolated" (item with an empty similarity row), or
    "undefined" (all scores zero).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class TrendFitError(ValueError):
    """No breakpoint candidate produced enough bins per segment."""


@dataclass(frozen=True)
class SsnrSample:
    user: int
    item: int
    age: int
    ssnr: float


@dataclass(frozen=True)
class CurveBin:
    age_lo: float
    age_hi: float
    mean_ssnr: float
    count: int


@dataclass(frozen=True)
class BinnedCurve:
    """Log-binned mean ssnr versus age; empty bins are omitted."""

    bins: tuple[CurveBin, ...]
    ratio: float
    age_min: float

    @property
    def total_count(self) -> int:
        return sum(b.count for b in self.bins)


@dataclass(frozen=True)
class TrendFit:
    """Piecewise power-law trend of a binned curve.

    ``plateau`` is the fitted level of the middle phase; ``residual`` is
    the total squared residual in log-log space.  The decay function
    derived from a fit divides the plateau out, so ranking is unaffected
    by its absolute scale.
    """

    t_s: float
    t_l: float
    k_s: float
    k_l: float
    plateau: float
    residual: float


def compute_ssnr(model: SimilarityModel, item: int, probe_item: int) -> float:
    """Signal-to-noise of ``item`` against ``probe_item``.

    Uses the cached squared row sum minus the probe term; the diagonal is
    never stored, so the j != item exclusion is automatic.  Raises
    DegenerateRatioError when the denominator vanishes.
    """
    if item == probe_item:
        raise ValueError("ssnr is undefined for the probe item itself")
    s = model.value(item, probe_item)
    num = s * s
    denom = float(model.row_sq_sums[item]) - num
    if denom <= 0.0:
        if num > 0.0:
            raise DegenerateRatioError(
                "degenerate_infinite",
                f"item {item}: probe is its only similar item",
            )
        raise DegenerateRatioError(
            "isolated", f"item {item}: empty similarity row",
        )
    return num / denom


def collect_ssnr_ages(
    train: TrainSet, probes: ProbeSet, model: SimilarityModel
) -> tuple[list[SsnrSample], dict[str, int]]:
    """(ssnr, age) pairs for every training rating of every evaluated user.

    A user with L ratings contributes L - 1 samples minus the degenerate
    ones, which are tallied by category instead of emitted.
    """
    samples: list[SsnrSample] = []
    exclusions = {"degenerate_infinite": 0, "isolated": 0}
    for u in probes.evaluated_users:
        probe_item, probe_time = probes.probes[u]
        for item, ts in train.profiles[u]:
            age = probe_time - ts
            try:
                value = compute_ssnr(model, item, probe_item)
            except DegenerateRatioError as exc:
                exclusions[exc.kind] += 1
                continue
            samples.append(SsnrSample(u, item, age, value))
    return samples, exclusions


def log_bin_average(
    samples: list[SsnrSample],
    ratio: float = DEFAULT_BIN_RATIO,
    age_min: float = DEFAULT_AGE_MIN,
) -> BinnedCurve:
    """Average ssnr over geometric age bins [age_min * ratio^k, ...).

    Ages below ``age_min`` (including zero) are clamped into bin 0.
    Returns empty-bin-free bins in age order; an empty sample list yields
    an empty curve.
    """
    if not ratio > 1:
        raise ValueError(f"bin ratio must exceed 1, got {ratio!r}")
    if age_min < 1:
        raise ValueError(f"age_min must be at least 1, got {age_min!r}")
    log_ratio = math.log(ratio)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for sample in samples:
        age = sample.age
        if age < age_min:
            k = 0
        else:
            k = int(math.floor(math.log(age / age_min) / log_ratio))
            # guard the floor against floating-point edge error
            while age < age_min * ratio**k:
                k -= 1
            while age >= age_min * ratio ** (k + 1):
                k += 1
        sums[k] = sums.get(k, 0.0) + sample.ssnr
        counts[k] = counts.get(k, 0) + 1
    bins = tuple(
        CurveBin(age_min * ratio**k, age_min * ratio ** (k + 1), sums[k] / counts[k], counts[k])
        for k in sorted(sums)
    )
    return BinnedCurve(bins, ratio, age_min)


def _segment_fit(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float]:
    """Least-squares line in log-log space; returns (slope, ssr)."""
    slope, intercept = np.polyfit(log_x, log_y, 1)
    resid = log_y - (slope * log_x + intercept)
    return float(slope), float(np.dot(resid, resid))


def fit_piecewise_trend(
    curve: BinnedCurve,
    ts_grid: np.ndarray | None = None,
    tl_grid: np.ndarray | None = None,
) -> TrendFit:
    """Fit the three-phase power-law trend by exhaustive breakpoint search.

    For each candidate (t_s, t_l) pair the plateau level is the mean
    log-ssnr of the middle bins and the two decay exponents come from
    least squares on the outer segments (slopes negated, clamped at zero
    if positive).  Bins are assigned to segments by their geometric
    midpoint age.  The candidate minimizing total squared log-log
    residual wins; ties break toward smaller t_s, then smaller t_l.
    Zero-mean bins cannot be represented in log space and are ignored.
    """
    if ts_grid is None:
        ts_grid = np.geomspace(*DEFAULT_TS_GRID_RANGE, DEFAULT_GRID_POINTS)
    if tl_grid is None:
        tl_grid = np.geomspace(*DEFAULT_TL_GRID_RANGE, DEFAULT_GRID_POINTS)

    usable = [b for b in curve.bins if b.mean_ssnr > 0]
    mids = np.array([math.sqrt(b.age_lo * b.age_hi) for b in usable])
    log_x = np.log(mids) if len(usable) else np.zeros(0)
    log_y = np.array([math.log(b.mean_ssnr) for b in usable])

    best: tuple[float, float, float] | None = None
    best_fit: TrendFit | None = None
    for t_s in ts_grid:
        short = log_x < math.log(t_s) if len(usable) else np.zeros(0, bool)
        for t_l in tl_grid:
            if t_s > t_l:
                continue
            long = log_x >= math.log(t_l)
            plat = ~short & ~long
            if short.sum() < 2 or plat.sum() < 2 or long.sum() < 2:
                continue
            log_c = float(np.mean(log_y[plat]))
            ssr_plat = float(np.sum((log_y[plat] - log_c) ** 2))
            slope_s, ssr_s = _segment_fit(log_x[short], log_y[short])
            slope_l, ssr_l = _segment_fit(log_x[long], log_y[long])
            residual = ssr_s + ssr_plat + ssr_l
            key = (residual, float(t_s), float(t_l))
            if best is None or key < best:
                best = key
                best_fit = TrendFit(
                    t_s=float(t_s),
                    t_l=float(t_l),
                    k_s=max(0.0, -slope_s),
                    k_l=max(0.0, -slope_l),
                    plateau=math.exp(log_c),
                    residual=residual,
                )
    if best_fit is None:
        raise TrendFitError(
            f"no (t_s, t_l) candidate had at least 2 usable bins per segment "
            f"({len(usable)} usable bins)"
        )
    return best_fit


def compute_fsnr(scores: ScoreVector, probe_item: int) -> float:
    """Signal-to-noise of the final prediction scores; diagnostic only.

    Requires the probe to be among the scored candidates.  Raises
    DegenerateRatioError when the non-probe scores (or all scores) vanish.
    The noise sum is exactly rounded, so their order does not matter.
    """
    probe = scores.items == probe_item
    if not probe.any():
        raise ValueError(f"probe item {probe_item} is not among the scored candidates")
    signal = float(scores.scores[probe][0])
    num = signal * signal
    noise = scores.scores[~probe]
    denom = math.fsum(noise * noise)
    if denom == 0.0:
        if num > 0.0:
            raise DegenerateRatioError(
                "degenerate_infinite", "all non-probe scores are zero"
            )
        raise DegenerateRatioError("undefined", "all scores are zero")
    return num / denom
