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
binning and fitting are single-threaded reductions.  Samples are held as
parallel arrays (``SsnrSamples``), and collection and binning are array
passes over all ratings at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, ProbeSet, _query_profile
from .decay import Piecewise, sweep_ranges
from .similarity import SimilarityModel, _check_pairing

BIN_RATIO = 10 ** 0.1  # ten bins per decade, from 1 s


def _bin_edges() -> np.ndarray:
    """Bin k's smallest integer age, ceil(BIN_RATIO**k), as uint64, for k up
    to the first edge at 2**63: no int64 age reaches it, so it stands for
    every edge above."""
    edges = [1]
    while edges[-1] < 2**63:
        edges.append(min(math.ceil(BIN_RATIO ** len(edges)), 2**63))
    return np.array(edges, dtype=np.uint64)


_BIN_EDGES = _bin_edges()

# The trend breakpoints are searched on 20-point geometric grids over the
# piecewise decay's sweep ranges.
TS_GRID = np.geomspace(*sweep_ranges(Piecewise)["t_s"], 20)
TL_GRID = np.geomspace(*sweep_ranges(Piecewise)["t_l"], 20)


class TrendFitError(ValueError):
    """No breakpoint candidate produced enough bins per segment."""


@dataclass(frozen=True, eq=False)
class SsnrSamples:
    """(age, ssnr) samples as two parallel arrays, one entry per sample.

    ``ages`` is int64 and ``ssnr`` is float64.  ``collect_ssnr_ages``
    emits them by evaluated user ascending, then in profile order.
    """

    ages: np.ndarray
    ssnr: np.ndarray

    def __len__(self) -> int:
        return len(self.ssnr)


@dataclass(frozen=True)
class CurveBin:
    """One bin of a binned curve: ``count`` samples averaging ``mean_ssnr``."""

    age_lo: float
    age_hi: float
    mean_ssnr: float
    count: int


@dataclass(frozen=True)
class BinnedCurve:
    """Log-binned mean ssnr versus age; empty bins are omitted."""

    bins: tuple[CurveBin, ...]

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


def collect_ssnr_ages(
    train: Dataset, probes: ProbeSet, model: SimilarityModel
) -> tuple[SsnrSamples, dict[str, int]]:
    """(ssnr, age) pairs for every training rating of every evaluated user.

    A user with L ratings contributes L - 1 samples minus the degenerate
    ones, which are tallied by category instead of emitted.  Raises
    ValueError, before any read of the model, for a model whose item count
    is not the training set's, as in scoring; then, for the first evaluated
    user, ascending, whose probe breaks a rule: the probe time must pass
    ``dataset._query_profile`` as a scoring query's time does, and then the
    probe item must lie in the training set.
    """
    _check_pairing(model, train)
    users = probes.evaluated_users
    entries = [probes.probes[u] for u in users]
    for u, (item, t) in zip(users, entries):
        _query_profile(train, u, t)
        if not 0 <= item < train.n_items:
            raise ValueError(f"probe item {item} of user {u} lies outside [0, {train.n_items})")
    users = np.array(users, dtype=np.int64)
    probe_items, probe_times = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    lengths = np.diff(train.indptr)[users]
    evaluated = np.zeros(train.n_users, dtype=bool)
    evaluated[users] = True
    # users ascend, so their rows are the evaluated users' rows in order
    items, times = train.ratings[np.repeat(evaluated, np.diff(train.indptr))].T
    if np.any(items == np.repeat(probe_items, lengths)):
        raise ValueError("ssnr is undefined for the probe item itself")
    ages = np.repeat(probe_times, lengths) - times

    # s_ip == s_pi bit for bit (build_similarity scales both entries with one
    # product, and load_cache returns U + U^T, symmetric by construction), so
    # each user's similarities are read from one scatter of the probe's row.
    m = model.matrix
    s = np.empty(len(items))
    dense = np.zeros(model.n_items)
    ends = np.cumsum(lengths)
    for p, lo, hi in zip(probe_items.tolist(), (ends - lengths).tolist(), ends.tolist()):
        idx = m.indices[m.indptr[p]:m.indptr[p + 1]]
        dense[idx] = m.data[m.indptr[p]:m.indptr[p + 1]]
        s[lo:hi] = dense[items[lo:hi]]
        dense[idx] = 0.0

    # the squared similarity to the probe over the rest of the item's
    # squared row sum; the diagonal is never stored, so the j != item
    # exclusion is automatic.  A sample whose denominator vanished is
    # "degenerate_infinite" when the numerator is positive, else "isolated".
    num = s * s
    denom = model.row_sq_sums[items] - num
    vanished = denom <= 0.0
    infinite = vanished & (num > 0.0)
    kept = ~vanished
    samples = SsnrSamples(ages[kept], num[kept] / denom[kept])
    exclusions = {"degenerate_infinite": int(infinite.sum()), "isolated": int((vanished & ~infinite).sum())}
    return samples, exclusions


def log_bin_average(samples: SsnrSamples) -> BinnedCurve:
    """Average ssnr over geometric age bins [BIN_RATIO^k, BIN_RATIO^(k+1)).

    Age 0 is clamped into bin 0, [1, BIN_RATIO).  Ages are compared with
    the bin edges as integers, so binning is exact over the whole int64
    range.  Returns empty-bin-free bins in age order; no samples yield an
    empty curve.  Each bin's sum adds its samples in input order.  A
    ValueError is raised for a negative age, or when a sum is not finite.
    """
    negative = np.flatnonzero(samples.ages < 0)
    if len(negative):
        raise ValueError(
            f"{len(negative)} negative ssnr age(s), the first {samples.ages[negative[0]]}"
        )
    ages = samples.ages.astype(np.uint64)
    index = np.maximum(np.searchsorted(_BIN_EDGES, ages, side="right") - 1, 0)
    ks, slot = np.unique(index, return_inverse=True)
    sums = np.bincount(slot, weights=samples.ssnr, minlength=len(ks))
    if not np.isfinite(sums).all():
        raise ValueError("an age bin's ssnr sum is not finite")
    counts = np.bincount(slot, minlength=len(ks))
    bins = tuple(
        CurveBin(BIN_RATIO**k, BIN_RATIO ** (k + 1), total / count, count)
        for k, total, count in zip(ks.tolist(), sums.tolist(), counts.tolist())
    )
    return BinnedCurve(bins)


def _segment_fit(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float] | None:
    """Least-squares line in log-log space; returns (slope, ssr), or None
    when the bins cannot fix a line: fewer than 2 of them, or all at one
    midpoint."""
    if len(log_x) < 2:
        return None
    (slope, intercept), _ssr, rank, _sv, _rcond = np.polyfit(log_x, log_y, 1, full=True)
    if rank < 2:
        return None
    resid = log_y - (slope * log_x + intercept)
    return float(slope), float(np.dot(resid, resid))


def fit_piecewise_trend(curve: BinnedCurve) -> TrendFit:
    """Fit the three-phase power-law trend by exhaustive breakpoint search.

    For each candidate (t_s, t_l) pair from ``TS_GRID`` and ``TL_GRID``,
    with t_s <= t_l, the plateau level is the mean log-ssnr of the middle
    bins and the two decay exponents come from least squares on the outer
    segments (slopes negated, clamped at zero if positive).  Bins are
    assigned to segments by their geometric midpoint age.  The candidate
    minimizing total squared log-log residual wins; ties break toward
    smaller t_s, then smaller t_l.  Zero-mean bins cannot be represented in
    log space and are ignored, and a candidate whose outer segment cannot
    fix a line (its bins all share one midpoint) is skipped.
    """
    usable = [b for b in curve.bins if b.mean_ssnr > 0]
    mids = np.array([math.sqrt(b.age_lo * b.age_hi) for b in usable])
    log_x = np.log(mids)
    log_y = np.array([math.log(b.mean_ssnr) for b in usable])

    # Each outer segment's fit depends on one breakpoint only, so it is
    # made once per grid value.
    shorts = [log_x < math.log(t_s) for t_s in TS_GRID]
    longs = [log_x >= math.log(t_l) for t_l in TL_GRID]
    short_fits = [_segment_fit(log_x[short], log_y[short]) for short in shorts]
    long_fits = [_segment_fit(log_x[long], log_y[long]) for long in longs]
    candidates = []
    for t_s, short, short_fit in zip(TS_GRID, shorts, short_fits):
        for t_l, long, long_fit in zip(TL_GRID, longs, long_fits):
            if t_s > t_l or short_fit is None or long_fit is None:
                continue
            plat = ~short & ~long
            if plat.sum() < 2:
                continue
            log_c = float(np.mean(log_y[plat]))
            ssr_plat = float(np.sum((log_y[plat] - log_c) ** 2))
            residual = short_fit[1] + ssr_plat + long_fit[1]
            candidates.append((residual, float(t_s), float(t_l), short_fit[0], long_fit[0], log_c))
    if not candidates:
        raise TrendFitError(
            f"no (t_s, t_l) candidate had at least 2 usable bins per segment, "
            f"the outer ones at 2 midpoints or more ({len(usable)} usable bins)"
        )
    residual, t_s, t_l, slope_s, slope_l, log_c = min(candidates)
    return TrendFit(
        t_s=t_s,
        t_l=t_l,
        k_s=max(0.0, -slope_s),
        k_l=max(0.0, -slope_l),
        plateau=math.exp(log_c),
        residual=residual,
    )
