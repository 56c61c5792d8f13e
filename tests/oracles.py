"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: dense two-loop cosine from user
sets, full-catalog loops for signal-to-noise ratios, triple-loop scoring,
an entry-by-entry score sum in profile order, full-sort ranking,
edge-scanning log-binning and a trend fit that refits every breakpoint
candidate.  ``coo_similarity`` keeps the earlier sparse build, which
round-trips the co-count product through COO, as the bit-for-bit
reference of the canonical one.  None of it shares code with the library
paths it checks.
"""

import math
import random

import numpy as np
import scipy.sparse as sp

from driftcf.dataset import Dataset, RatingLog, preprocess, split_leave_latest
from helpers import rating_log, similarity_row


def item_raters(train):
    raters = [set() for _ in range(train.n_items)]
    for u, prof in enumerate(train.profiles):
        for item, _ts in prof:
            raters[item].add(u)
    return raters


def dense_cosine(train):
    """Dense two-loop binary cosine: |common| / sqrt(n_i * n_j)."""
    raters = item_raters(train)
    n = train.n_items
    sim = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or not raters[i] or not raters[j]:
                continue
            common = len(raters[i] & raters[j])
            if common:
                sim[i][j] = common / math.sqrt(len(raters[i]) * len(raters[j]))
    return sim


def coo_similarity(train):
    """The cosine model as (matrix, user counts, row squared sums), built by
    masking the diagonal out of the co-count product in COO form."""
    n_items = train.n_items
    ratings = sp.csr_matrix(
        (np.ones(train.n_ratings), train.ratings[:, 0], train.indptr),
        shape=(train.n_users, n_items),
    )
    counts = np.asarray(ratings.getnnz(axis=0), dtype=np.int64)
    co = (ratings.T @ ratings).tocoo()
    inv_sqrt = np.zeros(n_items)
    rated = counts > 0
    inv_sqrt[rated] = 1.0 / np.sqrt(counts[rated])
    off_diag = co.row != co.col
    r, c = co.row[off_diag], co.col[off_diag]
    data = co.data[off_diag] * (inv_sqrt[r] * inv_sqrt[c])
    matrix = sp.csr_matrix((data, (r, c)), shape=(n_items, n_items))
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix, counts, np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()


def ssnr_full_loop(sim, item, probe):
    """Explicit sum over every catalog item; returns (num, denom)."""
    num = sim[item][probe] ** 2
    denom = 0.0
    for j in range(len(sim)):
        if j != item and j != probe:
            denom += sim[item][j] ** 2
    return num, denom


def dense_scores(train, sim, user, t_now, weight_fn):
    """Triple-loop decay-weighted scores over the full catalog."""
    profile = train.profiles[user]
    rated = {item for item, _ts in profile}
    scores = {}
    for j in range(train.n_items):
        if j in rated:
            continue
        f = 0.0
        for item, ts in profile:
            f += weight_fn(t_now - ts) * sim[item][j]
        scores[j] = f
    return scores


def profile_order_scores(train, model, user, t_now, weight_fn):
    """Scores by adding ``weight_fn(age) * s_ij`` over each stored entry
    of each profile row, rating by rating in profile order, starting from
    0.0: the summation order the library promises, so its scores must
    equal these exactly.  Items of the profile are dropped; items no
    stored entry reaches are absent."""
    profile = train.profiles[user].tolist()
    scores = {}
    for item, ts in profile:
        w = weight_fn(t_now - ts)
        for j, s in similarity_row(model, item).items():
            scores[j] = scores.get(j, 0.0) + w * s
    for item, _ts in profile:
        scores.pop(item, None)
    return scores


def hit_rate(flags, n):
    """Depth-normalized hit-rate of per-user hit flags: hits / (users * n)."""
    if n < 1:
        raise ValueError(f"search depth must be at least 1, got {n}")
    if len(flags) == 0:
        raise ValueError("hit rate is undefined for an empty user set")
    return sum(flags) / (len(flags) * n)


def sort_truncate(scores, n):
    """Full sort of positive scores (desc, index asc), then truncate."""
    ranked = sorted(
        ((j, f) for j, f in scores.items() if f > 0), key=lambda p: (-p[1], p[0])
    )
    return ranked[:n]


def reference_ibcf_top_n(train, user, n, sim=None):
    """Separately coded classic item-based CF without any time weighting.

    ``sim(i, j)`` supplies similarity values; by default they are computed
    here from scratch.  Passing the model's lookup isolates the scoring
    and ranking comparison from last-ulp rounding differences between two
    cosine computations (similarity itself has its own dense oracle).
    """
    if sim is None:
        dense = dense_cosine(train)

        def sim(i, j):
            return dense[i][j]

    profile = train.profiles[user]
    rated = {item for item, _ts in profile}
    scores = {}
    for item, _ts in profile:
        for j in range(train.n_items):
            if j in rated or j == item:
                continue
            s = sim(item, j)
            if s:
                scores[j] = scores.get(j, 0.0) + s
    return sort_truncate(scores, n)


def pipeline_hits(dataset, weight_fn, n_list):
    """End-to-end brute force: split, dense cosine, dense scores, full sort.

    Returns {n: hit count} over evaluated users.
    """
    train, probes = split_leave_latest(dataset)
    sim = dense_cosine(train)
    hits = {n: 0 for n in n_list}
    for u in probes.evaluated_users:
        probe_item, probe_time = probes.probes[u]
        scores = dense_scores(train, sim, u, probe_time, weight_fn)
        for n in n_list:
            ranked = [j for j, _f in sort_truncate(scores, n)]
            if probe_item in ranked:
                hits[n] += 1
    return hits, len(probes.evaluated_users)


def random_log(rng: random.Random, max_users=15, max_items=20, max_events=120) -> RatingLog:
    n_users = rng.randint(2, max_users)
    n_items = rng.randint(2, max_items)
    n_events = rng.randint(1, max_events)
    return rating_log(
        (
            f"u{rng.randrange(n_users)}",
            f"i{rng.randrange(n_items)}",
            rng.randrange(1_000_000),
        )
        for _ in range(n_events)
    )


def random_dataset(rng: random.Random, **kw) -> Dataset:
    return preprocess(random_log(rng, **kw))


def random_train(rng: random.Random, **kw):
    """A preprocessed random dataset with a nonempty split, plus probes."""
    while True:
        dataset = random_dataset(rng, **kw)
        if dataset.n_ratings == 0:
            continue
        train, probes = split_leave_latest(dataset)
        if probes.probes and train.n_ratings > 0:
            return dataset, train, probes


def scan_bins(rows, ratio, age_min):
    """Log-binned curve by scanning bin edges upward from bin 0.

    ``rows`` are (user, item, age, ssnr) tuples.  Ages are compared with the
    edges as Python int against float, which is exact, and each bin's sum
    adds its samples in input order.  Returns (age_lo, age_hi, mean, count)
    per nonempty bin, in age order.
    """
    sums, counts = {}, {}
    for _user, _item, age, ssnr in rows:
        k = 0
        if age >= age_min:
            while age >= age_min * ratio ** (k + 1):
                k += 1
        sums[k] = sums.get(k, 0.0) + ssnr
        counts[k] = counts.get(k, 0) + 1
    return [
        (age_min * ratio**k, age_min * ratio ** (k + 1), sums[k] / counts[k], counts[k])
        for k in sorted(sums)
    ]


def fit_trend_grid_loop(curve, ts_grid, tl_grid):
    """Piecewise trend fit refitting both outer segments for every
    (t_s, t_l) candidate.  Returns the winning (t_s, t_l, k_s, k_l,
    plateau, residual), or None when no candidate has 2 usable bins in
    each segment and 2 distinct midpoints in each outer one.
    """
    def segment_fit(x, y):
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        return float(slope), float(np.dot(resid, resid))

    usable = [b for b in curve.bins if b.mean_ssnr > 0]
    log_x = np.log(np.array([math.sqrt(b.age_lo * b.age_hi) for b in usable]))
    log_y = np.array([math.log(b.mean_ssnr) for b in usable])
    best, best_fit = None, None
    for t_s in ts_grid:
        for t_l in tl_grid:
            if t_s > t_l:
                continue
            short = log_x < math.log(t_s)
            long = log_x >= math.log(t_l)
            plat = ~short & ~long
            if short.sum() < 2 or plat.sum() < 2 or long.sum() < 2:
                continue
            # a line through bins at one midpoint is not determined
            if len(set(log_x[short].tolist())) < 2 or len(set(log_x[long].tolist())) < 2:
                continue
            log_c = float(np.mean(log_y[plat]))
            ssr_plat = float(np.sum((log_y[plat] - log_c) ** 2))
            slope_s, ssr_s = segment_fit(log_x[short], log_y[short])
            slope_l, ssr_l = segment_fit(log_x[long], log_y[long])
            residual = ssr_s + ssr_plat + ssr_l
            key = (residual, float(t_s), float(t_l))
            if best is None or key < best:
                best = key
                best_fit = (
                    float(t_s), float(t_l), max(0.0, -slope_s), max(0.0, -slope_l),
                    math.exp(log_c), residual,
                )
    return best_fit
