"""Seeded generator of synthetic implicit-feedback logs.

Desk-scale stand-in for a real bookmarking crawl.  Each user's events are
grouped into short sessions spread over the horizon.  Items come from a
time-evolving mixture: a session component (one topic per session,
correlated within minutes) and a long-term topic that rotates a few times
over the user's history.  The final event per user is drawn from the most
recent mixture, so recency genuinely predicts it when drift or session
structure is enabled.  With ``drift_switches=0`` and ``session_prob=0``
timestamps carry no information about items.

Identical seeds produce byte-identical logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .dataset import RatingLog


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator configuration; every field has a working default.

    ``drift_switches`` is the number of long-term topic rotations per
    user.  ``session_prob`` is the probability an event draws from the
    session topic rather than the current long-term topic;
    ``session_explore`` is the probability a session picks a topic other
    than the current long-term one.
    """

    users: int = 500
    items: int = 1000
    events: int = 50_000
    topics: int = 20
    drift_switches: int = 3
    session_prob: float = 0.55
    session_explore: float = 0.35
    session_length: int = 8
    session_gap: tuple[int, int] = (20, 600)
    noise_prob: float = 0.05
    horizon: int = 100_000_000
    seed: int = 0

    def zero_drift(self) -> "SyntheticConfig":
        """Variant whose timestamps are uninformative about items.

        Disables topic rotation and session-item correlation, and spreads
        events evenly over the horizon (no time bursts), so no weighting
        scheme can gain or lose more than noise.
        """
        return replace(
            self,
            drift_switches=0,
            session_prob=0.0,
            session_explore=0.0,
            session_length=1,
        )


def _validate(config: SyntheticConfig) -> None:
    if config.users < 1 or config.items < 1 or config.events < 1:
        raise ValueError("users, items, and events must all be positive")
    if config.topics < 1 or config.topics > config.items:
        raise ValueError(f"topics must be in [1, items], got {config.topics}")
    per_user = -(-config.events // config.users)
    if per_user > config.items:
        raise ValueError(
            f"about {per_user} distinct items per user requested "
            f"but the catalog holds only {config.items}"
        )
    if config.session_length < 1:
        raise ValueError("session_length must be positive")
    lo, hi = config.session_gap
    if not 0 < lo <= hi:
        raise ValueError(f"session_gap must satisfy 0 < lo <= hi, got {config.session_gap}")
    if config.drift_switches < 0:
        raise ValueError("drift_switches must be nonnegative")
    for name in ("session_prob", "session_explore", "noise_prob"):
        p = getattr(config, name)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if config.noise_prob + config.session_prob > 1.0:
        raise ValueError("noise_prob + session_prob must not exceed 1")
    if config.horizon < 1:
        raise ValueError("horizon must be positive")


def _draw_unrated(rng: random.Random, pool: range, rated: set[int], n_items: int) -> int:
    for _ in range(40):
        candidate = pool[rng.randrange(len(pool))]
        if candidate not in rated:
            return candidate
    # pool effectively exhausted for this user; scan the whole catalog
    start = rng.randrange(n_items)
    for offset in range(n_items):
        candidate = (start + offset) % n_items
        if candidate not in rated:
            return candidate
    raise AssertionError("catalog exhausted; sizes were validated")


def generate_synthetic(config: SyntheticConfig) -> RatingLog:
    """Generate a synthetic rating log; same config, same bytes."""
    _validate(config)
    rng = random.Random(config.seed)
    n_items = config.items
    topic_size = n_items // config.topics
    topic_pools = [
        range(t * topic_size, (t + 1) * topic_size) for t in range(config.topics)
    ]
    catalog = range(n_items)

    base, extra = divmod(config.events, config.users)
    raw_events: list[tuple[int, int, int]] = []
    for u in range(config.users):
        n_ev = base + (1 if u < extra else 0)
        if n_ev == 0:
            continue
        n_sessions = max(1, round(n_ev / config.session_length))
        sizes = [n_ev // n_sessions] * n_sessions
        for k in range(n_ev % n_sessions):
            sizes[k] += 1

        starts = sorted(rng.randrange(config.horizon) for _ in range(n_sessions))
        n_eras = config.drift_switches + 1
        era_topics = [rng.randrange(config.topics)]
        while len(era_topics) < n_eras:
            nxt = rng.randrange(config.topics)
            if config.topics > 1 and nxt == era_topics[-1]:
                continue
            era_topics.append(nxt)

        rated: set[int] = set()
        t = 0
        for s, size in enumerate(sizes):
            # keep sessions strictly ordered so the last event is the latest
            t = max(starts[s], t + 3600)
            era_topic = era_topics[min(n_eras - 1, s * n_eras // n_sessions)]
            if rng.random() < config.session_explore:
                session_topic = rng.randrange(config.topics)
            else:
                session_topic = era_topic
            for _ in range(size):
                t += rng.randint(*config.session_gap)
                roll = rng.random()
                if roll < config.noise_prob:
                    pool: range = catalog
                elif roll < config.noise_prob + config.session_prob:
                    pool = topic_pools[session_topic]
                else:
                    pool = topic_pools[era_topic]
                item = _draw_unrated(rng, pool, rated, n_items)
                rated.add(item)
                raw_events.append((t, u, item))

    raw_events.sort()
    stamps, users, items = zip(*raw_events)
    return RatingLog([f"u{u:04d}" for u in users], [f"b{i:05d}" for i in items], stamps)
