"""Event log parsing, preprocessing, and the leave-the-latest-out split.

The raw input is a line-oriented log of (user, item, timestamp) triples
carrying binary implicit feedback.  Preprocessing collapses duplicate
(user, item) pairs to their earliest timestamp and removes items saved by
fewer than two distinct users (they share no users with anything else and
cannot contribute to similarities), iterating until stable.  The split
holds out each user's chronologically latest rating as a probe.

All values produced here are read-only after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import IO, Iterable

# Timestamps are held in int64 arrays downstream.
MAX_TIMESTAMP = 2**63 - 1


@dataclass(frozen=True)
class RatingEvent:
    """One implicit rating: ``user`` saved ``item`` at ``timestamp`` (s)."""

    user: str
    item: str
    timestamp: int

    def __post_init__(self) -> None:
        if not self.user or not self.item:
            raise ValueError("user and item identifiers must be non-empty")
        if not 0 <= self.timestamp <= MAX_TIMESTAMP:
            raise ValueError(f"timestamp must be in [0, 2**63 - 1], got {self.timestamp}")


@dataclass(frozen=True)
class RatingLog:
    """Ordered raw events; duplicates permitted until preprocessing.

    ``skipped`` counts malformed lines dropped while parsing.
    """

    events: tuple[RatingEvent, ...]
    skipped: int = 0


@dataclass(frozen=True)
class LogFormat:
    """Column order and delimiter of a delimiter-separated event log."""

    delimiter: str = "\t"
    columns: tuple[str, str, str] = ("user", "item", "timestamp")

    def __post_init__(self) -> None:
        if sorted(self.columns) != ["item", "timestamp", "user"]:
            raise ValueError(
                "columns must be a permutation of (user, item, timestamp), "
                f"got {self.columns!r}"
            )


def parse_events(stream: IO[str] | Iterable[str], fmt: LogFormat = LogFormat()) -> RatingLog:
    """Parse an event log stream into a RatingLog.

    Malformed lines (wrong field count, a timestamp that is not a string
    of ASCII digits or exceeds 2**63 - 1, empty identifiers) are skipped
    and counted, not fatal.  I/O errors propagate.
    """
    u_col = fmt.columns.index("user")
    i_col = fmt.columns.index("item")
    t_col = fmt.columns.index("timestamp")
    events: list[RatingEvent] = []
    skipped = 0
    for line in stream:
        line = line.rstrip("\r\n")
        fields = line.split(fmt.delimiter)
        if len(fields) != 3:
            skipped += 1
            continue
        user, item, stamp = fields[u_col], fields[i_col], fields[t_col]
        # int() alone would also take "+12", " 12", "1_000" and non-ASCII digits
        if not user or not item or not (stamp.isascii() and stamp.isdigit()):
            skipped += 1
            continue
        timestamp = int(stamp)
        if timestamp > MAX_TIMESTAMP:
            skipped += 1
            continue
        events.append(RatingEvent(user, item, timestamp))
    return RatingLog(tuple(events), skipped)


def write_events(log: RatingLog, fh: IO[str], fmt: LogFormat = LogFormat()) -> None:
    """Serialize a RatingLog in the given line format."""
    order = {name: pos for pos, name in enumerate(fmt.columns)}
    for ev in log.events:
        fields = [""] * 3
        fields[order["user"]] = ev.user
        fields[order["item"]] = ev.item
        fields[order["timestamp"]] = str(ev.timestamp)
        fh.write(fmt.delimiter.join(fields) + "\n")


@dataclass
class Dataset:
    """Indexed, preprocessed ratings.

    ``profiles[u]`` lists user u's ratings as (item index, timestamp)
    pairs sorted by timestamp ascending, ties broken by item index
    ascending.  Dense indices are assigned in sorted order of the external
    identifiers, so identical inputs always produce identical indexing.
    """

    user_ids: list[str]
    item_ids: list[str]
    profiles: list[list[tuple[int, int]]]
    user_index: dict[str, int] = field(init=False, repr=False)
    item_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.user_index = {u: k for k, u in enumerate(self.user_ids)}
        self.item_index = {i: k for k, i in enumerate(self.item_ids)}

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_ratings(self) -> int:
        return sum(len(p) for p in self.profiles)

    @property
    def sparsity(self) -> float:
        cells = self.n_users * self.n_items
        return 1.0 - self.n_ratings / cells if cells else 0.0

    def summary(self) -> dict:
        """JSON-ready statistics of the dataset."""
        return {
            "users": self.n_users,
            "items": self.n_items,
            "ratings": self.n_ratings,
            "sparsity": self.sparsity,
            "excluded_users": sum(1 for p in self.profiles if len(p) == 1),
        }

    def content_hash(self) -> str:
        """SHA-256 over a canonical serialization; keys similarity caches."""
        payload = json.dumps(
            [self.user_ids, self.item_ids, self.profiles],
            separators=(",", ":"),
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


# A training set has the same shape as a Dataset, restricted to non-probe
# ratings; excluded users keep an empty profile under the same index.
TrainSet = Dataset


@dataclass
class ProbeSet:
    """Held-out latest ratings: user index -> (probe item, probe time).

    ``excluded_users`` lists users with a single rating; they contribute
    nothing to either side of the split.
    """

    probes: dict[int, tuple[int, int]]
    excluded_users: list[int]

    @property
    def evaluated_users(self) -> list[int]:
        return sorted(self.probes)


def preprocess(log: RatingLog) -> Dataset:
    """Deduplicate, filter single-user items, and index an event log.

    Duplicate (user, item) pairs collapse to the earliest timestamp.
    Items rated by fewer than two distinct users are removed, then users
    left with empty profiles, repeating until stable.  An empty Dataset is
    a legal result.  Idempotent up to index relabeling.
    """
    earliest: dict[tuple[str, str], int] = {}
    for ev in log.events:
        key = (ev.user, ev.item)
        known = earliest.get(key)
        if known is None or ev.timestamp < known:
            earliest[key] = ev.timestamp

    user_items: dict[str, set[str]] = {}
    item_users: dict[str, set[str]] = {}
    for (user, item) in earliest:
        user_items.setdefault(user, set()).add(item)
        item_users.setdefault(item, set()).add(user)

    while True:
        weak = [i for i, users in item_users.items() if len(users) < 2]
        if not weak:
            break
        for item in weak:
            for user in item_users.pop(item):
                user_items[user].discard(item)
        for user in [u for u, items in user_items.items() if not items]:
            del user_items[user]

    user_ids = sorted(user_items)
    item_ids = sorted(item_users)
    item_idx = {i: k for k, i in enumerate(item_ids)}
    profiles = []
    for user in user_ids:
        prof = [(item_idx[i], earliest[(user, i)]) for i in user_items[user]]
        prof.sort(key=lambda r: (r[1], r[0]))
        profiles.append(prof)
    return Dataset(user_ids, item_ids, profiles)


def split_leave_latest(dataset: Dataset) -> tuple[TrainSet, ProbeSet]:
    """Hold out each user's latest rating as the probe, all at once.

    The latest rating is the last entry of the (timestamp, item index)
    sorted profile, so timestamp ties resolve to the higher item index.
    Users with one rating are excluded entirely.
    """
    probes: dict[int, tuple[int, int]] = {}
    excluded: list[int] = []
    train_profiles: list[list[tuple[int, int]]] = []
    for u, prof in enumerate(dataset.profiles):
        if len(prof) >= 2:
            item, ts = prof[-1]
            probes[u] = (item, ts)
            train_profiles.append(list(prof[:-1]))
        else:
            excluded.append(u)
            train_profiles.append([])
    train = Dataset(list(dataset.user_ids), list(dataset.item_ids), train_profiles)
    return train, ProbeSet(probes, excluded)
