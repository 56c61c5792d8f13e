"""Event log parsing, preprocessing, and the leave-the-latest-out split.

The raw input is a log of (user, item, timestamp) triples carrying
binary implicit feedback, one ``user<TAB>item<TAB>epoch-seconds`` line
per event, the one line format that is read and written.  It is parsed
into columns (``RatingLog``).  Preprocessing collapses duplicate (user,
item) pairs to their earliest timestamp, removes items saved by fewer
than two distinct users (they share no users with anything else and
cannot contribute to similarities) and indexes the rest into one
CSR-style layout (``Dataset``).  The split holds out each user's
chronologically latest rating as a probe.

All values produced here are read-only after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np

# Timestamps are held in int64 arrays.
MAX_TIMESTAMP = 2**63 - 1


def _breaks_a_line(text: str) -> bool:
    """Whether ``text`` holds a tab, CR or LF, which end a field or a line."""
    return "\t" in text or "\r" in text or "\n" in text


def _read_only(values, shape_tail: tuple[int, ...] = ()) -> np.ndarray:
    """A read-only int64 view of ``values``; an array passed in stays writeable."""
    array = np.ascontiguousarray(values, dtype=np.int64).view()
    if array.shape[1:] != shape_tail:
        raise ValueError(f"expected {1 + len(shape_tail)}-d int64 rows, got shape {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class RatingLog:
    """Raw events as parallel columns; duplicates permitted until
    preprocessing.  Event k: ``users[k]`` saved ``items[k]`` at
    ``timestamps[k]`` (s, int64).  ``skipped`` counts malformed lines
    dropped while parsing.

    Raises ValueError unless the columns have equal lengths, every
    identifier is non-empty and every timestamp is in [0, 2**63 - 1].
    """

    users: list[str]
    items: list[str]
    timestamps: np.ndarray
    skipped: int = 0

    def __post_init__(self) -> None:
        try:
            stamps = _read_only(self.timestamps)
        except OverflowError:
            raise ValueError("timestamps must be in [0, 2**63 - 1]") from None
        if not len(self.users) == len(self.items) == len(stamps):
            raise ValueError("users, items and timestamps must have equal lengths")
        if not (all(self.users) and all(self.items)):
            raise ValueError("user and item identifiers must be non-empty")
        if len(stamps) and stamps.min() < 0:
            raise ValueError(f"timestamps must be in [0, 2**63 - 1], got {stamps.min()}")
        object.__setattr__(self, "timestamps", stamps)

    def __len__(self) -> int:
        return len(self.timestamps)


def parse_events(stream: IO[str] | Iterable[str]) -> RatingLog:
    """Parse an event log stream into a RatingLog.

    Each line is ``user<TAB>item<TAB>timestamp``, ending in LF or CRLF.
    Malformed lines (wrong field count, a timestamp that is not a string
    of ASCII digits or exceeds 2**63 - 1, empty identifiers) are skipped
    and counted, not fatal.  I/O errors propagate.
    """
    users: list[str] = []
    items: list[str] = []
    stamps: list[int] = []
    skipped = 0
    for line in stream:
        fields = line.rstrip("\r\n").split("\t")
        if len(fields) != 3:
            skipped += 1
            continue
        user, item, stamp = fields
        # int() alone would also take "+12", " 12", "1_000" and non-ASCII
        # digits; a digit string of at most 18 characters is below 2**63
        if not (user and item and stamp.isascii() and stamp.isdigit()) or (
            len(stamp) > 18 and int(stamp) > MAX_TIMESTAMP
        ):
            skipped += 1
            continue
        users.append(user)
        items.append(item)
        stamps.append(int(stamp))
    return RatingLog(users, items, np.array(stamps, dtype=np.int64), skipped)


def write_events(log: RatingLog, fh: IO[str]) -> None:
    """Write a RatingLog as ``user<TAB>item<TAB>timestamp`` lines ending
    in LF, one per event in order.

    An id holding a tab, CR or LF would not read back as the same event,
    so the first such id, in event order, is named in a ValueError before
    anything is written.
    """
    if _breaks_a_line("".join(log.users) + "".join(log.items)):
        bad = next(x for pair in zip(log.users, log.items) for x in pair if _breaks_a_line(x))
        raise ValueError(f"identifier {bad!r} holds a tab, CR or LF and cannot be written")
    rows = zip(log.users, log.items, map(str, log.timestamps.tolist()))
    fh.writelines(f"{user}\t{item}\t{stamp}\n" for user, item, stamp in rows)


@dataclass(eq=False)
class Dataset:
    """Indexed, preprocessed ratings in one CSR-style layout.

    User u's ratings are rows ``indptr[u]`` to ``indptr[u + 1]`` of the
    (n_ratings, 2) int64 array ``ratings``, whose columns are the item
    index and the timestamp, sorted by timestamp ascending, ties broken by
    item index ascending.  Dense indices are assigned in sorted order of
    the external identifiers, so identical inputs always produce identical
    indexing.  A training set has the same layout, restricted to non-probe
    ratings; excluded users keep an empty profile under the same index.
    """

    user_ids: list[str]
    item_ids: list[str]
    indptr: np.ndarray
    ratings: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = _read_only(self.indptr)
        self.ratings = _read_only(self.ratings, (2,))

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_ratings(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def profiles(self) -> tuple[np.ndarray, ...]:
        """User u's ratings as a read-only (n, 2) view of ``ratings``;
        iterating one yields (item index, timestamp) rows."""
        bounds = self.indptr.tolist()
        return tuple(self.ratings[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    def summary(self) -> dict:
        """JSON-ready statistics of the dataset."""
        cells = self.n_users * self.n_items
        return {
            "users": self.n_users,
            "items": self.n_items,
            "ratings": self.n_ratings,
            "sparsity": 1.0 - self.n_ratings / cells if cells else 0.0,
            "excluded_users": int(np.count_nonzero(np.diff(self.indptr) == 1)),
        }

    def content_hash(self) -> str:
        """SHA-256 over the ids as JSON, then the little-endian bytes of
        ``indptr`` and ``ratings``; keys similarity caches."""
        digest = hashlib.sha256(
            json.dumps([self.user_ids, self.item_ids], separators=(",", ":")).encode("utf-8")
        )
        digest.update(self.indptr.astype("<i8").tobytes())
        digest.update(self.ratings.astype("<i8").tobytes())
        return digest.hexdigest()


@dataclass
class ProbeSet:
    """Held-out latest ratings: user index -> (probe item, probe time).
    Users with a single rating have no probe."""

    probes: dict[int, tuple[int, int]]

    @property
    def evaluated_users(self) -> list[int]:
        return sorted(self.probes)


def _codes(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each entry's index among them."""
    distinct = sorted(set(ids))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def preprocess(log: RatingLog) -> Dataset:
    """Deduplicate, filter single-user items, and index an event log.

    Duplicate (user, item) pairs collapse to the earliest timestamp.
    Items rated by fewer than two distinct users are removed, then users
    left with empty profiles.  One pass reaches the fixed point: dropping
    an item never changes another item's count of distinct users.  An
    empty Dataset is a legal result.  Idempotent up to index relabeling.
    """
    user_ids, users = _codes(log.users)
    item_ids, items = _codes(log.items)
    # each (user, item) run in this order starts with its earliest rating
    order = np.lexsort((log.timestamps, items, users))
    users, items, stamps = users[order], items[order], log.timestamps[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    kept_items = np.bincount(items[first], minlength=len(item_ids)) >= 2
    keep = first & kept_items[items]
    users, items, stamps = users[keep], items[keep], stamps[keep]
    kept_users = np.bincount(users, minlength=len(user_ids)) > 0
    # kept ids stay in sorted order, so a rank among them is the new index
    users = (np.cumsum(kept_users) - 1)[users]
    items = (np.cumsum(kept_items) - 1)[items]
    order = np.lexsort((items, stamps, users))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=kept_users.sum()))))
    return Dataset(
        [user_ids[k] for k in np.flatnonzero(kept_users).tolist()],
        [item_ids[k] for k in np.flatnonzero(kept_items).tolist()],
        indptr,
        np.column_stack((items[order], stamps[order])),
    )


def split_leave_latest(dataset: Dataset) -> tuple[Dataset, ProbeSet]:
    """Hold out each user's latest rating as the probe, all at once.

    The latest rating is the last row of the (timestamp, item index)
    sorted profile, so timestamp ties resolve to the higher item index.
    Users with one rating are excluded entirely.
    """
    lengths = np.diff(dataset.indptr)
    last = dataset.indptr[1:] - 1
    evaluated = np.flatnonzero(lengths >= 2)
    probe_rows = dataset.ratings[last[evaluated]].tolist()
    probes = dict(zip(evaluated.tolist(), map(tuple, probe_rows)))
    keep = np.ones(dataset.n_ratings, dtype=bool)
    keep[last[lengths > 0]] = False
    indptr = np.concatenate(([0], np.cumsum(np.maximum(lengths - 1, 0))))
    train = Dataset(dataset.user_ids, dataset.item_ids, indptr, dataset.ratings[keep])
    return train, ProbeSet(probes)
