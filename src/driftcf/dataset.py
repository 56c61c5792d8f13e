"""Event log parsing, preprocessing, and the leave-the-latest-out split.

The raw input is a log of (user, item, timestamp) triples carrying
binary implicit feedback, one ``user<TAB>item<TAB>epoch-seconds`` line
per event, the one line format that is read and written.  It is parsed
into coded columns (``RatingLog``): the sorted distinct user and item
ids, and per event a user code, an item code and a timestamp.  The
parse works on the log's bytes with array passes and decodes only the
distinct ids to ``str``.  ``RatingLog.from_ids`` is the one way in from
per-event id strings.  Preprocessing collapses duplicate (user, item)
pairs to their earliest timestamp, removes items saved by fewer than two
distinct users (they share no users with anything else and cannot
contribute to similarities) and indexes the rest into one CSR-style
layout (``Dataset``).  The split holds out each user's chronologically
latest rating as a probe.

All values produced here are read-only after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

# Timestamps are held in int64 arrays.
MAX_TIMESTAMP = 2**63 - 1


def _breaks_a_line(text: str) -> bool:
    """Whether ``text`` holds a tab, CR or LF, which end a field or a line."""
    return "\t" in text or "\r" in text or "\n" in text


def _read_only(values, rule: str, shape_tail: tuple[int, ...] = (), copy: bool = False) -> np.ndarray:
    """A read-only int64 array of ``values``: a copy if ``copy``, else a
    view, and an array passed in stays writeable.  A value past int64
    raises ValueError(``rule``)."""
    try:
        array = np.array(values, dtype=np.int64, order="C", copy=copy or None).view()
    except OverflowError:
        raise ValueError(rule) from None
    if array.shape[1:] != shape_tail:
        raise ValueError(f"expected {1 + len(shape_tail)}-d int64 rows, got shape {array.shape}")
    array.flags.writeable = False
    return array


def _codes(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each entry's index among them."""
    distinct = sorted(set(ids))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def _check_ids(name: str, ids: list[str]) -> None:
    if not all(ids):
        raise ValueError("user and item identifiers must be non-empty")
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError(f"{name} ids must be strictly increasing")


def _check_codes(name: str, ids: list[str], codes) -> np.ndarray:
    _check_ids(name, ids)
    outside = f"{name} codes must index the {len(ids)} {name} ids"
    codes = _read_only(codes, outside)
    if len(codes) and not 0 <= codes.min() <= codes.max() < len(ids):
        raise ValueError(outside)
    return codes


@dataclass(frozen=True, eq=False)
class RatingLog:
    """Raw events as coded parallel columns; duplicates permitted until
    preprocessing.  Event k: user ``user_ids[users[k]]`` saved item
    ``item_ids[items[k]]`` at ``timestamps[k]`` (s).  The id lists hold
    each distinct id once, in sorted order; ``users``, ``items`` and
    ``timestamps`` are read-only int64 arrays.  ``skipped`` counts
    malformed lines dropped while parsing.  ``from_ids`` builds one from
    per-event id strings.

    Raises ValueError unless the columns have equal lengths, every
    identifier is non-empty, each id list is strictly increasing, every
    code indexes its id list and every timestamp is in [0, 2**63 - 1].
    """

    user_ids: list[str]
    item_ids: list[str]
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    skipped: int = 0

    def __post_init__(self) -> None:
        stamps = _read_only(self.timestamps, "timestamps must be in [0, 2**63 - 1]")
        users = _check_codes("user", self.user_ids, self.users)
        items = _check_codes("item", self.item_ids, self.items)
        if not len(users) == len(items) == len(stamps):
            raise ValueError("users, items and timestamps must have equal lengths")
        if len(stamps) and stamps.min() < 0:
            raise ValueError(f"timestamps must be in [0, 2**63 - 1], got {stamps.min()}")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "timestamps", stamps)

    @classmethod
    def from_ids(cls, users: list[str], items: list[str], timestamps) -> "RatingLog":
        """The log whose event k is (``users[k]``, ``items[k]``,
        ``timestamps[k]``); raises ValueError as the constructor does."""
        user_ids, user_codes = _codes(users)
        item_ids, item_codes = _codes(items)
        return cls(user_ids, item_ids, user_codes, item_codes, timestamps)

    def __len__(self) -> int:
        return len(self.timestamps)


_TAB, _LF, _CR, _ZERO = 9, 10, 13, 48
# Digits of a stamp summed in uint64: the last 19 (10**19 - 1 < 2**64);
# any before them must be 0 for the stamp to fit in int64.
_STAMP_DIGITS = len(str(MAX_TIMESTAMP))


def _factorize(raw: bytes, starts: np.ndarray, widths: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct fields ``raw[starts[k]:starts[k] + widths[k]]``,
    decoded, and each field's index among them.

    Fields of one width are packed, eight bytes to a uint64 word, into
    keys; sorting the keys groups equal fields, and only the first of each
    group is decoded.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty(len(starts), dtype=np.int64)
    names: list[str] = []
    by_width = np.argsort(widths, kind="stable")
    cuts = np.flatnonzero(np.diff(widths[by_width])) + 1
    for rows in np.split(by_width, cuts) if len(by_width) else ():
        width = int(widths[rows[0]])
        first = starts[rows]
        keys = np.zeros((len(rows), -(-width // 8)), dtype=np.uint64)
        pos = np.empty(len(rows), dtype=np.int64)
        byte = np.empty(len(rows), dtype=np.uint8)
        for b in range(width):
            word = keys[:, b // 8]
            np.add(first, b, out=pos)
            np.take(data, pos, out=byte)
            word <<= np.uint64(8)
            word |= byte
        order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
        keys = keys[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        codes[rows[order]] = len(names) - 1 + np.cumsum(new)
        for p in first[order[new]].tolist():
            names.append(raw[p:p + width].decode("utf-8", "surrogatepass"))
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return [names[k] for k in order], rank[codes]


def _split_lines(data: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The number of lines in ``data``, bytes that end in LF, and for each
    line of exactly two tabs its first byte, its tabs and its end, trailing
    CRs stripped."""
    end = np.flatnonzero(data == _LF)
    start = np.empty_like(end)
    start[:1] = 0
    np.add(end[:-1], 1, out=start[1:])
    # a line ending at byte 0 reads the last byte, an LF
    crs = data[end - 1] == _CR
    if crs.any():
        run_starts = data == _CR
        run_starts[1:] &= ~run_starts[:-1]
        run_starts = np.flatnonzero(run_starts)
        end[crs] = run_starts[np.searchsorted(run_starts, end[crs]) - 1]
    tabs = np.flatnonzero(data == _TAB)
    first_tab = np.searchsorted(tabs, start)
    two_tabs = np.searchsorted(tabs, end) - first_tab == 2
    first_tab = first_tab[two_tabs]
    return len(end), start[two_tabs], tabs[first_tab], tabs[first_tab + 1], end[two_tabs]


def _parse_stamps(
    data: np.ndarray, tab: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 value of each field ``data[tab + 1:end]``, and whether it
    is a timestamp: one or more ASCII digits worth at most 2**63 - 1."""
    width = end - tab - 1
    valid = width > 0
    stamps = np.zeros(len(width), dtype=np.uint64)
    term = np.empty_like(stamps)
    pos = np.empty_like(width)
    digit = np.empty(len(width), dtype=np.uint8)
    inside = np.empty(len(width), dtype=bool)
    # one digit column at a time from the right
    for k in range(min(_STAMP_DIGITS, int(width.max(initial=0)))):
        np.subtract(end, k + 1, out=pos)
        np.take(data, pos, out=digit, mode="clip")
        digit -= np.uint8(_ZERO)  # a byte that is no ASCII digit wraps above 9
        np.greater(width, k, out=inside)
        digit *= inside  # a column left of the field counts 0
        np.less_equal(digit, 9, out=inside)
        valid &= inside
        stamps += np.multiply(digit, 10**k, out=term, dtype=np.uint64)
    long = np.flatnonzero(valid & (width > _STAMP_DIGITS))
    if len(long):
        bounds = np.empty(2 * len(long), dtype=np.int64)
        np.add(tab[long], 1, out=bounds[0::2])
        np.subtract(end[long], _STAMP_DIGITS, out=bounds[1::2])
        valid[long] = ~np.logical_or.reduceat(data != _ZERO, bounds)[0::2]
    valid &= stamps <= np.uint64(MAX_TIMESTAMP)
    return stamps, valid


def parse_events(stream: IO[str]) -> RatingLog:
    """Parse an event log stream into a RatingLog.

    The text stream is read whole and parsed with array passes over its
    UTF-8 bytes, so the parse holds a few times the text's size at once.
    Lines end at each LF of the text the stream returns (a file opened in
    text mode returns CR and CRLF as LF); trailing CRs are stripped, and
    a last line without LF counts.  Each line is
    ``user<TAB>item<TAB>timestamp``.  Malformed lines (wrong field count,
    a timestamp that is not a string of ASCII digits or exceeds
    2**63 - 1, empty identifiers) are skipped and counted, not fatal.
    I/O errors propagate.
    """
    # surrogatepass: an io.StringIO can return a lone surrogate
    raw = stream.read().encode("utf-8", "surrogatepass")
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    data = np.frombuffer(raw, dtype=np.uint8)
    n_lines, start, tab1, tab2, end = _split_lines(data)
    stamps, valid = _parse_stamps(data, tab2, end)
    valid &= (tab1 > start) & (tab2 > tab1 + 1)
    start, tab1, tab2 = start[valid], tab1[valid], tab2[valid]
    timestamps = stamps[valid].astype(np.int64)
    del stamps, valid, end  # the id passes set the parse's peak
    user_ids, users = _factorize(raw, start, tab1 - start)
    item_ids, items = _factorize(raw, tab1 + 1, tab2 - tab1 - 1)
    return RatingLog(user_ids, item_ids, users, items, timestamps, n_lines - len(timestamps))


def write_events(log: RatingLog, fh: IO[str]) -> None:
    """Write a RatingLog as ``user<TAB>item<TAB>timestamp`` lines ending
    in LF, one per event in order.

    An id holding a tab, CR or LF would not read back as the same event,
    so the first such id, in event order, is named in a ValueError before
    anything is written.
    """
    user_ids, item_ids = log.user_ids, log.item_ids
    breaks = [np.array(list(map(_breaks_a_line, ids)), dtype=bool) for ids in (user_ids, item_ids)]
    broken = breaks[0][log.users] | breaks[1][log.items]
    if broken.any():
        k = int(broken.argmax())
        user, item = user_ids[log.users[k]], item_ids[log.items[k]]
        bad = user if _breaks_a_line(user) else item
        raise ValueError(f"identifier {bad!r} holds a tab, CR or LF and cannot be written")
    rows = zip(log.users.tolist(), log.items.tolist(), log.timestamps.tolist())
    fh.writelines(f"{user_ids[u]}\t{item_ids[i]}\t{stamp}\n" for u, i, stamp in rows)

@dataclass(frozen=True, eq=False)
class Dataset:
    """Indexed, preprocessed ratings in one CSR-style layout.

    User u's ratings are rows ``indptr[u]`` to ``indptr[u + 1]`` of the
    (n_ratings, 2) int64 array ``ratings``, whose columns are the item
    index and the timestamp.  Dense indices are assigned in sorted order of
    the external identifiers, so identical inputs always produce identical
    indexing.  A training set has the same layout, restricted to non-probe
    ratings; excluded users keep an empty profile under the same index.

    Raises ValueError unless the ids follow ``RatingLog``'s rules, ``indptr``
    runs from 0 to n_ratings in n_users + 1 offsets without falling, item
    indices lie in [0, n_items), timestamps in [0, 2**63 - 1] and each
    profile strictly rises in (timestamp, item).  The fields are copies of
    the arguments, the arrays read-only, so the rules hold for the life of
    the Dataset: the build, the queries, the split and the ssnr pass trust
    them and do not check them again.
    """

    user_ids: list[str]
    item_ids: list[str]
    indptr: np.ndarray
    ratings: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "user_ids", list(self.user_ids))
        object.__setattr__(self, "item_ids", list(self.item_ids))
        _check_ids("user", self.user_ids)
        _check_ids("item", self.item_ids)
        offsets_rule = "indptr must run from 0 to n_ratings in n_users + 1 offsets without falling"
        rows_rule = f"ratings must hold item indices in [0, {self.n_items}) and timestamps in [0, 2**63 - 1]"
        indptr = _read_only(self.indptr, offsets_rule, copy=True)
        ratings = _read_only(self.ratings, rows_rule, (2,), copy=True)
        falls = len(indptr) != self.n_users + 1 or np.any(indptr[1:] < indptr[:-1])
        if falls or indptr[0] != 0 or indptr[-1] != len(ratings):
            raise ValueError(offsets_rule)
        items, stamps = ratings[:, 0], ratings[:, 1]
        if len(ratings) and not 0 <= items.min() <= items.max() < self.n_items:
            raise ValueError(f"an item index lies outside [0, {self.n_items})")
        if len(ratings) and stamps.min() < 0:
            raise ValueError(f"timestamps must be in [0, 2**63 - 1], got {stamps.min()}")
        rising = stamps[1:] > stamps[:-1]
        rising |= (stamps[1:] == stamps[:-1]) & (items[1:] > items[:-1])
        starts = indptr[(indptr > 0) & (indptr < len(ratings))]
        rising[starts - 1] = True  # a profile's first row follows another's last
        if not rising.all():
            user = int(np.searchsorted(indptr, rising.argmin(), side="right")) - 1
            raise ValueError(f"user {user}'s ratings are not strictly increasing in (timestamp, item)")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "ratings", ratings)

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
            "excluded_users": int(np.count_nonzero(np.diff(self.indptr) < 2)),
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


def preprocess(log: RatingLog) -> Dataset:
    """Deduplicate, filter single-user items, and index an event log.

    Duplicate (user, item) pairs collapse to the earliest timestamp.
    Items rated by fewer than two distinct users are removed, then users
    left with empty profiles.  One pass reaches the fixed point: dropping
    an item never changes another item's count of distinct users.  An
    empty Dataset is a legal result.  Idempotent up to index relabeling.
    """
    n_items = len(log.item_ids)
    pairs = log.users * n_items + log.items
    # each pair's run in this order starts with its earliest rating
    order = np.lexsort((log.timestamps, pairs))
    pairs, stamps = pairs[order], log.timestamps[order]
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    users, items = np.divmod(pairs[first], n_items)
    stamps = stamps[first]
    kept_items = np.bincount(items, minlength=n_items) >= 2
    keep = kept_items[items]
    users, items, stamps = users[keep], items[keep], stamps[keep]
    kept_users = np.bincount(users, minlength=len(log.user_ids)) > 0
    # kept ids stay in sorted order, so a rank among them is the new index
    users = (np.cumsum(kept_users) - 1)[users]
    items = (np.cumsum(kept_items) - 1)[items]
    # the rows are in (user, item) order, so a stable sort by (user, time)
    # leaves them in (user, time, item) order
    order = np.lexsort((stamps, users))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=kept_users.sum()))))
    return Dataset(
        [log.user_ids[k] for k in np.flatnonzero(kept_users).tolist()],
        [log.item_ids[k] for k in np.flatnonzero(kept_items).tolist()],
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
