"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into a ``driftcf`` layer.  Span
names are ``layer.call`` (``dataset.parse``, ``similarity.build``) or
``bench.*`` for the benchmark's own grouping spans, which belong to no
layer.  Spans are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullRecorder:
    """Recorder used for the untraced repetitions: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


class SpanRecorder:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.trace_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer; ``bench.*`` grouping spans are left out."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            if s.layer != "bench":
                out[s.layer] = out.get(s.layer, 0.0) + t
        return out
