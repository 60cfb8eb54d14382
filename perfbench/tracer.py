"""In-memory span recorder for the traced benchmark run.

A span is one call into a tsplab layer made from the benchmark's own code:
a name, start and end (seconds on ``time.perf_counter``), the id of the span
that caused it, and the id of the solve it belongs to, so every span of one
solve can be grouped.  Spans stay in memory and are written out once, when
the run ends.  A disabled tracer records nothing and costs one attribute
test per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    solve: int | None


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._solves = 0

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Record ``name`` around the ``with`` body.

        ``root=True`` opens a new solve id that the span and its children
        carry; otherwise the span inherits the enclosing span's solve id.
        """
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if root:
            self._solves += 1
            solve = self._solves
        else:
            solve = parent.solve if parent else None
        s = Span(len(self.spans) + 1, name, time.perf_counter(), 0.0,
                 parent.id if parent else None, solve)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        child = {s.id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "self_time_s": self.self_times(),
               "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc, indent=1) + "\n")
