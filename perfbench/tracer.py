"""Outside-in tracer: spans and counters recorded around public functions.

The tracer patches module attributes from outside the program, so nothing
under `src/` knows it exists. Each patched call records one span (name,
start, end, parent span, run id) and may bump counters from its arguments,
result or exception. Everything stays in memory until `dump` writes it once.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str | None, on_result=None, on_error=None):
        """`fn` wrapped to record a span `name` (None: counters only).

        `on_result(tracer, args, kwargs, result)` runs after a call returns
        and `on_error(tracer, exc)` after one raises.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = None
            if name is not None:
                parent = self._stack[-1].id if self._stack else None
                span = Span(len(self.spans), name, 0.0, 0.0, parent,
                            self.run_id)
                self.spans.append(span)
                self._stack.append(span)
                span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                if span is not None:
                    span.end = time.perf_counter()
                    self._stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return traced

    # -- patching --------------------------------------------------------

    def patch(self, module, attr: str, name: str | None, on_result=None,
              on_error=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_result, on_error))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def dump(tracers, path: str) -> None:
    """Write every tracer's spans and counters to one JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"run_id": t.run_id,
                    "spans": [asdict(s) for s in t.spans],
                    "counters": t.counters} for t in tracers], fh)


def self_times(spans) -> dict:
    """{span id: duration minus the part of it its child spans cover}.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def total_time(spans, names) -> float:
    """Inclusive time of spans named in `names`, counting each interval once.

    A span nested inside another span of the same set (recursion, or one
    public function calling another) adds nothing of its own.
    """
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            total += s.end - s.start
    return total


def total_self_time(spans, names) -> float:
    st = self_times(spans)
    return sum(st[s.id] for s in spans if s.name in names)
