"""Spans recorded from outside the program, kept in memory.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span (or None). ``Tracer.call`` records one around a public call;
``Tracer.patched`` swaps a module or class attribute for a wrapper that
records one span per call and restores the attribute on exit. One thread
records, so spans nest strictly and a parent's children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # rows passed to wrappers made with rows=True
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, rows: bool = False):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), None])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
                if rows:
                    counts[name + ".rows"] += len(args[0])

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self._wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self, owner, attr: str, name: str, rows: bool = False):
        """Trace every call of ``owner.attr``; ``rows`` also counts len(first arg)."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, rows))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, from span index ``first`` on: total time, self time
        (duration minus the time its child spans cover) and call count."""
        child_time: dict[int, float] = defaultdict(float)
        for name, parent, start, end in self.spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, parent, start, end) in enumerate(self.spans[first:], start=first):
            t = out[name]
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["calls"] += 1
        return dict(out)

    def dump(self, path, **meta) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    **meta,
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "spans": [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans],
                    "counts": dict(self.counts),
                },
                f,
            )
