"""Span tracing applied from outside the program.

The benchmark never edits the code it measures. In a traced run it
replaces chosen public methods (on their classes or modules) with
wrappers that record one span per call: name, start, end and the span
that was open on the same thread when the call began. Spans stay in
memory and are written out once, when the run ends.

A span's *self time* is its duration minus the time covered by its
direct children; children on one thread never overlap, so the self
times of a span and all its descendants add up to that span exactly.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]

# One recorded span: (id, parent id or 0, name, thread id, start, end, self).
Span = Tuple[int, int, str, int, float, float, float]


class Tracer:
    """Collects spans from wrapped callables; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else 0, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, t0: float, t1: float) -> None:
        stack = self._stack()
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], frame[1], name, threading.get_ident(),
                           t0, t1, duration - frame[2]))

    # ------------------------------------------------------------------
    def span(self, name: str) -> "_SpanContext":
        """A span around a block of the benchmark's own code."""
        return _SpanContext(self, name)

    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Callable[[Any, tuple], float]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(result, args)``, when given, adds to the counter ``name``
        once per call (e.g. rows returned), so ratios are measured at the
        same boundary as the time.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, name, t0, time.perf_counter())
            if count is not None:
                value = count(result, args)
                with tracer._count_lock:
                    tracer.counts[name] += value
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def descendants(self, root_id: int) -> List[Span]:
        """The spans below ``root_id`` (any depth), root excluded."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        out: List[Span] = []
        todo = [root_id]
        while todo:
            for span in children.get(todo.pop(), ()):
                out.append(span)
                todo.append(span[0])
        return out

    def summary(self, spans: Optional[List[Span]] = None
                ) -> Dict[str, Dict[str, float]]:
        """``name -> {count, total_s, self_s}`` over ``spans`` (default all)."""
        out: Dict[str, Dict[str, float]] = {}
        for _, _, name, _, t0, t1, self_s in (self.spans if spans is None
                                               else spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += self_s
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (done once, at the end)."""
        with open(path, "w") as fh:
            for span_id, parent, name, tid, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "thread": tid,
                                     "start": t0, "end": t1,
                                     "self": self_s}) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name
        self.id = 0

    def __enter__(self) -> "_SpanContext":
        self._frame = self.tracer._enter()
        self.id = self._frame[0]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self._frame, self.name, self._t0, time.perf_counter())
