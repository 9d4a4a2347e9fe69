"""Spans and counters recorded around the package's public functions.

`Tracer.wrap` replaces a function on its owner (a module or a class) with a
wrapper that records one span per call; `Tracer.restore` puts every original
back. A function is wrapped under the name its caller looks it up by: `cli`
imports `summarize` by name, so `viewsched.cli.summarize` is wrapped, not only
`viewsched.metrics.summarize`.

Spans are kept in memory as (name, start, end, parent). A span's self time is
its duration minus the durations of its direct children. Calls nest strictly
(one thread, no re-entry across spans), so children never overlap and their
durations can simply be summed.
"""

from __future__ import annotations

import time
import types
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# observe(tracer, args, kwargs, result) runs after each successful call and
# adds to `tracer.counts`; it is not timed as part of the span.
Observer = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; returns its index (used by tests)."""
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        return len(self.span_start) - 1

    def wrap(self, owner: Any, attr: str, name: str, observe: Optional[Observer] = None) -> None:
        original = vars(owner)[attr]
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_ms(self) -> Dict[str, float]:
        """Self time per span name, in ms, summed over all spans."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: Dict[str, float] = defaultdict(float)
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            out[self.names[self.span_name[i]]] += (dur - child[i]) * 1000.0
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name_id in self.span_name:
            out[self.names[name_id]] += 1
        return dict(out)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds to a bare call, measured on a no-op."""
    ns = types.SimpleNamespace(noop=lambda: None)
    bare = ns.noop
    tr = Tracer()
    tr.wrap(ns, "noop", "noop")
    wrapped = ns.noop
    tr.restore()
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        bare()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
