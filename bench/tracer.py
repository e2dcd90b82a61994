"""In-memory span tracer that instruments a package from outside it.

A span records one call at a layer boundary: the operation it belongs to,
the span that caused it, its name, start and end.  Calls are strictly
nested in one thread, so a span's self time is its duration minus the sum
of its direct children's durations.  Spans stay in memory until the caller
writes them out with :meth:`Tracer.write_jsonl`.

Wrappers are installed by :meth:`Tracer.patch` and removed by
:meth:`Tracer.unpatch`; outside an open operation they call straight
through, so code the benchmark runs between operations (input generation,
output checks) is never recorded.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    op: int
    ident: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []
        self._ops = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        """Start a span; one opened with no span open starts a new operation."""
        if self._stack:
            parent = self._stack[-1]
            op, parent_id = parent.op, parent.ident
        else:
            self._ops += 1
            op, parent_id = self._ops, None
        span = Span(op, len(self.spans), parent_id, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def count(self, name: str) -> None:
        if self._stack:
            self.counts[name] = self.counts.get(name, 0) + 1

    # -- wrappers ------------------------------------------------------------

    def traced(self, fn, name: str, annotate=None):
        """``fn`` wrapped in a span; ``annotate(span, args, kwargs, result)``
        may rename the span or add counts to ``span.extra`` after it closes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, name: str):
        """``fn`` wrapped to count calls without timing them, for functions
        too small and frequent to time without distorting their callers."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, wrapper_for, modules=()) -> None:
        """Replace ``owner.attr`` by ``wrapper_for(original)``, and every
        binding of the same original object in ``modules`` too, so copies
        made by ``from x import f`` are wrapped as well."""
        original = getattr(owner, attr)
        wrapper = wrapper_for(original)
        targets = [(owner, attr)]
        for module in modules:
            for name, value in vars(module).items():
                if value is original and (module, name) != (owner, attr):
                    targets.append((module, name))
        for obj, name in targets:
            self._patched.append((obj, name, original))
            setattr(obj, name, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            obj, name, original = self._patched.pop()
            setattr(obj, name, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed self time, and summed extra counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            for key, value in span.extra.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "id": s.ident, "parent": s.parent,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "self_s": s.self_s, **s.extra}) + "\n")
