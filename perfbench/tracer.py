"""Outside-in span tracer.

The tracer replaces attributes of modules and classes with wrappers that
record one span per call: name, parent span, start and end.  Nothing inside
the traced program changes; every wrapped attribute is put back by
``restore``.  A span's self time is its duration minus the durations of its
child spans, which nest because the benchmark runs on one thread.

A wrapped call costs more than a plain call: the wrapper's own frame and the
bookkeeping on either side of the span land in the caller's self time, and
the bookkeeping inside the span in the callee's.  ``calibrate`` measures both
parts on an empty function; ``self_times`` then takes them from the spans
that carry them and reports them under ``trace.span_cost``.
"""
from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

COUNTERS_SPAN = "trace.counters"
SPAN_COST = "trace.span_cost"


class Tracer:
    """Spans are kept in parallel arrays (name id, parent index, start, end)
    so that a pass with a million oracle calls stays a few tens of MB."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.outer_cost = self.inner_cost = 0.0  # seconds per span; see calibrate()

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        kind = self._name_ids.get(name)
        if kind is None:
            kind = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def clear(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        for arr in (self.kind, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()
        self.peaks.clear()

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a method defined on a
        class) by a wrapper recording a span named ``name``.  ``on_result``
        reads counters from the return value inside a ``trace.counters``
        span, so the reading is not charged to the caller's self time.
        Calls that raise are counted as ``<name>.errors``."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                tracer.finish(index)
            if on_result is not None:
                with tracer.span(COUNTERS_SPAN):
                    on_result(tracer, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calibrate(self, calls: int = 2000, rounds: int = 7) -> tuple[float, float]:
        """Set ``outer_cost``, what a wrapped call of an empty function costs
        its caller beyond a plain call, and ``inner_cost``, the self time of
        its span, both in seconds.  The least of ``rounds`` estimates is
        kept, so that the correction errs low."""

        def empty(a, b):  # a method with one argument, as most traced calls are
            pass

        probe = Tracer(self.clock)
        plain, wrapped = types.SimpleNamespace(f=empty), types.SimpleNamespace(f=empty)
        probe.wrap(wrapped, "f", "child")
        outer, inner = [], []
        for _ in range(rounds):
            probe.clear()
            with probe.span("parent"):
                for _ in range(calls):
                    wrapped.f(1, 2)
            t0 = self.clock()
            for _ in range(calls):
                plain.f(1, 2)
            bare = self.clock() - t0
            own = probe.self_times()
            outer.append((own["parent"] - bare) / calls)
            inner.append(own["child"] / calls)
        self.outer_cost = max(0.0, min(outer))
        self.inner_cost = max(0.0, min(inner))
        return self.outer_cost, self.inner_cost

    # -- reading ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name.  The calibrated wrapper cost
        of every span is taken from the span and its parent and reported
        under ``trace.span_cost``."""
        n = len(self.kind)
        covered = [self.inner_cost] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i] + self.outer_cost
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.kind[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) - covered[i]
        if self.outer_cost or self.inner_cost:
            nested = sum(1 for p in self.parent if p >= 0)
            out[SPAN_COST] = self.outer_cost * nested + self.inner_cost * n
        return out

    def count(self, name: str, parent: Optional[str] = None) -> int:
        """Number of spans named ``name``, optionally only those whose
        parent span is named ``parent``."""
        kind = self._name_ids.get(name)
        if kind is None:
            return 0
        if parent is None:
            return sum(1 for k in self.kind if k == kind)
        pkind = self._name_ids.get(parent)
        return sum(
            1
            for k, p in zip(self.kind, self.parent)
            if k == kind and p >= 0 and self.kind[p] == pkind
        )

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows: id, parent id, name, start and
        duration in ms relative to the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ms\tdur_ms\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.kind[i]]}\t"
                    f"{(self.start[i] - origin) * 1e3:.4f}\t"
                    f"{(self.end[i] - self.start[i]) * 1e3:.4f}\n"
                )
