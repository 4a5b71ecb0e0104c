"""Tracers the workloads call the package through.

Every call a workload makes into a layer goes through ``tracer.call(name, fn,
*args)``, and every part of an operation sits under ``tracer.span(name)``.  The
three tracers give the three passes of one benchmark run the same code path:

* ``Untraced`` does nothing but call: the timed pass.
* ``Spans`` records a span per call (name, start, end, parent span, op id),
  keeps them in memory and writes them out when the pass ends: the traced pass.
* ``AllocPeaks`` records the ``tracemalloc`` peak of each call, relative to
  the memory in use when it started: the memory pass.  It never runs in a
  pass whose times are reported.
"""
from __future__ import annotations

import contextlib
import csv
import time
import tracemalloc

_NO_SPAN = contextlib.nullcontext()


class Untraced:
    op_id = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return _NO_SPAN


class Spans:
    """In-memory span log; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.op_id = -1
        # (span id, parent id or -1, op id or -1, name, start ns, end ns)
        self.rows: list[tuple[int, int, int, str, int, int]] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.rows)
        parent = self._open[-1] if self._open else -1
        self.rows.append((sid, parent, self.op_id, name, 0, 0))
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.rows[sid] = (sid, parent, self.op_id, name, start, end)

    def busy_and_self(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per name: summed duration, summed self time (seconds), span count.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap because the benchmark runs on one
        thread.
        """
        child_ns = [0] * len(self.rows)
        for _sid, parent, _op, _name, start, end in self.rows:
            if parent >= 0:
                child_ns[parent] += end - start
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, _parent, _op, name, start, end in self.rows:
            busy[name] = busy.get(name, 0.0) + (end - start) * 1e-9
            own[name] = own.get(name, 0.0) + (end - start - child_ns[sid]) * 1e-9
            calls[name] = calls.get(name, 0) + 1
        return busy, own, calls

    def per_op_busy(self) -> dict[int, dict[str, float]]:
        """Summed duration per op id and name, for spans inside an op."""
        out: dict[int, dict[str, float]] = {}
        for _sid, _parent, op, name, start, end in self.rows:
            if op >= 0:
                slot = out.setdefault(op, {})
                slot[name] = slot.get(name, 0.0) + (end - start) * 1e-9
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "parent", "op", "name", "start_ns", "end_ns"))
            w.writerows(self.rows)


class AllocPeaks:
    """Largest tracemalloc peak per call name, in bytes above the call's start."""

    op_id = -1

    def __init__(self) -> None:
        self.peak: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            rise = tracemalloc.get_traced_memory()[1] - base
            if rise > self.peak.get(name, 0):
                self.peak[name] = rise

    def span(self, name):
        return _NO_SPAN
