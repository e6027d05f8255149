"""perfbench's own span recorder: spans around calls *into* a layer.

A span is ``(id, parent, op, name, layer, workload, rung, start_ns,
end_ns)``.  Each operation has one root span (layer ``bench``) from its
first call to its last return; the calls it made into the stack are its
children.  Children have no children of their own (spans *inside* ``src/``
are a later issue), so a call span's duration is the self time of
everything beneath that boundary, and a root's duration minus its
children is the time the operation waited its turn in the window.  Spans
stay in memory and are written once, at exit.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

from .workloads import IO

FIELDS = ("id", "parent", "op", "name", "layer", "workload", "rung",
          "start_ns", "end_ns")


class SpanRecorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Child spans of the current rung: (op, name, layer, start, end).
        self._calls: List[Tuple[int, str, str, int, int]] = []
        self._next_op = 0
        self.spans: List[tuple] = []

    # -- recording -------------------------------------------------------
    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    def add(self, op: int, name: str, layer: str, start: int, end: int) -> None:
        self._calls.append((op, name, layer, start, end))

    def call(self, name: str, layer: str, fn, *args):
        """``fn(*args)`` as a one-call operation."""
        started = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.add(self.new_op(), name, layer, started, time.perf_counter_ns())

    def traced(self, io: IO, layer: str) -> IO:
        """``io`` with every call recorded.  A handle travels with its
        operation's id, so a fetch joins the submit that caused it."""
        clock = time.perf_counter_ns

        def submit(sql, params):
            op = self.new_op()
            started = clock()
            handle = io.submit(sql, params)
            self.add(op, "submit", layer, started, clock())
            return op, handle

        def fetch(pair):
            op, handle = pair
            started = clock()
            try:
                return io.fetch(handle)
            finally:
                self.add(op, "fetch", layer, started, clock())

        def write(sql, params):
            return self.call("write", layer, io.write, sql, params)

        def execute(sql, params):
            return self.call("execute", layer, io.execute, sql, params)

        return IO(submit, fetch, write, execute)

    # -- rungs -----------------------------------------------------------
    def close_rung(self, rung: str) -> Dict[str, float]:
        """Turn the calls recorded since the last close into spans under
        one root per operation; returns total µs per call name, and the
        operation count as ``"ops"``."""
        totals: Dict[str, float] = {}
        by_op: Dict[int, List[tuple]] = {}
        for call in self._calls:
            by_op.setdefault(call[0], []).append(call)
            totals[call[1]] = totals.get(call[1], 0.0) + (call[4] - call[3]) / 1e3
        for op, calls in by_op.items():
            root = len(self.spans) + 1
            self.spans.append((
                root, None, op, "op", "bench", self.workload, rung,
                min(call[3] for call in calls), max(call[4] for call in calls),
            ))
            for _op, name, layer, start, end in calls:
                self.spans.append((
                    len(self.spans) + 1, root, op, name, layer,
                    self.workload, rung, start, end,
                ))
        totals["ops"] = len(by_op)
        self._calls = []
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": FIELDS, "spans": self.spans}, out,
                      separators=(",", ":"))
            out.write("\n")

