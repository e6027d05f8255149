"""End-to-end query tracing: spans, span trees, and a ring-buffer recorder.

One query submitted through the pipeline yields a *span tree* — a root
``query`` span with children for each lifecycle stage it actually
crossed::

    query                       (root; sql, mode, cache outcome, ...)
    ├── cache                   (lookup: hit / follower / miss / bypass)
    ├── coalesce                (set-oriented dispatch: queue residency)
    ├── dispatch                (round trip; solo dispatches only)
    │   └── server.execute      (plan execution, demux — same thread)
    └── fetch                   (application-thread wait)

A *coalesced batch* is the one deliberate deviation from a strict tree:
the batch's single ``dispatch`` span (and its ``server.execute`` child)
is shared by every member query.  It starts its own trace, carries
``links`` back to each member's root span, and each member root carries
``dispatch_span: <id>`` — N causally-linked trees sharing one
server-execute span.

Speculative queries are ordinary traces whose root carries
``mode: "speculate"`` plus, once settled, ``wasted: true|false``.  A
wasted speculation's spans never attach to any other query's tree.

Design constraints (this sits on every hot path):

* **no-op when disabled** — instrumented code holds ``tracer=None`` (or
  checks :attr:`Tracer.enabled` once per request) and skips span
  construction entirely; the per-request overhead of a disabled tracer
  is a single attribute load and ``None`` test;
* **bounded memory** — finished spans land in a ring buffer
  (``capacity`` spans, oldest dropped first); an unfinished span is
  never recorded;
* **thread-friendly** — spans are handed across threads explicitly (the
  pipeline passes the parent into the executor task, the coalescer into
  the server call), so there is no context-variable magic to lose track
  of; id allocation and recording take one small lock.

>>> tracer = Tracer()
>>> with tracer.start("query", sql="SELECT 1") as root:
...     with root.child("server.execute") as child:
...         _ = child.set("rows", 1)
>>> [span.name for span in tracer.spans()]
['server.execute', 'query']
>>> tracer.spans()[0].parent_id == tracer.spans()[1].span_id
True
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional


class Span:
    """One timed, attributed node of a trace.

    Created through :meth:`Tracer.start` or :meth:`Span.child`; records
    itself into the tracer's ring buffer exactly once, on :meth:`end`
    (also triggered by leaving it as a context manager).  Attributes
    set after the end still show up — the buffer holds the object, not
    a serialization — which is how late settles (a speculation swept as
    wasted, then reclassified by a slow fetch) stay truthful.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "attrs",
        "links",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        #: Span ids this span is causally linked to without being their
        #: parent — the batched-dispatch span links every member root.
        self.links: List[int] = []

    # ------------------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> Optional[float]:
        """Wall duration (None until ended)."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def set(self, key: str, value: Any) -> "Span":
        """Set one attribute; returns self for chaining."""
        self.attrs[key] = value
        return self

    def link(self, span_id: int) -> "Span":
        """Causally link another span without parenting it."""
        self.links.append(span_id)
        return self

    def child(self, name: str, **attrs: Any) -> "Span":
        """Start a child span in the same trace."""
        return self.tracer.start(name, parent=self, **attrs)

    def end(self) -> "Span":
        """Finish the span and record it (idempotent)."""
        if self.end_s is None:
            self.end_s = time.perf_counter()
            self.tracer._record(self)
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = repr(exc)
        self.end()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view of the span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "links": list(self.links),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration_s * 1e3:.3f}ms" if self.ended else "open"
        return (
            f"<Span {self.name!r} t{self.trace_id}/s{self.span_id} {state}>"
        )


class Tracer:
    """Span factory plus bounded ring-buffer recorder.

    ``enabled=False`` makes recording a no-op; instrumented code is
    expected to skip span *creation* too (the pipeline holds
    ``tracer=None`` unless tracing was requested), so a quiescent system
    pays nothing.  ``capacity`` bounds retained finished spans.
    """

    def __init__(self, capacity: int = 4096, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._enabled = enabled
        self._lock = threading.Lock()
        self._buffer: "deque[Span]" = deque(maxlen=capacity)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    # ------------------------------------------------------------------
    def start(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Start a span — a new trace when ``parent`` is None."""
        with self._lock:
            span_id = next(self._span_ids)
            trace_id = (
                parent.trace_id if parent is not None else next(self._trace_ids)
            )
        return Span(
            self,
            name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )

    def _record(self, span: Span) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._buffer.append(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of recorded (finished) spans, oldest first."""
        with self._lock:
            return list(self._buffer)

    def trace(self, trace_id: int) -> List[Span]:
        """Recorded spans of one trace, oldest first."""
        return [span for span in self.spans() if span.trace_id == trace_id]

    def traces(self) -> Dict[int, List[Span]]:
        """Recorded spans grouped by trace id."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def export(self) -> List[Dict[str, Any]]:
        """All recorded spans as plain dicts (JSON-ready)."""
        return [span.to_dict() for span in self.spans()]

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    # ------------------------------------------------------------------
    # rendering (the ``repro trace`` CLI)
    # ------------------------------------------------------------------
    def format_traces(self) -> str:
        """Render every recorded trace as an indented tree."""
        lines: List[str] = []
        for trace_id, spans in sorted(self.traces().items()):
            lines.append(f"trace {trace_id}")
            by_parent: Dict[Optional[int], List[Span]] = {}
            for span in spans:
                parent = span.parent_id
                if parent is not None and not any(
                    other.span_id == parent for other in spans
                ):
                    parent = None  # orphan (parent unrecorded): show at root
                by_parent.setdefault(parent, []).append(span)

            def walk(parent_id: Optional[int], depth: int) -> None:
                for span in sorted(
                    by_parent.get(parent_id, []), key=lambda s: s.start_s
                ):
                    duration = span.duration_s
                    timing = (
                        f"{duration * 1e3:.3f}ms" if duration is not None else "open"
                    )
                    attrs = ", ".join(
                        f"{key}={value!r}" for key, value in sorted(span.attrs.items())
                    )
                    links = (
                        f" links={span.links}" if span.links else ""
                    )
                    lines.append(
                        "  " * (depth + 1)
                        + f"{span.name} [s{span.span_id}] {timing}"
                        + (f" ({attrs})" if attrs else "")
                        + links
                    )
                    walk(span.span_id, depth + 1)

            walk(None, 0)
        return "\n".join(lines)
