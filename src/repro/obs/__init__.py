"""Observability: end-to-end query tracing + unified metrics.

Two small, dependency-free subsystems that every layer of the stack
reports into:

* :mod:`repro.obs.trace` — a lightweight span API.  One query yields a
  causally-linked span tree (submit → cache → coalesce → dispatch →
  server execute → fetch) recorded into a bounded ring buffer; a
  disabled tracer costs one ``None`` check on the hot path.
* :mod:`repro.obs.metrics` — a unified registry of counters and
  fixed-bucket latency histograms (p50/p90/p95/p99 extraction), plus
  *sources*: every existing stats surface (``SubmissionStats``,
  ``ServerStats``, ``CacheStats``, the speculation ledger) registers a
  ``stats_snapshot`` callable, and one :meth:`MetricsRegistry.snapshot`
  call renders the whole system as a nested plain dict / JSON document.

See ``docs/OBSERVABILITY.md`` for the span model and JSON schemas.
"""

from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
)
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "default_latency_buckets",
]
