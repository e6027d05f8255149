"""Unified metrics registry: counters and percentile histograms.

The shape follows the load-generator exemplars (dbworkload-style
per-operation p50/p90/p95/p99): a :class:`Histogram` holds fixed,
log-spaced latency buckets, so recording is O(log buckets) with bounded
memory, and percentiles come out by interpolating the cumulative bucket
counts between exact observed min/max.

A counter on the request path takes no lock: :class:`Cells` gives each
thread its own *cell* — a short list of numbers only that thread
writes — registered once, under a lock, on the thread's first add.  An
add is a plain ``+=`` on the caller's cell; a read sums every cell, a
finished thread's included.  A read concurrent with adds sees each
cell's value before or after its latest add, never a lost increment.
:class:`Counter`, the submission pipeline's and the server's counters
and the latency meter are kept this way; :class:`Histogram` keeps its
lock, because its snapshot promises that every field describes the
same observations.

A :class:`MetricsRegistry` unifies three kinds of surface:

* **owned instruments** — ``counter(name)`` / ``histogram(name)``
  get-or-create by name; the submission pipeline records per-query
  latencies here when a registry is attached;
* **sources** — every pre-existing stats dataclass
  (``SubmissionStats``, ``ServerStats``, ``CacheStats``, the per-site
  speculation ledger) registers its ``stats_snapshot`` callable; the
  registry pulls them lazily, so registration costs nothing on the hot
  path;
* **snapshot** — :meth:`MetricsRegistry.snapshot` renders everything as
  one nested plain dict (JSON-ready; ``repro stats --json`` prints it,
  the bench harness embeds it in ``BENCH_*.json``).

>>> registry = MetricsRegistry()
>>> registry.counter("requests").inc()
>>> hist = registry.histogram("latency_s")
>>> for ms in (1, 2, 3, 4, 100):
...     hist.observe(ms / 1000.0)
>>> snap = registry.snapshot()
>>> snap["counters"]["requests"]
1
>>> 0.001 <= snap["histograms"]["latency_s"]["p50"] <= 0.004
True
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def default_latency_buckets(
    low_s: float = 1e-6, high_s: float = 60.0, per_decade: int = 5
) -> Tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``low_s`` to >= ``high_s``.

    Five buckets per decade spans 1µs..60s in 40-ish buckets — fine
    enough that interpolated percentiles sit within ~60% of the true
    value anywhere in the range, small enough to snapshot for free.
    """
    if low_s <= 0 or high_s <= low_s:
        raise ValueError("need 0 < low_s < high_s")
    if per_decade < 1:
        raise ValueError("need at least one bucket per decade")
    bounds: List[float] = []
    step = 10.0 ** (1.0 / per_decade)
    edge = low_s
    while edge < high_s:
        bounds.append(edge)
        edge *= step
    bounds.append(edge)
    return tuple(bounds)


_DEFAULT_BUCKETS = default_latency_buckets()


class Cells:
    """Per-thread counter cells: one list of numbers per thread.

    ``zeros`` is a cell's initial value, one entry per slot.  The
    calling thread adds to its own cell (:meth:`mine`, then ``cell[slot]
    += n``) without a lock; :meth:`sums` adds every thread's cells
    slot by slot.  A cell outlives its thread.  :meth:`reset` starts a
    new set of cells, so an add racing with it lands wholly before it.
    """

    __slots__ = ("_zeros", "_lock", "_local", "_cells")

    def __init__(self, zeros: Sequence = (0,)) -> None:
        self._zeros = list(zeros)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cells: List[list] = []

    def mine(self) -> list:
        """The calling thread's cell, registered on its first use."""
        try:
            return self._local.cell
        except AttributeError:
            with self._lock:
                cell = self._local.cell = list(self._zeros)
                self._cells.append(cell)
            return cell

    def sums(self) -> list:
        """Every slot summed over all cells (``zeros`` when none)."""
        cells = list(self._cells)
        if not cells:
            return list(self._zeros)
        return [sum(column) for column in zip(*cells)]

    def reset(self) -> None:
        with self._lock:
            self._local = threading.local()
            self._cells = []


class CellField:
    """A read-only stats attribute: its slot of the owner's ``cells``
    summed over every thread.  The owner class's ``COUNTED`` tuple
    names the slots in order."""

    __slots__ = ("_slot",)

    def __set_name__(self, owner, name: str) -> None:
        self._slot = owner.COUNTED.index(name)

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.cells.sums()[self._slot]


class Counter:
    """A monotonically-increasing counter, kept in :class:`Cells`."""

    __slots__ = ("name", "_cells")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cells = Cells()

    def inc(self, amount: int = 1) -> None:
        self._cells.mine()[0] += amount

    @property
    def value(self) -> int:
        return self._cells.sums()[0]

    def reset(self) -> None:
        self._cells.reset()


class Histogram:
    """Fixed-bucket latency histogram with percentile extraction.

    ``bounds`` are bucket *upper* edges (seconds); one overflow bucket
    catches everything above the last edge.  Exact min/max/sum/count are
    tracked alongside, and percentile interpolation is clamped to the
    observed [min, max], so p50 of a single observation is that
    observation.
    """

    __slots__ = (
        "name",
        "bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else _DEFAULT_BUCKETS
        )
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one
        (bucket layouts must match)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} vs {other.name!r})"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for index, bucket in enumerate(counts):
                self._counts[index] += bucket
            self._count += count
            self._sum += total
            if low is not None and (self._min is None or low < self._min):
                self._min = low
            if high is not None and (self._max is None or high > self._max):
                self._max = high

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> Optional[float]:
        with self._lock:
            return self._sum / self._count if self._count else None

    def _percentile_locked(self, q: float) -> Optional[float]:
        """Quantile from the current state; caller holds ``_lock``."""
        if not self._count:
            return None
        target = q * self._count
        cumulative = 0.0
        for index, bucket in enumerate(self._counts):
            if not bucket:
                continue
            if cumulative + bucket >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else (self._max if self._max is not None else lower)
                )
                fraction = (target - cumulative) / bucket
                estimate = lower + fraction * (upper - lower)
                low = self._min if self._min is not None else estimate
                high = self._max if self._max is not None else estimate
                return min(max(estimate, low), high)
            cumulative += bucket
        return self._max

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``q`` in [0, 1]); None when empty.

        Linear interpolation inside the containing bucket, clamped to
        the exact observed min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict summary: count/sum/min/max/mean + p50/p90/p95/p99.

        All fields derive from one lock acquisition, so a snapshot taken
        during concurrent :meth:`observe` calls is internally consistent
        (``mean == sum / count`` exactly; the percentiles describe the
        same observations the count does).
        """
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count if self._count else None,
                "p50": self._percentile_locked(0.50),
                "p90": self._percentile_locked(0.90),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }


class MetricsRegistry:
    """One namespace unifying instruments and pre-existing stats surfaces.

    Instruments (:meth:`counter` / :meth:`histogram`) are get-or-create
    by name and live for the registry's lifetime.
    *Sources* are zero-argument callables returning plain dicts — the
    ``stats_snapshot()`` of an existing subsystem — pulled lazily at
    :meth:`snapshot` time only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    def histograms(self) -> Dict[str, Histogram]:
        """Snapshot of the histogram instruments (the objects, not copies)."""
        with self._lock:
            return dict(self._histograms)

    # ------------------------------------------------------------------
    # sources (existing stats surfaces)
    # ------------------------------------------------------------------
    def register_source(
        self,
        name: str,
        fn: Callable[[], Dict[str, Any]],
        replace: bool = False,
    ) -> str:
        """Register a stats-snapshot callable; returns the final name.

        ``replace=True`` overwrites an existing source of the same name
        (shared subsystems — one server behind many connections —
        re-register idempotently); otherwise a taken name gets a
        ``#2``/``#3``... suffix so no surface is silently dropped.
        """
        with self._lock:
            final = name
            if not replace:
                suffix = 2
                while final in self._sources:
                    final = f"{name}#{suffix}"
                    suffix += 1
            self._sources[final] = fn
            return final

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as one nested plain dict (JSON-ready).

        Source callables run outside the registry lock (they take their
        own subsystem locks); a source that raises contributes an
        ``{"error": ...}`` stub instead of poisoning the snapshot.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            sources = dict(self._sources)
        rendered_sources: Dict[str, Any] = {}
        for name, fn in sources.items():
            try:
                rendered_sources[name] = fn()
            except Exception as exc:
                rendered_sources[name] = {"error": repr(exc)}
        return {
            "counters": {name: c.value for name, c in counters.items()},
            "histograms": {name: h.snapshot() for name, h in histograms.items()},
            "sources": rendered_sources,
        }

    def reset(self) -> None:
        """Zero every owned instrument (sources are left alone)."""
        with self._lock:
            instruments = list(self._counters.values()) + list(
                self._histograms.values()
            )
        for instrument in instruments:
            instrument.reset()
