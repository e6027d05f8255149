"""Simulated disk array with distance-dependent seeks and SSTF queues.

Why this shape: the paper attributes the gains of concurrent query
submission to (a) overlap of client and server work, (b) *multiple
disks* on the server, and (c) request reordering ("RID ordering prior to
fetch", shorter seeks).  The model implements (b) and (c) directly:

* pages are striped across ``spindles`` independent heads, so concurrent
  queries drive several spindles at once while a synchronous client
  keeps at most one busy;
* each spindle serves its pending queue shortest-seek-first, and seek
  time grows with head travel distance — a deep queue (many in-flight
  queries) therefore yields genuinely shorter average seeks, the
  elevator effect;
* reading the next sequential page costs only the transfer time.

A synchronous one-query-at-a-time client gets none of these benefits,
which is exactly the asymmetry Figures 12/13 of the paper measure.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from .latency import LatencyMeter, LatencyProfile, precise_sleep


@dataclass
class DiskStats:
    """Counters exposed for tests and benchmark reports."""

    reads: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    total_service_time_s: float = 0.0
    total_seek_pages: int = 0
    max_queue_depth: int = 0


@dataclass
class _Request:
    position: int
    sequence: int


class _Spindle:
    """One head: its own queue, position and busy flag."""

    __slots__ = ("head", "busy", "pending")

    def __init__(self) -> None:
        self.head = 0
        self.busy = False
        self.pending: Dict[int, _Request] = {}


class SimulatedDisk:
    """A striped array of spindles shared by all tables of one database.

    ``read(name, page_no)`` blocks the calling thread for the simulated
    service time of that page on its spindle.  Service order among
    concurrently waiting threads on one spindle is shortest-seek-first
    (arrival order when ``elevator=False`` — the ablation benchmark
    compares the two).
    """

    def __init__(
        self,
        profile: LatencyProfile,
        meter: Optional[LatencyMeter] = None,
        elevator: bool = True,
        spindles: Optional[int] = None,
    ) -> None:
        self._profile = profile
        self._meter = meter
        self._elevator = elevator
        count = spindles if spindles is not None else profile.disk_spindles
        if count < 1:
            raise ValueError("need at least one spindle")
        self._spindles = [_Spindle() for _ in range(count)]
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._sequence = itertools.count()
        self._extents: Dict[str, int] = {}
        self._next_extent = 0
        self.stats = DiskStats()

    @property
    def spindle_count(self) -> int:
        return len(self._spindles)

    @property
    def elevator_enabled(self) -> bool:
        return self._elevator

    # ------------------------------------------------------------------
    # extent management
    # ------------------------------------------------------------------
    def allocate_extent(self, name: str, pages: int) -> int:
        """Reserve contiguous logical positions for ``name``."""
        with self._lock:
            base = self._next_extent
            self._extents[name] = base
            self._next_extent = base + max(pages, 1)
            return base

    def extent_base(self, name: str) -> int:
        with self._lock:
            if name not in self._extents:
                base = self._next_extent
                self._extents[name] = base
                self._next_extent = base + 1024
            return self._extents[name]

    def grow_extent(self, name: str, pages: int) -> None:
        """Ensure the extent for ``name`` spans at least ``pages`` pages."""
        with self._lock:
            if name not in self._extents:
                self._extents[name] = self._next_extent
                self._next_extent += max(pages, 1)
            else:
                end = self._extents[name] + pages
                if end > self._next_extent:
                    self._next_extent = end

    # ------------------------------------------------------------------
    # IO path
    # ------------------------------------------------------------------
    def read(self, name: str, page_no: int) -> None:
        """Block for the service time of one page read."""
        self._serve(self.extent_base(name) + page_no)

    def write(self, name: str, page_no: int) -> None:
        """Page writes share the mechanical model of reads."""
        self._serve(self.extent_base(name) + page_no)

    def _serve(self, position: int) -> None:
        spindle = self._spindles[position % len(self._spindles)]
        request = _Request(position, next(self._sequence))
        with self._lock:
            spindle.pending[request.sequence] = request
            depth = sum(len(s.pending) for s in self._spindles)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            while spindle.busy or not self._is_next(spindle, request):
                self._wakeup.wait()
            spindle.busy = True
            gap = abs(position - spindle.head)
            profile = self._profile
            if gap <= 1:
                service_s = profile.disk_sequential_s
                self.stats.sequential_reads += 1
            else:
                service_s = min(
                    profile.disk_seek_max_s,
                    profile.disk_seek_min_s + gap * profile.disk_seek_per_page_s,
                )
                self.stats.random_reads += 1
            self.stats.reads += 1
            self.stats.total_service_time_s += service_s
            self.stats.total_seek_pages += gap
            spindle.head = position
        try:
            if self._meter is not None:
                self._meter.charge("disk", service_s)
            else:  # pragma: no cover - the meter is always wired in practice
                precise_sleep(service_s)
        finally:
            with self._lock:
                spindle.busy = False
                del spindle.pending[request.sequence]
                self._wakeup.notify_all()

    def _is_next(self, spindle: _Spindle, request: _Request) -> bool:
        """Should ``request`` be the next served on its spindle?"""
        if request.sequence not in spindle.pending:  # pragma: no cover
            return False
        if self._elevator:
            best = min(
                spindle.pending.values(),
                key=lambda r: (abs(r.position - spindle.head), r.sequence),
            )
        else:
            best = min(spindle.pending.values(), key=lambda r: r.sequence)
        return best.sequence == request.sequence

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        with self._lock:
            self.stats = DiskStats()
