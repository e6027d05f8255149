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

A request that finds its spindle idle with nobody waiting is served at
once: the queue exists only while a spindle is contended, so the
bookkeeping of a one-at-a-time reader is a lock and a few counters.

A synchronous one-query-at-a-time client gets none of these benefits,
which is exactly the asymmetry Figures 12/13 of the paper measure.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

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


class _Spindle:
    """One head: its position, busy flag and waiting requests.

    ``pending`` maps each *waiting* request's arrival sequence to its
    position (the request in service is not in it).  ``turn`` shares the
    disk's lock, so a completion wakes only this spindle's waiters.
    """

    __slots__ = ("head", "busy", "pending", "turn")

    def __init__(self, lock: threading.Lock) -> None:
        self.head = 0
        self.busy = False
        self.pending: Dict[int, int] = {}
        self.turn = threading.Condition(lock)


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
        self._lock = threading.Lock()
        self._spindles = [_Spindle(self._lock) for _ in range(count)]
        self._sequence = itertools.count()
        #: Requests in service or waiting, over every spindle.
        self._depth = 0
        self._extents: Dict[str, int] = {}
        self._next_extent = 0
        #: No page read takes time, whatever the head travel.
        self._free = not any((profile.disk_sequential_s, profile.disk_seek_min_s,
                              profile.disk_seek_per_page_s, profile.disk_seek_max_s))
        self.stats = DiskStats()

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
        self._serve(self._base(name) + page_no)

    def read_many(self, name: str, page_nos: Sequence[int]) -> None:
        """Read a run of pages in order, exactly as one ``read`` per page
        would.  When no page read takes any time (``INSTANT``) no request
        ever waits for a spindle, so the run is served in one critical
        section and charged to the meter in one call."""
        base = self._base(name)
        if not self._free:
            for page_no in page_nos:
                self._serve(base + page_no)
            return
        spindles = self._spindles
        with self._lock:
            stats = self.stats
            if self._depth >= stats.max_queue_depth:
                stats.max_queue_depth = self._depth + 1
            for page_no in page_nos:
                position = base + page_no
                self._seek(spindles[position % len(spindles)], position, stats)
        if self._meter is not None and page_nos:
            self._meter.record("disk", 0.0, times=len(page_nos))

    def _base(self, name: str) -> int:
        # Extents are never moved or dropped, so a known one is read
        # without the lock; only a first touch allocates under it.
        base = self._extents.get(name)
        return self.extent_base(name) if base is None else base

    def _serve(self, position: int) -> None:
        """Serve one request: at once on an idle spindle, else after
        queueing behind it in shortest-seek-first order."""
        spindle = self._spindles[position % len(self._spindles)]
        with self._lock:
            stats = self.stats
            self._depth += 1
            if self._depth > stats.max_queue_depth:
                stats.max_queue_depth = self._depth
            if spindle.busy or spindle.pending:
                self._await_turn(spindle, position)
            spindle.busy = True
            service_s = self._seek(spindle, position, stats)
            if service_s <= 0:
                self._release(spindle)  # nobody can queue behind it
        try:
            if self._meter is not None:
                self._meter.charge("disk", service_s)
            else:  # pragma: no cover - the meter is always wired in practice
                precise_sleep(service_s)
        finally:
            if service_s > 0:
                with self._lock:
                    self._release(spindle)

    def _seek(self, spindle: _Spindle, position: int, stats: DiskStats) -> float:
        """Move the head to ``position`` and count the read; returns its
        service time (lock held)."""
        gap = abs(position - spindle.head)
        profile = self._profile
        if gap <= 1:
            service_s = profile.disk_sequential_s
            stats.sequential_reads += 1
        else:
            service_s = min(
                profile.disk_seek_max_s,
                profile.disk_seek_min_s + gap * profile.disk_seek_per_page_s,
            )
            stats.random_reads += 1
        stats.reads += 1
        stats.total_service_time_s += service_s
        stats.total_seek_pages += gap
        spindle.head = position
        return service_s

    def _release(self, spindle: _Spindle) -> None:
        """End the service in progress on ``spindle`` (lock held)."""
        spindle.busy = False
        self._depth -= 1
        if spindle.pending:
            spindle.turn.notify_all()

    def _await_turn(self, spindle: _Spindle, position: int) -> None:
        """Wait (lock held) until this request is the next one its busy
        or contended spindle serves: the nearest to the head, earliest
        arrival on a tie (arrival order alone when ``elevator=False``)."""
        sequence = next(self._sequence)
        pending = spindle.pending
        pending[sequence] = position
        while spindle.busy or self._next_turn(spindle) != sequence:
            spindle.turn.wait()
        del pending[sequence]

    def _next_turn(self, spindle: _Spindle) -> int:
        if not self._elevator:
            return next(iter(spindle.pending))  # sequences arrive in order
        head = spindle.head
        return min(
            spindle.pending.items(),
            key=lambda item: (abs(item[1] - head), item[0]),
        )[0]

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        with self._lock:
            self.stats = DiskStats()
