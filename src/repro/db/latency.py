"""Latency model for the simulated database deployment.

The paper's measurements come from a client on a 100 Mbps LAN talking to
(a) a commercial server "SYS1" on a dual-core box and (b) PostgreSQL on a
two-Xeon box.  The performance effects the transformations exploit are:

* network round-trip per request (dominates warm-cache small queries),
* server-side concurrency (worker pool; more in-flight queries until the
  pool saturates — the "threads" plateau in Figures 9/10/13/15),
* disk seeks on a cold cache (reduced by elevator ordering and shared
  scans when queries are submitted concurrently — Figures 8/12/13).

A :class:`LatencyProfile` captures those knobs.  All times are seconds.
Profiles are scaled down from the paper's wall-clock scale so the whole
benchmark suite runs in minutes; the *relative* shape is preserved, which
is what EXPERIMENTS.md validates.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

#: Sleeps shorter than this are busy-waited; the OS timer would otherwise
#: round them up and distort small latencies.  The threshold must stay
#: *below* the latencies that carry the concurrency story (network RTT,
#: disk seeks): a busy-wait holds the GIL most of the time, so spinning
#: there would serialize the simulated overlap the transformations
#: create.  50us matches the kernel's default timer slack.
_SPIN_THRESHOLD_S = 0.00005


def precise_sleep(duration_s: float) -> None:
    """Sleep for ``duration_s`` with sub-millisecond precision.

    ``time.sleep`` on Linux has ~50-100us of slack; for the very short
    CPU-cost sleeps used by the executor we spin instead.  Both paths
    release the GIL (``time.sleep`` always; the spin loop calls
    ``time.perf_counter`` which releases it periodically), so simulated
    latencies overlap across threads just like real ones.
    """
    if duration_s <= 0:
        return
    if duration_s >= _SPIN_THRESHOLD_S:
        time.sleep(duration_s)
        return
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        pass


@dataclass(frozen=True)
class LatencyProfile:
    """Timing parameters of one simulated deployment.

    Attributes
    ----------
    name:
        Human-readable profile name (used in benchmark reports).
    network_rtt_s:
        Full client<->server round trip charged to every blocking call
        and to every asynchronous result fetch.
    send_overhead_s:
        Cost of handing a request to the async executor (the non-blocking
        ``submit_query`` path still pays this).
    cpu_fixed_s:
        Fixed per-statement server CPU cost (parse/plan/dispatch).
    cpu_per_row_s:
        Per-row predicate/projection evaluation cost.
    disk_seek_min_s / disk_seek_per_page_s / disk_seek_max_s:
        A random page read costs ``min(max, min + gap * per_page)``
        where ``gap`` is the head travel distance in pages — deep
        request queues served shortest-seek-first therefore genuinely
        reduce per-read cost (the elevator effect the paper cites).
    disk_sequential_s:
        Cost of reading the next sequential page (transfer only).
    disk_spindles:
        Number of independent heads the pages are striped over;
        concurrent queries drive several at once.
    thread_spawn_s:
        Client-side cost per async worker thread, charged when the
        pool first starts.  Reproduces the paper's observation that at
        small iteration counts "the overhead of thread creation and
        scheduling overshoots the query execution time".
    server_workers:
        Width of the server's admission gate: statements beyond this
        many wait for a slot, producing the thread-count plateau.
    buffer_pool_pages:
        Buffer pool capacity; a "cold cache" run clears it first.
    """

    name: str
    network_rtt_s: float
    send_overhead_s: float
    cpu_fixed_s: float
    cpu_per_row_s: float
    disk_seek_min_s: float
    disk_seek_per_page_s: float
    disk_seek_max_s: float
    disk_sequential_s: float
    disk_spindles: int
    server_workers: int
    buffer_pool_pages: int
    thread_spawn_s: float = 0.0

    def scaled(self, factor: float) -> "LatencyProfile":
        """Return a copy with all latencies multiplied by ``factor``.

        Worker and buffer counts are structural, not temporal, and are
        left unchanged.
        """
        return replace(
            self,
            name=f"{self.name}x{factor:g}",
            network_rtt_s=self.network_rtt_s * factor,
            send_overhead_s=self.send_overhead_s * factor,
            cpu_fixed_s=self.cpu_fixed_s * factor,
            cpu_per_row_s=self.cpu_per_row_s * factor,
            disk_seek_min_s=self.disk_seek_min_s * factor,
            disk_seek_per_page_s=self.disk_seek_per_page_s * factor,
            disk_seek_max_s=self.disk_seek_max_s * factor,
            disk_sequential_s=self.disk_sequential_s * factor,
            thread_spawn_s=self.thread_spawn_s * factor,
        )


#: Commercial server profile ("SYS1" in the paper): higher per-request
#: fixed costs, a deep worker pool, fast disks.
SYS1 = LatencyProfile(
    name="SYS1",
    network_rtt_s=400e-6,
    send_overhead_s=8e-6,
    cpu_fixed_s=40e-6,
    cpu_per_row_s=0.12e-6,
    disk_seek_min_s=150e-6,
    disk_seek_per_page_s=2e-6,
    disk_seek_max_s=1000e-6,
    disk_sequential_s=30e-6,
    disk_spindles=4,
    server_workers=16,
    buffer_pool_pages=4096,
    thread_spawn_s=250e-6,
)

#: PostgreSQL profile: slightly cheaper round trips (the paper's PG box
#: showed lower absolute times), smaller effective worker pool.
POSTGRES = LatencyProfile(
    name="PostgreSQL",
    network_rtt_s=300e-6,
    send_overhead_s=8e-6,
    cpu_fixed_s=30e-6,
    cpu_per_row_s=0.10e-6,
    disk_seek_min_s=150e-6,
    disk_seek_per_page_s=2e-6,
    disk_seek_max_s=900e-6,
    disk_sequential_s=30e-6,
    disk_spindles=3,
    server_workers=12,
    buffer_pool_pages=4096,
    thread_spawn_s=250e-6,
)

#: Zero-latency profile for unit tests: semantics only, no sleeps.
INSTANT = LatencyProfile(
    name="instant",
    network_rtt_s=0.0,
    send_overhead_s=0.0,
    cpu_fixed_s=0.0,
    cpu_per_row_s=0.0,
    disk_seek_min_s=0.0,
    disk_seek_per_page_s=0.0,
    disk_seek_max_s=0.0,
    disk_sequential_s=0.0,
    disk_spindles=2,
    server_workers=8,
    buffer_pool_pages=256,
)

PROFILES = {profile.name: profile for profile in (SYS1, POSTGRES, INSTANT)}


class LatencyMeter:
    """Thread-safe accumulator of simulated latency charged, by category.

    The benchmark harness reads these counters to explain *where* time
    went (network vs disk vs CPU) in EXPERIMENTS.md.
    """

    CATEGORIES = ("network", "disk", "cpu", "queue")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = {category: 0.0 for category in self.CATEGORIES}
        self._counts = {category: 0 for category in self.CATEGORIES}

    def charge(self, category: str, duration_s: float) -> None:
        """Sleep for ``duration_s`` and record it under ``category``."""
        if duration_s > 0:
            precise_sleep(duration_s)
        with self._lock:
            self._totals[category] += duration_s
            self._counts[category] += 1

    def record(self, category: str, duration_s: float) -> None:
        """Record time that was already spent (no additional sleep)."""
        with self._lock:
            self._totals[category] += duration_s
            self._counts[category] += 1

    def totals(self) -> dict:
        with self._lock:
            return dict(self._totals)

    def counts(self) -> dict:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for category in self.CATEGORIES:
                self._totals[category] = 0.0
                self._counts[category] = 0
