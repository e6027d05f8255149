"""Execution context: the buffer pool, scans and simulated cost charging."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..buffer import BufferPool
from ..latency import LatencyMeter, LatencyProfile
from ..scans import SharedScanManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..txn import Transaction


@dataclass
class ExecutionContext:
    """Everything an operator needs to run one statement.

    One context is created per statement execution; ``params`` holds the
    positional bind values.  ``charge_cpu`` *accumulates* CPU costs and
    the server flushes them in a single sleep per statement — per-
    operator sleeps would each pay the OS timer slack and distort the
    simulated scale.
    """

    buffer: BufferPool
    scans: SharedScanManager
    profile: LatencyProfile
    meter: LatencyMeter
    params: Sequence = ()
    #: Explicit transaction the statement runs under, or None for
    #: autocommit.  Write operators record undo entries through the
    #: ``record_*`` helpers below.
    txn: Optional["Transaction"] = None
    _cpu_accum_s: float = 0.0
    #: Per-batch scan accounting the access paths fill in; the
    #: server folds these into the metrics registry and the execute span.
    scan_batches: int = 0
    scan_rows: int = 0
    scan_selectivities: List[float] = field(default_factory=list)

    def note_scan_batch(self, scanned: int, kept: int) -> None:
        """Record one column batch: ``scanned`` candidate rows entered
        the filter, ``kept`` survived."""
        self.scan_batches += 1
        self.scan_rows += scanned
        if scanned:
            self.scan_selectivities.append(kept / scanned)

    def charge_cpu(self, rows: int = 0, fixed: bool = False) -> None:
        cost = rows * self.profile.cpu_per_row_s
        if fixed:
            cost += self.profile.cpu_fixed_s
        self._cpu_accum_s += cost

    def flush_cpu(self) -> None:
        """Sleep once for all accumulated CPU cost (server calls this
        after plan execution)."""
        if self._cpu_accum_s > 0:
            self.meter.charge("cpu", self._cpu_accum_s)
            self._cpu_accum_s = 0.0

    def absorb_cpu(self, other: "ExecutionContext") -> None:
        """Fold ``other``'s accumulated CPU into this context.

        The batch-demux operator evaluates per-binding work on
        sub-contexts (each carries its binding's params) but the server
        flushes only the batch context — one sleep for the whole batch.
        Scan accounting travels along so batch metrics stay complete.
        """
        self._cpu_accum_s += other._cpu_accum_s
        other._cpu_accum_s = 0.0
        self.scan_batches += other.scan_batches
        self.scan_rows += other.scan_rows
        self.scan_selectivities.extend(other.scan_selectivities)
        other.scan_batches = 0
        other.scan_rows = 0
        other.scan_selectivities = []

    def derive(self, params: Sequence) -> "ExecutionContext":
        """A sub-context sharing every resource but carrying ``params``
        (the batch-demux operator's per-binding evaluation context)."""
        return ExecutionContext(
            buffer=self.buffer,
            scans=self.scans,
            profile=self.profile,
            meter=self.meter,
            params=params,
            txn=self.txn,
        )

    def read_point(self, read) -> Tuple[List[int], list]:
        """Run a plan's point read (``planner._point_reader``) on this
        context's binding, under the caller's heap lock: returns its
        ``(row ids, rows)`` and charges its CPU rows and scan batch
        here."""
        row_ids, rows, charged, scanned = read(self.params, self.buffer)
        self.charge_cpu(rows=charged)
        if scanned:
            self.note_scan_batch(scanned, len(rows))
        return row_ids, rows

    # ------------------------------------------------------------------
    # transactional undo recording (no-ops under autocommit)
    # ------------------------------------------------------------------
    def record_insert(self, table: str, row_id: int, row) -> None:
        if self.txn is not None:
            self.txn.record_insert(table, row_id, row)

    def record_update(self, table: str, row_id: int, old_row, new_row) -> None:
        if self.txn is not None:
            self.txn.record_update(table, row_id, old_row, new_row)

    def record_delete(self, table: str, row_id: int, row) -> None:
        if self.txn is not None:
            self.txn.record_delete(table, row_id, row)
