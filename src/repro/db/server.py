"""The in-memory database server: the engine behind the shared lifecycle.

Statement cache, prepared statements, the admission gate and the
write-path ordering are :class:`repro.backends.base.Backend`'s — the
same code every store runs.  What is specific to this store is *how a
statement executes*: plans come from the engine's
:class:`~repro.db.plan.Planner` and run against the catalog's heaps
under an :class:`~repro.db.plan.ExecutionContext` that charges the
simulated latencies (buffer pool, disk, CPU, shared scans).
"""

from __future__ import annotations

from typing import List, Optional

from ..backends.base import Backend, PreparedStatement
from .buffer import BufferPool
from .catalog import Catalog
from .latency import LatencyMeter, LatencyProfile
from .plan import (
    BindingOutcome,
    ExecutionContext,
    Planner,
    QueryResult,
    check_params,
    execute_batch_select,
)
from .scans import SharedScanManager
from .sql.ast_nodes import Statement
from .txn import Transaction, TransactionManager

class DatabaseServer(Backend):
    """Executes SQL against one catalog with simulated costs.

    This is the default (``"memory"``) :class:`repro.backends.base.Backend`
    — and, because every cost is simulated and every semantic choice is
    spelled out in the engine, the differential-test *oracle* other
    backends are diffed against.  It implements only the store hooks;
    transactions are the engine's own strict 2PL + undo log
    (:class:`repro.db.txn.TransactionManager`)."""

    backend_name = "memory"

    #: Selectivity histogram buckets (fraction of a batch's candidate
    #: rows surviving the filter).
    SELECTIVITY_BOUNDS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.75, 0.9, 1.0)

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        scans: SharedScanManager,
        profile: LatencyProfile,
        meter: LatencyMeter,
        max_prepared: int = Backend.DEFAULT_MAX_PREPARED,
        metrics=None,
    ) -> None:
        super().__init__(
            catalog, profile, meter, TransactionManager(catalog), max_prepared
        )
        #: Scan instruments in the database-wide metrics registry (the
        #: per-batch counters the access paths report).  None when
        #: the database attached no registry.
        self._scan_batches = self._scan_rows = self._scan_selectivity = None
        if metrics is not None:
            self._scan_batches = metrics.counter("scan.batches")
            self._scan_rows = metrics.counter("scan.rows_scanned")
            self._scan_selectivity = metrics.histogram(
                "scan.selectivity", bounds=self.SELECTIVITY_BOUNDS
            )
        self._buffer = buffer
        self._scans = scans
        self._planner = Planner(catalog)

    # ------------------------------------------------------------------
    # store hooks
    # ------------------------------------------------------------------
    def _plan(self, ast: Statement):
        """The plan, and as the store's own compiled form the point
        read of a hash-probed point SELECT — ``(read, heap lock, output
        names)`` — or None."""
        plan = self._planner.plan(ast)
        read = getattr(plan, "point_probe", None)
        if read is None:
            return plan, None
        return plan, (read, plan._info.heap.lock, plan.output_names)

    def _execute(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span,
    ) -> QueryResult:
        """Run one statement.  A point SELECT calls its prepared point
        read (``prepared.translated``) directly under the heap's read
        lock, with no :class:`ExecutionContext`: the fixed cost and the
        read's CPU rows are one meter charge, and its scan batch is
        folded as :meth:`_settle` folds a context's.  Every other
        statement runs its plan under a context, then settles it."""
        point = prepared.translated
        if point is None:
            ctx = self._context(params, txn)
            result = prepared.plan.execute(ctx)
            self._settle(ctx, exec_span)
            return result
        read, lock, names = point
        check_params(prepared.param_count, params)
        lock.acquire_read()
        try:
            _row_ids, rows, charged, scanned = read(params, self._buffer)
        finally:
            lock.release_read()
        profile = self._profile
        cpu_s = profile.cpu_fixed_s + charged * profile.cpu_per_row_s
        if cpu_s > 0:
            self._meter.charge("cpu", cpu_s)
        if scanned:
            self._fold_scans(1, scanned, (len(rows) / scanned,), exec_span)
        return QueryResult(columns=names, rows=rows)

    def _execute_select_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        exec_span,
    ) -> List[BindingOutcome]:
        """One statement execution for the whole batch via the
        binding-demultiplex operator (:mod:`repro.db.plan.demux`)."""
        ctx = self._context((), txn)
        outcomes = execute_batch_select(
            prepared.plan, ctx, bindings, span=exec_span
        )
        self._settle(ctx, exec_span)
        return outcomes

    def _context(self, params: tuple, txn: Optional[Transaction]) -> ExecutionContext:
        return ExecutionContext(
            buffer=self._buffer,
            scans=self._scans,
            profile=self._profile,
            meter=self._meter,
            params=params,
            txn=txn,
        )

    def _settle(self, ctx: ExecutionContext, exec_span) -> None:
        """Flush the statement's CPU charge and fold its per-batch scan
        accounting (nothing to fold when the statement produced no
        batches — inserts, empty probes)."""
        ctx.flush_cpu()
        if ctx.scan_batches:
            self._fold_scans(
                ctx.scan_batches, ctx.scan_rows, ctx.scan_selectivities, exec_span
            )

    def _fold_scans(self, batches: int, rows: int, selectivities, exec_span) -> None:
        """Fold a statement's scan batches into the database-wide
        metrics registry and the span."""
        if self._scan_batches is not None:
            self._scan_batches.inc(batches)
            self._scan_rows.inc(rows)
            for selectivity in selectivities:
                self._scan_selectivity.observe(selectivity)
        if exec_span is not None:
            exec_span.set("scan_batches", batches)
