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
        return self._planner.plan(ast), None

    def _execute(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span,
    ) -> QueryResult:
        ctx = ExecutionContext(
            catalog=self._catalog,
            buffer=self._buffer,
            scans=self._scans,
            profile=self._profile,
            meter=self._meter,
            params=params,
            txn=txn,
        )
        result = prepared.plan.execute(ctx)
        self._settle(ctx, exec_span)
        return result

    def _execute_select_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        exec_span,
    ) -> List[BindingOutcome]:
        """One statement execution for the whole batch via the
        binding-demultiplex operator (:mod:`repro.db.plan.demux`)."""
        ctx = ExecutionContext(
            catalog=self._catalog,
            buffer=self._buffer,
            scans=self._scans,
            profile=self._profile,
            meter=self._meter,
            params=(),
            txn=txn,
        )
        outcomes = execute_batch_select(
            prepared.plan, ctx, bindings, span=exec_span
        )
        self._settle(ctx, exec_span)
        return outcomes

    def _settle(self, ctx: ExecutionContext, exec_span) -> None:
        """Flush the statement's CPU charge and fold its per-batch scan
        accounting into the database-wide metrics registry and the span
        (nothing to fold when the statement produced no batches —
        inserts, DDL, empty probes)."""
        ctx.flush_cpu()
        if not ctx.scan_batches:
            return
        if self._scan_batches is not None:
            self._scan_batches.inc(ctx.scan_batches)
            self._scan_rows.inc(ctx.scan_rows)
            for selectivity in ctx.scan_selectivities:
                self._scan_selectivity.observe(selectivity)
        if exec_span is not None:
            exec_span.set("scan_batches", ctx.scan_batches)
