"""The database server: statement cache, prepared statements, worker pool.

Every statement execution — synchronous or asynchronous from the
client's perspective — runs on one of ``server_workers`` pool threads.
Submissions beyond the pool size queue up, which is what produces the
thread-count plateau in the paper's Figures 9, 10, 13 and 15: client
threads beyond the server's effective parallelism stop helping.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..backends.base import Backend
from .buffer import BufferPool
from .catalog import Catalog
from .errors import ServerShutdownError, StatementHandleError
from .latency import LatencyMeter, LatencyProfile
from .plan import (
    BindingOutcome,
    ExecutionContext,
    Planner,
    QueryResult,
    demuxable,
    execute_batch_select,
)
from .scans import SharedScanManager
from .sql import parse
from .sql.ast_nodes import CreateIndexStmt, CreateTableStmt, Statement, is_write
from .txn import Transaction, TransactionManager


@dataclass
class ServerStats:
    statements_executed: int = 0
    writes_executed: int = 0
    peak_concurrency: int = 0
    statements_prepared: int = 0
    #: Set-oriented batch calls that took the demux path (one statement
    #: execution answered the whole batch).
    batched_calls: int = 0
    #: Total binding sets answered by those demuxed calls.
    batched_bindings: int = 0
    #: Per-statement passes the demux path avoided: each batched call
    #: pays one scan/statement instead of one per binding.
    scans_saved: int = 0
    #: Prepared statements swept from the bounded plan cache (LRU).
    evictions: int = 0


class PreparedStatement:
    """Server-side prepared statement (parse + plan done once).

    ``origin`` is the backend that prepared it: the submission pipeline
    re-prepares a statement handed to a connection on a *different*
    backend, and the dispatch coalescer keys batches by it so coalesced
    reads never execute against the wrong store.
    """

    __slots__ = ("statement_id", "sql", "ast", "plan", "catalog_version", "origin")

    def __init__(
        self,
        statement_id: int,
        sql: str,
        ast: Statement,
        plan,
        version: int,
        origin=None,
    ) -> None:
        self.statement_id = statement_id
        self.sql = sql
        self.ast = ast
        self.plan = plan
        self.catalog_version = version
        self.origin = origin


class DatabaseServer(Backend):
    """Executes SQL against one catalog with simulated costs.

    This is the default (``"memory"``) :class:`repro.backends.base.Backend`
    — and, because every cost is simulated and every semantic choice is
    spelled out in the engine, the differential-test *oracle* other
    backends are diffed against."""

    backend_name = "memory"

    #: Default cap on the prepared-statement cache.  Generous: a real
    #: application's distinct statement texts number in the hundreds;
    #: the cap exists so a query-text generator (or an ORM emitting
    #: literals) cannot grow server memory without bound.
    DEFAULT_MAX_PREPARED = 512

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
        max_prepared: int = DEFAULT_MAX_PREPARED,
        metrics=None,
    ) -> None:
        if max_prepared < 1:
            raise ValueError(f"max_prepared must be >= 1, got {max_prepared}")
        super().__init__()
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
        self._catalog = catalog
        self._buffer = buffer
        self._scans = scans
        self._profile = profile
        self._meter = meter
        self._planner = Planner(catalog)
        self._pool = ThreadPoolExecutor(
            max_workers=profile.server_workers,
            thread_name_prefix=f"dbworker-{profile.name}",
        )
        self._lock = threading.Lock()
        self.max_prepared = max_prepared
        self._prepared: Dict[int, PreparedStatement] = {}
        self._plan_cache: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self._statement_ids = itertools.count(1)
        self._catalog_version = 0
        self._active = 0
        self._shutdown = False
        self.stats = ServerStats()
        self.txns = TransactionManager(catalog)
        self.txns.invalidation_hook = self.broadcast_invalidation
        self.txns.data_change_hook = self.note_data_change
        self.txns.release_hook = self.clear_uncommitted

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    @property
    def profile(self) -> LatencyProfile:
        return self._profile

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def meter(self) -> LatencyMeter:
        return self._meter

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse and plan ``sql``, caching by text.

        The cache is a bounded LRU (``max_prepared``): preparing past
        the cap sweeps the least-recently-used entries and counts an
        eviction.  Eviction never invalidates a handed-out
        :class:`PreparedStatement` — the object carries its own plan, so
        ``submit_prepared`` keeps working on a swept statement; only a
        later ``prepare`` of the same text pays a re-plan.
        """
        with self._lock:
            cached = self._plan_cache.get(sql)
            if cached is not None and cached.catalog_version == self._catalog_version:
                self._plan_cache.move_to_end(sql)
                return cached
        ast = parse(sql)
        plan = self._planner.plan(ast)
        with self._lock:
            previous = self._plan_cache.get(sql)
            if previous is not None:
                if previous.catalog_version == self._catalog_version:
                    # A concurrent prepare of the same text won the
                    # race while we were planning: keep its entry (and
                    # its already handed-out statement_id), drop ours.
                    self._plan_cache.move_to_end(sql)
                    return previous
                # Stale (catalog changed): the replaced entry's id slot
                # goes with it; the old object stays usable by holders.
                self._prepared.pop(previous.statement_id, None)
            prepared = PreparedStatement(
                next(self._statement_ids),
                sql,
                ast,
                plan,
                self._catalog_version,
                origin=self,
            )
            self._prepared[prepared.statement_id] = prepared
            self._plan_cache[sql] = prepared
            self._plan_cache.move_to_end(sql)
            self.stats.statements_prepared += 1
            while len(self._plan_cache) > self.max_prepared:
                _sql, evicted = self._plan_cache.popitem(last=False)
                self._prepared.pop(evicted.statement_id, None)
                self.stats.evictions += 1
        return prepared

    def prepared(self, statement_id: int) -> PreparedStatement:
        with self._lock:
            try:
                return self._prepared[statement_id]
            except KeyError:
                raise StatementHandleError(
                    f"unknown prepared statement id {statement_id}"
                ) from None

    # ------------------------------------------------------------------
    # execution
    #
    # (The result-cache registry, write-versioning and uncommitted-write
    # marks — the cache-consistency bookkeeping the submission pipeline
    # reads — are inherited from Backend's CacheInvalidationLedger; this
    # server drives them from its write path below.)
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
    ) -> "Future[QueryResult]":
        """Queue a statement for execution; returns a Future."""
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")
        return self._pool.submit(self._run_sql, sql, tuple(params), txn)

    def submit_prepared(
        self,
        prepared: PreparedStatement,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
        span=None,
    ) -> "Future[QueryResult]":
        """Queue a prepared statement; ``span`` (the client's dispatch
        span, when tracing) parents the worker's ``server.execute``."""
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")
        return self._pool.submit(
            self._run_prepared, prepared, tuple(params), txn, span
        )

    def submit_prepared_batch(
        self,
        prepared: PreparedStatement,
        bindings: Sequence[Sequence],
        txn: Optional[Transaction] = None,
        span=None,
    ) -> "Future[List[BindingOutcome]]":
        """Set-oriented execution: one statement over N binding sets.

        For a demuxable plan (any SELECT) the whole batch is answered by
        a *single* statement execution — one lock acquisition, one fixed
        CPU charge, one scan (or one index probe per distinct binding) —
        via the binding-demultiplex operator
        (:mod:`repro.db.plan.demux`); ``ServerStats`` counts it under
        ``batched_calls`` / ``batched_bindings`` / ``scans_saved``.
        Non-demuxable statements (writes, DDL) fall back to per-binding
        execution with full per-statement semantics, including write
        invalidation broadcasts.

        The future resolves to one outcome per binding, in order: the
        binding's :class:`QueryResult`, or the exception that binding
        raised — a bad binding faults only its own slot, never the
        batch.  No network charge is made here; the client (or the
        dispatch coalescer) pays one round trip for the whole batch.
        """
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")
        snapshot = [tuple(binding) for binding in bindings]
        return self._pool.submit(
            self._run_prepared_batch, prepared, snapshot, txn, span
        )

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin_transaction(self) -> Transaction:
        """Start an explicit transaction (strict 2PL; see repro.db.txn)."""
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")
        return self.txns.begin()

    def _run_sql(
        self,
        sql: str,
        params: tuple,
        txn: Optional[Transaction] = None,
    ) -> QueryResult:
        return self._run_prepared(self.prepare(sql), params, txn)

    def _run_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction] = None,
        span=None,
    ) -> QueryResult:
        exec_span = (
            span.child(
                "server.execute", statement_id=prepared.statement_id
            )
            if span is not None
            else None
        )
        try:
            return self._execute_prepared(prepared, params, txn, exec_span)
        except BaseException as exc:
            if exec_span is not None:
                exec_span.set("error", repr(exc))
            raise
        finally:
            if exec_span is not None:
                exec_span.end()

    def _execute_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span=None,
    ) -> QueryResult:
        with self._lock:
            stale = prepared.catalog_version != self._catalog_version
        if stale:
            prepared = self.prepare(prepared.sql)
        if txn is not None:
            self._lock_for_txn(txn, prepared.ast)
        write = is_write(prepared.ast)
        table = getattr(prepared.ast, "table", None) if write else None
        if write:
            # Cache bookkeeping BEFORE the mutation runs: non-txn reads
            # take no table locks, so a concurrent cached read could
            # otherwise observe the new data in the window before the
            # mark/bump and retain it past a rollback.  Mark-then-bump
            # pairs with the reader's token-then-check order: a write
            # landing between the reader's two steps is caught by one
            # or the other, never missed by both.
            if txn is not None and txn.note_write(table):
                self.mark_uncommitted(table)
            self.note_data_change(table)
        with self._lock:
            self._active += 1
            if self._active > self.stats.peak_concurrency:
                self.stats.peak_concurrency = self._active
        try:
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
            ctx.flush_cpu()
            self._note_scan_metrics(ctx)
            if exec_span is not None:
                exec_span.set("write", write)
                if ctx.scan_batches:
                    exec_span.set("scan_batches", ctx.scan_batches)
                rows = getattr(result, "rowcount", None)
                if rows is not None:
                    exec_span.set("rows", rows)
            with self._lock:
                self.stats.statements_executed += 1
                if write:
                    self.stats.writes_executed += 1
                    self._invalidate_if_ddl(prepared.ast)
            if write and txn is None:
                # Server-side invalidation: the write path is the one
                # place every mutation passes through, so caches stay
                # correct no matter which connection wrote.  Inside a
                # transaction the broadcast is deferred to commit (a
                # rolled-back write never invalidates); the pre-execute
                # version bump and uncommitted mark keep reads that
                # overlap the open write window out of the cache.
                self.broadcast_invalidation(table)
            return result
        finally:
            with self._lock:
                self._active -= 1

    def _run_prepared_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction] = None,
        span=None,
    ) -> List[BindingOutcome]:
        if not bindings:
            return []
        with self._lock:
            stale = prepared.catalog_version != self._catalog_version
        if stale:
            prepared = self.prepare(prepared.sql)
        if not demuxable(prepared.plan):
            # Per-binding fallback: each binding keeps the exact
            # single-statement semantics (stats, locks, invalidation
            # broadcasts, undo recording) — only the transport batched.
            # Each binding hangs its own server.execute span under the
            # batch's dispatch span.
            outcomes: List[BindingOutcome] = []
            for binding in bindings:
                try:
                    outcomes.append(
                        self._run_prepared(prepared, binding, txn, span)
                    )
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes
        exec_span = (
            span.child(
                "server.execute",
                statement_id=prepared.statement_id,
                demux=True,
                bindings=len(bindings),
            )
            if span is not None
            else None
        )
        if txn is not None:
            self._lock_for_txn(txn, prepared.ast)
        with self._lock:
            self._active += 1
            if self._active > self.stats.peak_concurrency:
                self.stats.peak_concurrency = self._active
        try:
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
            ctx.flush_cpu()
            self._note_scan_metrics(ctx)
            if exec_span is not None and ctx.scan_batches:
                exec_span.set("scan_batches", ctx.scan_batches)
            with self._lock:
                self.stats.statements_executed += 1
                self.stats.batched_calls += 1
                self.stats.batched_bindings += len(bindings)
                self.stats.scans_saved += len(bindings) - 1
            return outcomes
        except BaseException as exc:
            if exec_span is not None:
                exec_span.set("error", repr(exc))
            raise
        finally:
            if exec_span is not None:
                exec_span.end()
            with self._lock:
                self._active -= 1

    def _note_scan_metrics(self, ctx: ExecutionContext) -> None:
        """Fold one statement's per-batch scan accounting into the
        database-wide metrics registry (no-op without one, or when the
        statement produced no batches — inserts, DDL, empty probes)."""
        if self._scan_batches is None or not ctx.scan_batches:
            return
        self._scan_batches.inc(ctx.scan_batches)
        self._scan_rows.inc(ctx.scan_rows)
        for selectivity in ctx.scan_selectivities:
            self._scan_selectivity.observe(selectivity)

    def _lock_for_txn(self, txn: Transaction, ast: Statement) -> None:
        """Acquire the statement's table lock under strict 2PL."""
        from .errors import TransactionStateError

        if isinstance(ast, (CreateTableStmt, CreateIndexStmt)):
            raise TransactionStateError(
                "DDL inside an explicit transaction is not supported"
            )
        table = getattr(ast, "table", None)
        if table is not None:
            self.txns.lock_for_statement(txn, table, write=is_write(ast))

    def _invalidate_if_ddl(self, ast: Statement) -> None:
        if isinstance(ast, (CreateTableStmt, CreateIndexStmt)):
            self._catalog_version += 1

    def invalidate_plans(self) -> None:
        """Force re-planning (called after out-of-band DDL)."""
        with self._lock:
            self._catalog_version += 1
        # Out-of-band DDL changes schema underneath every cached result.
        self.broadcast_invalidation(None)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
        """Every server counter as one plain dict (taken under the
        server lock, so batched_* never tears against scans_saved)."""
        with self._lock:
            snap = dict(asdict(self.stats))
            snap["prepared_cached"] = len(self._plan_cache)
            snap["registered_caches"] = self.ledger.cache_count
            snap["active"] = self._active
        return snap

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=wait)

    @property
    def is_shutdown(self) -> bool:
        with self._lock:
            return self._shutdown
