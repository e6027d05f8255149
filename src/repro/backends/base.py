"""The backend contract under the submission pipeline — and the one
statement lifecycle every store shares.

The client stack — :class:`repro.client.connection.Connection`, the
:class:`repro.core.submission.SubmissionPipeline`, the result cache, the
dispatch coalescer, speculation, tracing, metrics — is transport
agnostic: it needs a *store* that can prepare statements, execute them
(one at a time or set-oriented), open transactions, and cooperate with
the cache-consistency protocol.  :class:`Backend` is that surface *and*
its implementation: the bounded prepare LRU, the admission gate, the
``server.execute`` span, the write-path ordering (``begin_write`` →
execute → ``end_write``; a transaction's tables end at commit/rollback),
batch accounting, stats and shutdown live here once.  A store supplies only
the hooks that genuinely differ (how a statement is planned, how one
statement / one SELECT batch executes, what to close).  A batch is one
of two shapes: a demuxable SELECT is one demuxed execution, anything
else runs binding by binding through the single-statement path.

**One blocking surface; the server owns no threads.**  The entries —
:meth:`Backend.execute`, :meth:`Backend.execute_prepared`,
:meth:`Backend.execute_prepared_batch` — each take one of the gate's
``profile.server_workers`` slots and run the statement *in the calling
thread*, so a request crosses no thread boundary between the client's
pipeline and the store.  A caller that wants several statements in
flight at once (``BatchExecutor`` spreading a write batch over the
connection's executor, a benchmark rung) overlaps them on its own client
threads; the gate caps them at ``server_workers`` all the same.  The one
Future-returning entry, ``submit_prepared``, is ``execute_prepared`` in
an already-resolved Future, kept for the benchmark's backend rung.  Only the public entries take a slot —
everything they call (``_run_*``, the stale re-prepare, a batch's
per-binding pass) is private and slot-free, so nothing re-enters the gate.

Two stores ship today:

* :class:`repro.backends.memory.InMemoryBackend` — the simulated
  database server (:class:`repro.db.server.DatabaseServer`), which
  doubles as the differential-test oracle;
* :class:`repro.backends.sqlite.SqliteBackend` — stdlib ``sqlite3``
  behind the same lifecycle, the first real (honest-latency) store.

Cache coherence is part of the contract, not an in-memory accident:
every backend owns one :class:`~repro.backends.ledger.WriteEpochLedger`
and drives it through the same inherited write path, so a cached reader
observes identical behavior on each store — which
``tests/test_backend_invalidation.py`` asserts as cache outcomes and
``tests/test_backend_protocol.py`` pins as an event order.

(Import note: this module imports only *leaf* modules of
:mod:`repro.db` — errors, sql, plan, txn — none of which import a
store, so ``repro.db`` → ``db.server`` → here closes no cycle.)
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..db.errors import ServerShutdownError, StatementHandleError
from ..db.plan import BindingOutcome, QueryResult, demuxable
from ..db.sql import parse
from ..db.sql.ast_nodes import Statement, is_write
from ..db.txn import Transaction, TransactionManager
from ..obs.metrics import CellField, Cells
from ..runtime.future import RequestFuture
from .ledger import Point, WriteEpochLedger, stripe_of

#: Backend kinds selectable via ``Database.connect(backend=...)`` /
#: ``aio_connect(backend=...)`` / the ``REPRO_BACKEND`` environment
#: variable / the workload driver's ``--backend`` flag.
BACKENDS = ("memory", "sqlite")

#: The ``server.execute`` "span" of an untraced statement.
_UNTRACED = nullcontext()


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """Validate a backend name, defaulting from ``REPRO_BACKEND``.

    ``None`` defers to the ``REPRO_BACKEND`` environment variable (the
    CI backend matrix sets it), else ``"memory"``.

    >>> resolve_backend_name("memory")
    'memory'
    >>> resolve_backend_name("sqlite")
    'sqlite'
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "memory"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    return backend


@dataclass
class ServerStats:
    """The server's counters.  ``statements_executed`` and
    ``writes_executed`` live in per-thread
    :class:`~repro.obs.metrics.Cells` (``cells``; :meth:`executed` adds
    without a lock) and read live as attributes; the fields move under
    the server lock."""

    #: The cell-kept counters, in slot order.
    COUNTED = ("statements_executed", "writes_executed")
    statements_executed = CellField()
    writes_executed = CellField()
    #: Most statements executing at once (slots held at the gate).
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
    #: Entries that found no free slot at the admission gate and had to
    #: wait for a running statement to finish — and for how long, summed.
    admission_waits: int = 0
    admission_wait_s: float = 0.0

    def __post_init__(self) -> None:
        self.cells = Cells((0, 0))

    def executed(self, statements: int, writes: int = 0) -> None:
        """Count statements that ran (``writes`` of them writes)."""
        cell = self.cells.mine()
        cell[0] += statements
        cell[1] += writes


class PreparedStatement:
    """Server-side prepared statement (parse + plan done once).

    The single carrier of a statement's *shape*: everything the request
    path asks about a statement (a SELECT, INSERT, UPDATE or DELETE; no
    statement changes a schema) — is it a write, which table, how many
    placeholders, may a batch of it be demultiplexed — is fixed here at
    prepare time, so nothing downstream inspects the AST (which is not
    kept: it is a format only :mod:`repro.db` and a store's ``_plan``
    know).  Value semantics live on ``plan``.

    ``origin`` is the backend that prepared it: the submission pipeline
    re-prepares a statement handed to a connection on a *different*
    backend, and the dispatch coalescer keys batches by it so coalesced
    reads never execute against the wrong store.  ``translated`` is the
    store's own compiled form of the statement (runner + SQLite texts
    for the sqlite backend; a point SELECT's prepared point read for the
    memory store; None where the plan is all the store needs).
    """

    __slots__ = (
        "statement_id",
        "sql",
        "plan",
        "catalog_version",
        "origin",
        "translated",
        "write",
        "table",
        "tables",
        "param_count",
        "demuxable",
        "label",
        "footprint",
    )

    def __init__(
        self,
        statement_id: int,
        sql: str,
        ast: Statement,
        plan,
        version: int,
        origin=None,
        translated=None,
    ) -> None:
        self.statement_id = statement_id
        self.sql = sql
        self.plan = plan
        self.catalog_version = version
        self.origin = origin
        self.translated = translated
        #: Does executing it change database state (INSERT / UPDATE /
        #: DELETE)?
        self.write = is_write(ast)
        #: The one table it reads or writes (the subset is single-table)
        #: — by name, and as the set the cache protocol keys entries
        #: and ledger tickets on.
        self.table: str = ast.table
        self.tables = frozenset((ast.table,))
        self.param_count: int = ast.param_count
        #: May one execution answer N binding sets (any SELECT plan)?
        self.demuxable = demuxable(plan)
        #: Short display form of the text (handle labels, span attrs).
        self.label = sql[:40]
        #: The plan's ``(column, param index, python type)`` when the
        #: statement touches only rows with ``column = that parameter``
        #: (see ``planner._AccessPlan``); None for INSERT and
        #: stores whose plans declare none.
        self.footprint = getattr(plan, "footprint", None)

    def point(self, params: Sequence) -> Optional[Point]:
        """The ledger point this execution is confined to, or None for
        "the whole table": the footprint's key, if it is bound to a
        value of *exactly* the column's Python type — the stores
        disagree on cross-type equality (under column affinity SQLite
        matches ``user_id = '1'`` to row 1, the engine never does), so
        anything else stays table-wide."""
        if self.footprint is not None:
            column, index, kind = self.footprint
            if index < len(params) and type(params[index]) is kind:
                return self.table, column, stripe_of(params[index])
        return None


class Backend:
    """An executable statement store: the shared statement lifecycle
    plus the per-store hooks.

    Every statement execution — synchronous or asynchronous from the
    client's perspective — holds one of the admission gate's
    ``profile.server_workers`` slots while it runs, in the thread that
    called :meth:`execute` / :meth:`execute_prepared` /
    :meth:`execute_prepared_batch`.  Callers beyond the gate's width
    wait for a slot, which is what produces the thread-count plateau in
    the paper's Figures 9, 10, 13 and 15: client threads beyond the
    server's effective parallelism stop helping.

    A store overrides::

        _plan(ast) -> (plan, translated)
        _execute(prepared, params, txn, exec_span) -> QueryResult
        _execute_select_batch(prepared, bindings, txn, exec_span)
            -> List[BindingOutcome]
        _close()                                      (optional)

    (``_plan`` is the only hook that sees the AST: it compiles whatever
    the store will execute into ``translated``; the execute hooks read
    the prepared statement's shape and the plan's public members)
    and hands its catalog, latency profile/meter and a
    :class:`~repro.db.txn.TransactionManager` (whose ``_apply`` step is
    the store's commit/rollback) to ``__init__``.  Everything else —
    prepare/LRU, the gate, the execute* entries, transactions' table locks,
    the write-path ordering, batch accounting, stats, shutdown — is
    inherited and must not be re-implemented.
    """

    #: Short selectable name (a :data:`BACKENDS` member).
    backend_name = "abstract"

    #: Default cap on the prepared-statement cache.  Generous: a real
    #: application's distinct statement texts number in the hundreds;
    #: the cap exists so a query-text generator (or an ORM emitting
    #: literals) cannot grow server memory without bound.
    DEFAULT_MAX_PREPARED = 512

    def __init__(
        self,
        catalog,
        profile,
        meter,
        txns: TransactionManager,
        max_prepared: int = DEFAULT_MAX_PREPARED,
    ) -> None:
        if max_prepared < 1:
            raise ValueError(f"max_prepared must be >= 1, got {max_prepared}")
        self.ledger = WriteEpochLedger()
        self._catalog = catalog
        self._profile = profile
        self._meter = meter
        #: The admission gate: ``server_workers`` tokens; a statement
        #: holds one while it executes (``get`` … ``finally put``).  A
        #: C-level queue, so the uncontended pair costs ~0.1 µs.
        self._gate: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        for _ in range(profile.server_workers):
            self._gate.put(None)
        self._lock = threading.Lock()
        self.max_prepared = max_prepared
        self._prepared: Dict[int, PreparedStatement] = {}
        self._plan_cache: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self._statement_ids = itertools.count(1)
        self._catalog_version = 0
        self._shutdown = False
        self._closing = threading.Lock()
        self.stats = ServerStats()
        self.txns = txns
        txns.end_write_hook = self.ledger.end_write

    @property
    def profile(self):
        return self._profile

    @property
    def catalog(self):
        return self._catalog

    @property
    def meter(self):
        return self._meter

    # ------------------------------------------------------------------
    # per-store hooks
    # ------------------------------------------------------------------
    def _plan(self, ast: Statement) -> Tuple[object, object]:
        """Plan ``ast``; returns ``(plan, translated)`` for the
        :class:`PreparedStatement`.  Prepare-time errors (unknown
        table/column, INSERT arity) are raised here."""
        raise NotImplementedError

    def _execute(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span,
    ) -> QueryResult:
        """Run one statement in the store.  Ledger, stats, locks and the
        span lifecycle are the caller's; a store may add its own
        attributes to ``exec_span`` (None when untraced)."""
        raise NotImplementedError

    def _execute_select_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        exec_span,
    ) -> List[BindingOutcome]:
        """Answer every binding of a demuxable SELECT in one pass: one
        outcome (result or that binding's exception) per binding."""
        raise NotImplementedError

    def _close(self) -> None:
        """Release store resources once no statement is executing."""

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedStatement:
        """Parse and plan ``sql``, caching by text.

        The cache is a bounded LRU (``max_prepared``): preparing past
        the cap sweeps the least-recently-used entries and counts an
        eviction.  Eviction never invalidates a handed-out
        :class:`PreparedStatement` — the object carries its own plan, so
        ``execute_prepared`` keeps working on a swept statement; only a
        later ``prepare`` of the same text pays a re-plan.

        A hit takes no lock: ``get`` and ``move_to_end`` are single
        C-level steps on the ``OrderedDict``, and an entry a concurrent
        sweep just evicted is still a hit.
        """
        cache = self._plan_cache
        cached = cache.get(sql)
        if cached is not None and cached.catalog_version == self._catalog_version:
            try:
                cache.move_to_end(sql)
            except KeyError:
                pass
            return cached
        ast = parse(sql)
        plan, translated = self._plan(ast)
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
                translated=translated,
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

    def invalidate_plans(self) -> None:
        """Force re-planning: the one step that bumps the catalog
        version, called after ``Database.create_table`` /
        ``create_index`` changed this store's schema."""
        with self._lock:
            self._catalog_version += 1
        # A schema change lands under every cached result:
        # one finished write window on "every table".
        self.ledger.begin_write(None)
        self.ledger.end_write(None, True)

    # ------------------------------------------------------------------
    # the admission gate
    # ------------------------------------------------------------------
    def _active(self) -> int:
        """Statements executing now: the gate's slots in use."""
        return self._profile.server_workers - self._gate.qsize()

    def _note_active(self) -> None:
        """Raise ``peak_concurrency`` to :meth:`_active`, taking the
        lock only when the peak rises."""
        active = self._active()
        if active > self.stats.peak_concurrency:
            with self._lock:
                if active > self.stats.peak_concurrency:
                    self.stats.peak_concurrency = active

    def _admit(self) -> float:
        """Take one of the gate's slots, waiting for a running statement
        to finish if none is free; returns the seconds waited (0.0 on
        the uncontended path).  The caller owes ``self._gate.put(None)``.

        The shutdown flag is tested *after* the slot is held: shutdown
        sets it and then collects every slot, so an entry either sees
        the flag or finishes before the store closes — it never runs
        against a closed store and never waits on a gate nobody refills.
        """
        gate = self._gate
        queued_s = 0.0
        try:
            gate.get_nowait()
        except queue.Empty:
            with self._lock:
                self.stats.admission_waits += 1
            started = time.perf_counter()
            gate.get()
            queued_s = time.perf_counter() - started
            with self._lock:
                self.stats.admission_wait_s += queued_s
        if self._shutdown:
            gate.put(None)
            raise ServerShutdownError("server is shut down")
        return queued_s

    # ------------------------------------------------------------------
    # blocking execution: the primitives (caller's thread, one slot each)
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
    ) -> QueryResult:
        """Prepare and execute ``sql`` in the calling thread."""
        self._admit()
        try:
            return self._run_sql(sql, tuple(params), txn)
        finally:
            self._gate.put(None)

    def execute_prepared(
        self,
        prepared: PreparedStatement,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
        span=None,
    ) -> QueryResult:
        """Execute a prepared statement in the calling thread; ``span``
        (the client's dispatch span, when tracing) parents the
        ``server.execute`` span."""
        queued_s = self._admit()
        try:
            if span is None:  # untraced: straight to the statement
                return self._execute_prepared(prepared, tuple(params), txn)
            return self._run_prepared(prepared, tuple(params), txn, span, queued_s)
        finally:
            self._gate.put(None)

    def execute_prepared_batch(
        self,
        prepared: PreparedStatement,
        bindings: Sequence[Sequence],
        txn: Optional[Transaction] = None,
        span=None,
    ) -> List[BindingOutcome]:
        """Set-oriented execution: one statement over N binding sets, in
        the calling thread.

        For a demuxable plan (any SELECT) the whole batch is answered by
        a *single* statement execution — one lock acquisition, one fixed
        CPU charge, one scan (or one index probe per distinct binding;
        on sqlite one ``WHERE k IN (...)``) — and ``ServerStats`` counts
        it under ``batched_calls`` / ``batched_bindings`` /
        ``scans_saved``.  Non-demuxable statements (writes) run per
        binding with full per-statement semantics, each in its own write
        window — all under the batch's one slot.

        Returns one outcome per binding, in order: the binding's
        :class:`QueryResult`, or the exception that binding raised — a
        bad binding faults only its own slot, never the batch.  No
        network charge is made here; the client (or the dispatch
        coalescer) pays one round trip for the whole batch.
        """
        snapshot = [tuple(binding) for binding in bindings]
        queued_s = self._admit()
        try:
            return self._run_prepared_batch(prepared, snapshot, txn, span, queued_s)
        finally:
            self._gate.put(None)

    def submit_prepared(self, *args, **kwargs) -> RequestFuture:
        """:meth:`execute_prepared` run in the calling thread, its result
        returned in an already-resolved Future.  Only the benchmark's
        backend rung still calls it; it goes when that rung calls
        :meth:`execute_prepared`."""
        future = RequestFuture()
        future.set_result(self.execute_prepared(*args, **kwargs))
        return future

    def begin_transaction(self) -> Transaction:
        """Start an explicit transaction (strict 2PL; see repro.db.txn)."""
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")
        return self.txns.begin()

    # ------------------------------------------------------------------
    # execution (slot-free: the entry that called holds the slot;
    # ``queued_s`` is how long it waited for it, for the span)
    # ------------------------------------------------------------------
    def _run_sql(
        self,
        sql: str,
        params: tuple,
        txn: Optional[Transaction] = None,
    ) -> QueryResult:
        return self._run_prepared(self.prepare(sql), params, txn)

    def _exec_span(self, prepared: PreparedStatement, span, queued_s: float, **attrs):
        """The ``server.execute`` span under the client's ``span`` — a
        context that records the error and ends it — or a no-op context
        when untraced."""
        if span is None:
            return _UNTRACED
        exec_span = span.child(
            "server.execute",
            statement_id=prepared.statement_id,
            backend=self.backend_name,
            **attrs,
        )
        if queued_s:
            exec_span.set("queued_s", queued_s)
        return exec_span

    def _run_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction] = None,
        span=None,
        queued_s: float = 0.0,
    ) -> QueryResult:
        if span is None:  # untraced: the hot path enters no context
            return self._execute_prepared(prepared, params, txn)
        with self._exec_span(prepared, span, queued_s) as exec_span:
            return self._execute_prepared(prepared, params, txn, exec_span)

    def _execute_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span=None,
    ) -> QueryResult:
        # No server lock on a read: the staleness check reads the catalog
        # version, the active count is the gate's, and the counters are
        # per-thread cells.  Only a rising peak takes the lock.
        stale = prepared.catalog_version != self._catalog_version
        if self._active() > self.stats.peak_concurrency:
            self._note_active()  # the peak may rise
        window = False
        try:
            if stale:
                prepared = self.prepare(prepared.sql)
            if txn is not None:
                self._lock_for_txn(txn, prepared)
            write = prepared.write
            table = prepared.table
            # The write window opens BEFORE the mutation runs: non-txn
            # reads take no table locks, so a cached read overlapping the
            # write must find the window open (no ticket) or, by
            # publication time, its ticket moved.  Autocommit closes the
            # window below; a transaction opens one per table at its
            # first write to it and closes them inside the commit/rollback
            # boundary — on the whole table: it holds the table's
            # exclusive lock, and a per-key window would promise
            # concurrency the lock manager does not give.  An autocommit
            # write's window is only as wide as its footprint.
            point = prepared.point(params) if write and txn is None else None
            if write and (txn is None or txn.note_write(table)):
                self.ledger.begin_write(table, point)
                window = txn is None
            result = self._execute(prepared, params, txn, exec_span)
            cell = self.stats.cells.mine()
            cell[0] += 1
            cell[1] += write
            if exec_span is not None:
                exec_span.set("write", write)
                rows = getattr(result, "rowcount", None)
                if rows is not None:
                    exec_span.set("rows", rows)
            return result
        finally:
            if window:
                self.ledger.end_write(table, True, point)

    def _run_prepared_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction] = None,
        span=None,
        queued_s: float = 0.0,
    ) -> List[BindingOutcome]:
        if not bindings:
            return []
        if prepared.catalog_version != self._catalog_version:
            prepared = self.prepare(prepared.sql)
        if not prepared.demuxable:
            # Writes run per binding, each with the exact
            # single-statement semantics (stats, locks, write window, undo
            # recording) and its own server.execute span under the batch's
            # dispatch span (all waited at the gate together: each carries
            # the wait) — only the transport batched.  ``_run_prepared``,
            # never the public entry, which would wait on the slot its
            # caller holds.
            outcomes: List[BindingOutcome] = []
            for binding in bindings:
                try:
                    outcomes.append(
                        self._run_prepared(prepared, binding, txn, span, queued_s)
                    )
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes
        with self._exec_span(
            prepared, span, queued_s, demux=True, bindings=len(bindings)
        ) as exec_span:
            if txn is not None:
                self._lock_for_txn(txn, prepared)
            self._note_active()
            outcomes = self._execute_select_batch(prepared, bindings, txn, exec_span)
            # One statement answered the whole batch.
            self.stats.executed(1)
            with self._lock:
                self.stats.batched_calls += 1
                self.stats.batched_bindings += len(bindings)
                self.stats.scans_saved += len(bindings) - 1
            return outcomes

    def _lock_for_txn(self, txn: Transaction, prepared: PreparedStatement) -> None:
        """Acquire the statement's table lock under strict 2PL."""
        self.txns.lock_for_statement(txn, prepared.table, write=prepared.write)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
        """Every server counter as one plain dict (the fields taken
        under the server lock, so batched_* never tears against
        scans_saved)."""
        stats = self.stats
        snap = dict(zip(stats.COUNTED, stats.cells.sums()))
        with self._lock:
            snap.update(asdict(stats))
            snap["prepared_cached"] = len(self._plan_cache)
        snap["active"] = self._active()
        # Why a hit ratio is what it is: how many write windows closed
        # on one key's stripe vs on a whole table, and the ledger's size.
        ledger = self.ledger
        snap["point_writes"] = ledger.point_writes
        snap["table_writes"] = ledger.table_writes
        snap["ledger_stripes"] = ledger.stripes
        return snap

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new statements and close the store.

        ``wait=True`` drains the gate first: collecting every slot waits
        out each statement that was admitted before the flag went up, so
        ``_close`` never runs under one.  Every caller still waiting at a
        full gate gets a slot back afterwards, sees the flag and raises
        :class:`ServerShutdownError`.  ``wait=False`` only raises the
        flag and closes.
        """
        with self._lock:
            self._shutdown = True
        held = self._profile.server_workers if wait else 0
        # One drainer at a time: two collecting slots side by side could
        # each end up holding half of them.
        with self._closing:
            for _ in range(held):
                self._gate.get()
            try:
                self._close()
            finally:
                for _ in range(held):
                    self._gate.put(None)

    @property
    def is_shutdown(self) -> bool:
        with self._lock:
            return self._shutdown
