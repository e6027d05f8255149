"""The stdlib ``sqlite3`` backend: the first real store behind Backend.

Statements still *parse and plan* through the engine's own front end —
the mirror catalog below carries every table's schema, so prepare-time
errors (unknown table/column, INSERT arity, aggregate misuse) and
execution-time coercion errors (``TypeMismatchError``,
``ParamCountError``) surface with exactly the classes the in-memory
oracle raises.  Only the *data* lives in SQLite: a scratch database
file (WAL mode, so pool readers never block the writer), with the
engine AST translated to SQLite text by :mod:`repro.backends.dialect`.

Design notes:

* **Pool + thread-local connections.**  Autocommit statements run on a
  ``server_workers``-sized pool, one SQLite connection per worker
  thread — same submission shape as the in-memory server, so the
  client's async pipeline (and its thread-count plateau) is unchanged.
* **Transactions are real.**  ``begin_transaction`` opens a dedicated
  connection and issues ``BEGIN``; commit/rollback issue real
  ``COMMIT``/``ROLLBACK``.  The engine's strict-2PL table locks
  (:class:`repro.db.txn.LockManager`) still sit on top — transaction
  conflict behavior (waits, ``TransactionTimeoutError``) matches the
  oracle, and SQLite's single-writer lock underneath never admits what
  2PL would forbid.  Write-versioning and uncommitted-write marks are
  driven from this layer (the "client-tracked" invalidation mode: a
  DB-API server cannot push), so the cache-consistency protocol is
  byte-for-byte the in-memory one.
* **Set-oriented dispatch maps to SQL.**  A coalesced batch over a
  ``col = ?`` SELECT executes once as ``WHERE col IN (...)`` and is
  demultiplexed per binding; INSERT batches go through ``executemany``
  under a savepoint (falling back to per-binding execution to preserve
  per-slot fault isolation).
"""

from __future__ import annotations

import itertools
import os
import shutil
import sqlite3
import tempfile
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..db.catalog import Catalog
from ..db.disk import SimulatedDisk
from ..db.errors import (
    ConstraintError,
    DatabaseError,
    ParamCountError,
    PlanError,
    ServerShutdownError,
    StatementHandleError,
    TransactionStateError,
    TransactionTimeoutError,
)
from ..db.latency import INSTANT, LatencyMeter, LatencyProfile
from ..db.plan import BindingOutcome, Planner, QueryResult, demuxable
from ..db.plan.expr_eval import RowEvaluator, limit_count
from ..db.plan.operators import _item_name
from ..db.server import PreparedStatement, ServerStats
from ..db.sql import parse
from ..db.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    InsertStmt,
    Param,
    SelectStmt,
    Star,
    Statement,
    UpdateStmt,
    is_write,
)
from ..db.txn import ABORTED, COMMITTED, Transaction, TransactionManager
from ..db.types import Column, ColumnType, Schema
from .base import Backend
from .dialect import (
    NAMED,
    PARAMSTYLES,
    ParamStyle,
    create_index_sql,
    create_table_sql,
    iter_column_refs,
    quote_ident,
    translate_expr,
    translate_statement,
)


def _check_params(expected: int, params: Sequence) -> None:
    if expected != len(params):
        raise ParamCountError(expected, len(params))


class SqlitePreparedStatement(PreparedStatement):
    """A prepared statement carrying its SQLite translation."""

    __slots__ = ("translated",)

    def __init__(
        self, statement_id, sql, ast, plan, version, origin, translated
    ) -> None:
        super().__init__(statement_id, sql, ast, plan, version, origin=origin)
        self.translated = translated


class _SqliteTransactionManager(TransactionManager):
    """The engine transaction manager with SQLite durability.

    Reuses the 2PL lock manager, state machine, async-read drain and
    the invalidation/data-change/release hooks verbatim; the undo log
    stays empty (SQLite's journal reverses data changes), so inherited
    rollback bookkeeping is a no-op beyond the hooks.  Each transaction
    owns a dedicated SQLite connection plus a statement lock (async
    reads execute on pool threads against the same connection).
    """

    def __init__(self, backend: "SqliteBackend") -> None:
        super().__init__(backend.catalog)
        self._backend = backend

    def begin(self) -> Transaction:
        txn = super().begin()
        connection = self._backend._new_connection()
        connection.execute("BEGIN")
        txn._sqlite = connection
        txn._sqlite_lock = threading.Lock()
        return txn

    def _finish_sqlite(self, txn: Transaction, command: str) -> None:
        with txn._sqlite_lock:
            try:
                txn._sqlite.execute(command)
            finally:
                self._backend._close_connection(txn._sqlite)

    def commit(self, txn: Transaction) -> None:
        txn._require_active()
        txn._wait_drained()
        self._finish_sqlite(txn, "COMMIT")
        with txn._state_lock:
            txn._state = COMMITTED
        # Commit-boundary broadcast, exactly like the in-memory server:
        # shared caches drop readers of every written table before the
        # 2PL locks release.
        self._broadcast_writes(txn)
        self._finish(txn)

    def rollback(self, txn: Transaction) -> None:
        txn._require_active()
        txn._wait_drained()
        self._finish_sqlite(txn, "ROLLBACK")
        with txn._state_lock:
            txn._state = ABORTED
        # No invalidation broadcast (the pre-transaction data was just
        # restored), but the restore is a data change: bump versions so
        # overlapping cached reads fail their publication check.
        if self.data_change_hook is not None:
            for table in txn.written_tables():
                self.data_change_hook(table)
        self._finish(txn)


class SqliteBackend(Backend):
    """Executes the engine's SQL subset against a scratch SQLite file."""

    backend_name = "sqlite"

    DEFAULT_MAX_PREPARED = 512

    def __init__(
        self,
        profile: LatencyProfile = INSTANT,
        meter: Optional[LatencyMeter] = None,
        max_prepared: int = DEFAULT_MAX_PREPARED,
        paramstyle: Any = "named",
    ) -> None:
        if max_prepared < 1:
            raise ValueError(f"max_prepared must be >= 1, got {max_prepared}")
        super().__init__()
        self._profile = profile
        self._meter = meter if meter is not None else LatencyMeter()
        if isinstance(paramstyle, ParamStyle):
            self._style = paramstyle
        else:
            try:
                self._style = PARAMSTYLES[paramstyle]
            except KeyError:
                raise ValueError(
                    f"unknown paramstyle {paramstyle!r} "
                    f"(expected one of {tuple(PARAMSTYLES)})"
                ) from None
        #: Scratch database directory (removed at shutdown, or by the
        #: finalizer if the backend is dropped without one).
        self._tmpdir = tempfile.mkdtemp(prefix="repro-sqlite-")
        self._path = os.path.join(self._tmpdir, "db.sqlite3")
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self._tmpdir, True
        )
        #: Schema mirror: an engine catalog holding every table's schema
        #: (heaps stay empty — SQLite holds the rows).  Planning against
        #: it reproduces the oracle's prepare-time and coercion errors.
        self._mirror_disk = SimulatedDisk(INSTANT, LatencyMeter())
        self._catalog = Catalog(self._mirror_disk)
        self._planner = Planner(self._catalog)
        self._pool = ThreadPoolExecutor(
            max_workers=profile.server_workers,
            thread_name_prefix=f"sqlite-{profile.name}",
        )
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._lock = threading.Lock()
        self.max_prepared = max_prepared
        self._prepared: Dict[int, PreparedStatement] = {}
        self._plan_cache: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self._statement_ids = itertools.count(1)
        self._catalog_version = 0
        self._active = 0
        self._shutdown = False
        self.stats = ServerStats()
        self.txns = _SqliteTransactionManager(self)
        self.txns.invalidation_hook = self.broadcast_invalidation
        self.txns.data_change_hook = self.note_data_change
        self.txns.release_hook = self.clear_uncommitted
        # First connection creates the file and flips it to WAL, so
        # pool readers never block the (single) writer.
        self._connection()

    # ------------------------------------------------------------------
    # connections
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

    @property
    def path(self) -> str:
        return self._path

    def _new_connection(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            self._path,
            timeout=5.0,
            isolation_level=None,  # autocommit; BEGIN/COMMIT are explicit
            check_same_thread=False,
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=OFF")
        connection.execute("PRAGMA busy_timeout=5000")
        with self._lock:
            self._connections.append(connection)
        return connection

    def _close_connection(self, connection: sqlite3.Connection) -> None:
        with self._lock:
            try:
                self._connections.remove(connection)
            except ValueError:
                pass
        try:
            connection.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass

    def _connection(self) -> sqlite3.Connection:
        """This thread's autocommit connection (created on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._new_connection()
            self._local.connection = connection
        return connection

    def _run_sqlite(self, txn: Optional[Transaction], callback):
        """Run ``callback(connection)`` on the right connection with
        DB-API errors mapped onto the engine's hierarchy."""
        try:
            if txn is not None:
                with txn._sqlite_lock:
                    return callback(txn._sqlite)
            return callback(self._connection())
        except sqlite3.IntegrityError as exc:
            raise ConstraintError(str(exc)) from exc
        except sqlite3.OperationalError as exc:
            message = str(exc)
            if "locked" in message or "busy" in message:
                raise TransactionTimeoutError(message) from exc
            raise DatabaseError(message) from exc
        except sqlite3.Error as exc:
            raise DatabaseError(str(exc)) from exc

    # ------------------------------------------------------------------
    # preparation (same bounded LRU contract as the in-memory server)
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedStatement:
        with self._lock:
            cached = self._plan_cache.get(sql)
            if cached is not None and cached.catalog_version == self._catalog_version:
                self._plan_cache.move_to_end(sql)
                return cached
        ast = parse(sql)
        plan = self._planner.plan(ast)
        translated = translate_statement(ast, self._style)
        with self._lock:
            previous = self._plan_cache.get(sql)
            if previous is not None:
                if previous.catalog_version == self._catalog_version:
                    self._plan_cache.move_to_end(sql)
                    return previous
                self._prepared.pop(previous.statement_id, None)
            prepared = SqlitePreparedStatement(
                next(self._statement_ids),
                sql,
                ast,
                plan,
                self._catalog_version,
                self,
                translated,
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
        """Force re-planning (called after out-of-band DDL)."""
        with self._lock:
            self._catalog_version += 1
        self.broadcast_invalidation(None)

    # ------------------------------------------------------------------
    # submission (pool-bounded, same future shape as the oracle)
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")

    def submit(
        self,
        sql: str,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
    ) -> "Future[QueryResult]":
        self._require_running()
        return self._pool.submit(self._run_sql, sql, tuple(params), txn)

    def submit_prepared(
        self,
        prepared: PreparedStatement,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
        span=None,
    ) -> "Future[QueryResult]":
        self._require_running()
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
        self._require_running()
        snapshot = [tuple(binding) for binding in bindings]
        return self._pool.submit(
            self._run_prepared_batch, prepared, snapshot, txn, span
        )

    def begin_transaction(self) -> Transaction:
        """Start an explicit transaction (2PL locks over a real BEGIN)."""
        self._require_running()
        return self.txns.begin()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
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
            span.child("server.execute", statement_id=prepared.statement_id)
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
            # Same mark-then-bump order as the in-memory write path (and
            # deliberately *before* execution): a concurrent cached read
            # overlapping the write window is caught by the reader's
            # token-then-check sequence either way.
            if txn is not None and txn.note_write(table):
                self.mark_uncommitted(table)
            self.note_data_change(table)
        with self._lock:
            self._active += 1
            if self._active > self.stats.peak_concurrency:
                self.stats.peak_concurrency = self._active
        try:
            result = self._run_statement(prepared, params, txn)
            if exec_span is not None:
                exec_span.set("write", write)
                exec_span.set("backend", self.backend_name)
                rows = getattr(result, "rowcount", None)
                if rows is not None:
                    exec_span.set("rows", rows)
            with self._lock:
                self.stats.statements_executed += 1
                if write:
                    self.stats.writes_executed += 1
                    if isinstance(
                        prepared.ast, (CreateTableStmt, CreateIndexStmt)
                    ):
                        self._catalog_version += 1
            if write and txn is None:
                # Autocommit writes broadcast immediately; transactional
                # writes defer to the commit boundary (see the manager).
                self.broadcast_invalidation(table)
            return result
        finally:
            with self._lock:
                self._active -= 1

    def _run_statement(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
    ) -> QueryResult:
        ast = prepared.ast
        _check_params(ast.param_count, params)
        self._validate_refs(ast)
        if isinstance(ast, SelectStmt):
            return self._exec_select(prepared, params, txn)
        if isinstance(ast, InsertStmt):
            return self._exec_insert(ast, params, txn)
        if isinstance(ast, UpdateStmt):
            return self._exec_update(ast, params, txn)
        if isinstance(ast, DeleteStmt):
            return self._exec_delete(ast, params, txn)
        if isinstance(ast, CreateTableStmt):
            return self._exec_create_table(ast)
        if isinstance(ast, CreateIndexStmt):
            return self._exec_create_index(ast)
        raise PlanError(f"cannot execute statement: {ast!r}")

    def _validate_refs(self, ast: Statement) -> None:
        """Raise ``UnknownColumnError`` for any column reference not in
        the table's schema.

        SQLite would never surface these: a double-quoted unknown
        identifier degrades to a string literal, so ``SELECT nope FROM
        t`` returns rows of ``'nope'`` and ``WHERE nope = 1`` silently
        matches nothing.  The in-memory engine raises eagerly for
        select items, GROUP BY and ORDER BY, and per evaluated row for
        WHERE — this backend validates everything eagerly, which agrees
        with the engine on every non-empty table (the differential
        suite's error-parity cases all run against loaded tables).
        """
        names: List[str] = []
        if isinstance(ast, SelectStmt):
            for item in ast.items:
                names.extend(iter_column_refs(item.expr))
            names.extend(iter_column_refs(ast.where))
            names.extend(ast.group_by)
            names.extend(order.column for order in ast.order_by)
            names.extend(iter_column_refs(ast.limit))
        elif isinstance(ast, UpdateStmt):
            for _column, expr in ast.assignments:
                names.extend(iter_column_refs(expr))
            names.extend(iter_column_refs(ast.where))
        elif isinstance(ast, DeleteStmt):
            names.extend(iter_column_refs(ast.where))
        else:
            return
        schema = self._catalog.table(ast.table).heap.schema
        for name in names:
            schema.position(name, ast.table)

    # -- SELECT ---------------------------------------------------------
    def _output_names(self, stmt: SelectStmt, schema: Schema) -> Tuple[str, ...]:
        if len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star):
            return schema.names()
        return tuple(
            _item_name(item, position)
            for position, item in enumerate(stmt.items)
        )

    def _exec_select(
        self,
        prepared: "SqlitePreparedStatement",
        params: tuple,
        txn: Optional[Transaction],
    ) -> QueryResult:
        stmt = prepared.ast
        schema = self._catalog.table(stmt.table).heap.schema
        # The engine's LIMIT validation (PlanError on a negative or
        # non-integer limit; SQLite would silently accept).
        limit_count(stmt, schema, params)
        bound = self._style.bind(params)

        def run(connection):
            return connection.execute(prepared.translated, bound).fetchall()

        rows = self._run_sqlite(txn, run)
        return QueryResult(
            columns=self._output_names(stmt, schema),
            rows=[tuple(row) for row in rows],
        )

    # -- INSERT ---------------------------------------------------------
    def _insert_row(self, stmt: InsertStmt, params: tuple) -> tuple:
        """Evaluate and coerce one INSERT's row exactly like the engine
        (same evaluator, same schema coercion, same error classes)."""
        info = self._catalog.table(stmt.table)
        schema = info.heap.schema
        if stmt.columns:
            positions = schema.project_positions(stmt.columns, stmt.table)
        else:
            positions = tuple(range(len(schema)))
        evaluator = RowEvaluator(schema, stmt.table, params)
        values: List[Any] = [None] * len(schema)
        for position, expr in zip(positions, stmt.values):
            values[position] = evaluator.evaluate(expr, ())
        return schema.coerce_row(values)

    def _insert_sql(self, stmt: InsertStmt, schema: Schema) -> str:
        holes = ", ".join("?" for _ in range(len(schema)))
        return f"INSERT INTO {quote_ident(stmt.table)} VALUES ({holes})"

    def _exec_insert(
        self, stmt: InsertStmt, params: tuple, txn: Optional[Transaction]
    ) -> QueryResult:
        info = self._catalog.table(stmt.table)
        if txn is not None and info.heap.is_clustered:
            raise TransactionStateError(
                f"transactional INSERT into clustered table {stmt.table!r} "
                "is not supported: clustered inserts shift row ids, which "
                "the logical undo log cannot reverse"
            )
        row = self._insert_row(stmt, params)
        sql = self._insert_sql(stmt, info.heap.schema)
        self._run_sqlite(txn, lambda connection: connection.execute(sql, row))
        return QueryResult(rowcount=1)

    # -- UPDATE ---------------------------------------------------------
    def _exec_update(
        self, stmt: UpdateStmt, params: tuple, txn: Optional[Transaction]
    ) -> QueryResult:
        """Read-modify-write: candidate rows come back from SQLite, the
        engine's evaluator computes each assignment and the schema
        coerces the result — identical value semantics and error
        classes to the oracle — then each row writes back by rowid."""
        info = self._catalog.table(stmt.table)
        schema = info.heap.schema
        targets = [
            (schema.position(column, stmt.table), expr)
            for column, expr in stmt.assignments
        ]
        select = f"SELECT rowid, * FROM {quote_ident(stmt.table)}"
        if stmt.where is not None:
            select += f" WHERE {translate_expr(stmt.where, self._style)}"
        bound = self._style.bind(params)
        matched = self._run_sqlite(
            txn, lambda connection: connection.execute(select, bound).fetchall()
        )
        evaluator = RowEvaluator(schema, stmt.table, params)
        assignments = ", ".join(
            f"{quote_ident(column.name)} = ?" for column in schema
        )
        update = (
            f"UPDATE {quote_ident(stmt.table)} SET {assignments} "
            "WHERE rowid = ?"
        )
        # Row-by-row like the engine's update loop: a coercion or
        # constraint failure stops mid-statement with earlier rows
        # applied (autocommit has no undo; in a transaction, rollback
        # reverses everything).
        for fetched in matched:
            row_id, row = fetched[0], tuple(fetched[1:])
            new_row = list(row)
            for position, expr in targets:
                new_row[position] = evaluator.evaluate(expr, row)
            coerced = schema.coerce_row(new_row)
            self._run_sqlite(
                txn,
                lambda connection, args=(*coerced, row_id): connection.execute(
                    update, args
                ),
            )
        return QueryResult(rowcount=len(matched))

    # -- DELETE ---------------------------------------------------------
    def _exec_delete(
        self, stmt: DeleteStmt, params: tuple, txn: Optional[Transaction]
    ) -> QueryResult:
        sql = f"DELETE FROM {quote_ident(stmt.table)}"
        if stmt.where is not None:
            sql += f" WHERE {translate_expr(stmt.where, self._style)}"
        bound = self._style.bind(params)
        count = self._run_sqlite(
            txn, lambda connection: connection.execute(sql, bound).rowcount
        )
        return QueryResult(rowcount=max(count, 0))

    # -- DDL -------------------------------------------------------------
    def _exec_create_table(self, stmt: CreateTableStmt) -> QueryResult:
        columns = [
            Column(
                definition.name,
                ColumnType.from_name(definition.type_name),
                nullable=not definition.not_null,
            )
            for definition in stmt.columns
        ]
        # Mirror first: duplicate-table errors (CatalogError) surface
        # from the engine catalog before SQLite is touched.
        self._catalog.create_table(
            stmt.table, Schema(columns), if_not_exists=stmt.if_not_exists
        )
        sql = translate_statement(stmt)
        self._run_sqlite(None, lambda connection: connection.execute(sql))
        return QueryResult(rowcount=0)

    def _exec_create_index(self, stmt: CreateIndexStmt) -> QueryResult:
        if stmt.clustered:
            raise PlanError(
                "clustering is declared at CREATE TABLE time via the "
                "Database.create_table(clustered_on=...) API"
            )
        self._catalog.create_index(
            stmt.index,
            stmt.table,
            stmt.column,
            ordered=stmt.ordered,
            unique=stmt.unique,
        )
        sql = translate_statement(stmt)
        self._run_sqlite(None, lambda connection: connection.execute(sql))
        return QueryResult(rowcount=0)

    # ------------------------------------------------------------------
    # set-oriented execution
    # ------------------------------------------------------------------
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
        if demuxable(prepared.plan):
            return self._run_select_batch(prepared, bindings, txn, span)
        if isinstance(prepared.ast, InsertStmt) and txn is None:
            outcomes = self._run_insert_batch_executemany(prepared, bindings)
            if outcomes is not None:
                return outcomes
        # Per-binding fallback: each binding keeps exact single-statement
        # semantics (stats, locks, invalidation broadcasts) — only the
        # transport batched.
        outcomes = []
        for binding in bindings:
            try:
                outcomes.append(self._run_prepared(prepared, binding, txn, span))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def _run_select_batch(
        self,
        prepared: "SqlitePreparedStatement",
        bindings: List[tuple],
        txn: Optional[Transaction],
        span,
    ) -> List[BindingOutcome]:
        """A demuxable (SELECT) batch: one batched call in the stats —
        executed as a single ``WHERE key IN (...)`` statement when the
        statement has the point-lookup shape, else per-binding."""
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
            key_column = self._in_demux_key(prepared.ast)
            if exec_span is not None:
                # Same attribute vocabulary as the oracle's batch span:
                # one shared IN-scan vs per-binding probes.
                exec_span.set(
                    "strategy", "scan" if key_column is not None else "probe"
                )
                exec_span.set("backend", self.backend_name)
            if key_column is not None:
                outcomes = self._demux_via_in(
                    prepared, key_column, bindings, txn
                )
            else:
                outcomes = []
                for binding in bindings:
                    try:
                        outcomes.append(
                            self._run_statement(prepared, binding, txn)
                        )
                    except Exception as exc:
                        outcomes.append(exc)
            with self._lock:
                # Same accounting as the oracle's demux path: one
                # statement answered the whole batch.
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

    @staticmethod
    def _in_demux_key(stmt: Statement) -> Optional[str]:
        """The key column when ``stmt`` is a plain single-param
        point-lookup SELECT (``... WHERE key = ?``), else None."""
        if not isinstance(stmt, SelectStmt):
            return None
        if (
            stmt.group_by
            or stmt.is_aggregate
            or stmt.distinct
            or stmt.order_by
            or stmt.limit is not None
            or stmt.param_count != 1
        ):
            return None
        where = stmt.where
        if not isinstance(where, BinaryOp) or where.op != "=":
            return None
        sides = (where.left, where.right)
        column = next(
            (side for side in sides if isinstance(side, ColumnRef)), None
        )
        param = next((side for side in sides if isinstance(side, Param)), None)
        if column is None or param is None:
            return None
        star = len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star)
        if not star and not all(
            isinstance(item.expr, ColumnRef) for item in stmt.items
        ):
            return None
        return column.name

    def _demux_via_in(
        self,
        prepared: "SqlitePreparedStatement",
        key_column: str,
        bindings: List[tuple],
        txn: Optional[Transaction],
    ) -> List[BindingOutcome]:
        stmt = prepared.ast
        schema = self._catalog.table(stmt.table).heap.schema
        keys: List[Any] = []
        for binding in bindings:
            if len(binding) == 1 and binding[0] is not None:
                if binding[0] not in keys:
                    keys.append(binding[0])
        star = len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star)
        if star:
            select_list = "*"
            key_position = schema.position(key_column, stmt.table)
            width = len(schema)
        else:
            names = [item.expr.name for item in stmt.items]
            select_list = ", ".join(quote_ident(name) for name in names)
            # The key rides along as an extra trailing column and is
            # stripped before rows reach the client.
            select_list += f", {quote_ident(key_column)}"
            key_position = len(names)
            width = len(names)
        rows: List[tuple] = []
        if keys:
            holes = ", ".join("?" for _ in keys)
            sql = (
                f"SELECT {select_list} FROM {quote_ident(stmt.table)} "
                f"WHERE {quote_ident(key_column)} IN ({holes})"
            )
            rows = self._run_sqlite(
                txn,
                lambda connection: connection.execute(sql, keys).fetchall(),
            )
        by_key: Dict[Any, List[tuple]] = {}
        for fetched in rows:
            row = tuple(fetched)
            by_key.setdefault(row[key_position], []).append(row[:width])
        columns = self._output_names(stmt, schema)
        outcomes: List[BindingOutcome] = []
        for binding in bindings:
            if len(binding) != 1:
                outcomes.append(ParamCountError(1, len(binding)))
                continue
            matches = (
                by_key.get(binding[0], []) if binding[0] is not None else []
            )
            outcomes.append(QueryResult(columns=columns, rows=list(matches)))
        return outcomes

    def _run_insert_batch_executemany(
        self, prepared: "SqlitePreparedStatement", bindings: List[tuple]
    ) -> Optional[List[BindingOutcome]]:
        """INSERT batches map to ``executemany`` under a savepoint.

        Rows that fail evaluation/coercion fault only their own slot;
        the remaining rows insert in one DB-API call.  A constraint
        violation inside ``executemany`` rolls the savepoint back and
        returns None — the caller re-runs per binding so the failing
        row (and only it) carries the error.
        """
        stmt = prepared.ast
        info = self._catalog.table(stmt.table)
        sql = self._insert_sql(stmt, info.heap.schema)
        outcomes: List[BindingOutcome] = [None] * len(bindings)
        rows: List[tuple] = []
        good: List[int] = []
        for position, binding in enumerate(bindings):
            try:
                _check_params(stmt.param_count, binding)
                rows.append(self._insert_row(stmt, binding))
                good.append(position)
            except Exception as exc:
                outcomes[position] = exc
        if rows:
            table = stmt.table
            for _ in good:
                self.note_data_change(table)

            def run(connection):
                connection.execute("SAVEPOINT repro_batch")
                try:
                    connection.executemany(sql, rows)
                except sqlite3.Error:
                    connection.execute("ROLLBACK TO repro_batch")
                    connection.execute("RELEASE repro_batch")
                    return False
                connection.execute("RELEASE repro_batch")
                return True

            try:
                inserted = self._run_sqlite(None, run)
            except Exception:
                inserted = False
            if not inserted:
                return None
            with self._lock:
                self.stats.statements_executed += len(good)
                self.stats.writes_executed += len(good)
            self.broadcast_invalidation(table)
        for position in good:
            outcomes[position] = QueryResult(rowcount=1)
        return outcomes

    # ------------------------------------------------------------------
    # transactions / locking (shared with the oracle)
    # ------------------------------------------------------------------
    def _lock_for_txn(self, txn: Transaction, ast: Statement) -> None:
        if isinstance(ast, (CreateTableStmt, CreateIndexStmt)):
            raise TransactionStateError(
                "DDL inside an explicit transaction is not supported"
            )
        table = getattr(ast, "table", None)
        if table is not None:
            self.txns.lock_for_statement(txn, table, write=is_write(ast))

    # ------------------------------------------------------------------
    # schema mirroring (Database replicates out-of-band DDL/loads here)
    # ------------------------------------------------------------------
    def mirror_create_table(
        self,
        name: str,
        schema: Schema,
        rows_per_page: Optional[int] = None,
        clustered_on: Optional[str] = None,
    ) -> None:
        kwargs = {"clustered_on": clustered_on}
        if rows_per_page is not None:
            kwargs["rows_per_page"] = rows_per_page
        self._catalog.create_table(name, schema, **kwargs)
        sql = create_table_sql(name, schema)
        self._run_sqlite(None, lambda connection: connection.execute(sql))
        self.invalidate_plans()

    def mirror_create_index(
        self,
        index_name: str,
        table: str,
        column: str,
        ordered: bool = False,
        unique: bool = False,
    ) -> None:
        self._catalog.create_index(
            index_name, table, column, ordered=ordered, unique=unique
        )
        sql = create_index_sql(index_name, table, column, unique=unique)
        self._run_sqlite(None, lambda connection: connection.execute(sql))
        self.invalidate_plans()

    def mirror_load(self, table: str, rows: Sequence[Sequence]) -> int:
        """Bulk-load pre-coerced rows (no latency, no stats — mirrors
        ``Database.bulk_load``, which is not a measured operation)."""
        info = self._catalog.table(table)
        schema = info.heap.schema
        coerced = [schema.coerce_row(row) for row in rows]
        if not coerced:
            return 0
        holes = ", ".join("?" for _ in range(len(schema)))
        sql = f"INSERT INTO {quote_ident(table)} VALUES ({holes})"
        self._run_sqlite(
            None, lambda connection: connection.executemany(sql, coerced)
        )
        return len(coerced)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
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
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        self._finalizer()

    @property
    def is_shutdown(self) -> bool:
        with self._lock:
            return self._shutdown
