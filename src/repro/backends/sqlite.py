"""The stdlib ``sqlite3`` backend: the first real store behind Backend.

The statement lifecycle — prepare LRU, admission gate, spans, write-path
ordering, batch accounting, stats, shutdown — is inherited from
:class:`repro.backends.base.Backend`; this module holds only what is
SQLite's: connections, the dialect translation, how one statement /
one batch runs, and real ``COMMIT``/``ROLLBACK``.

Statements still *parse and plan* through the engine's own front end —
the mirror catalog below carries every table's schema, so prepare-time
errors (unknown table/column, INSERT arity, aggregate misuse) and
execution-time coercion errors (``TypeMismatchError``,
``ParamCountError``) surface with exactly the classes the in-memory
oracle raises.  Only the *data* lives in SQLite: a scratch database
file (WAL mode, so readers never block the writer), with the
engine AST translated to SQLite text by :mod:`repro.backends.dialect`
— once, in ``_plan``, which is the only place this store sees an AST.
Execution evaluates no expression of its own: the row an INSERT stores,
the new row of an UPDATE, LIMIT validation and result column names all
come from the plan's public members.

Design notes:

* **A free list of connections.**  Autocommit statements run in
  whichever thread called the backend (the inherited admission gate
  admits ``server_workers`` at a time), so a connection per *thread*
  would leak one per client executor thread that ever came by.
  Instead ``_run_sqlite`` pops an idle connection (opening one if none
  is idle), runs its callback and puts it back: the gate bounds the
  list at ``server_workers`` plus one for the out-of-gate ``mirror_*``
  caller, however many client threads come and go.
* **Transactions are real.**  ``begin_transaction`` opens a dedicated
  connection and issues ``BEGIN``; the transaction manager's apply step
  issues real ``COMMIT``/``ROLLBACK``.  The engine's strict-2PL table
  locks (:class:`repro.db.txn.LockManager`) still sit on top —
  transaction conflict behavior (waits, ``TransactionTimeoutError``)
  matches the oracle, and SQLite's single-writer lock underneath never
  admits what 2PL would forbid.  The write-epoch ledger is driven by
  the inherited write path (a DB-API server cannot push, and nothing
  here needs it to: cached readers validate against the ledger), so the
  cache-consistency protocol is the in-memory one by construction.
* **Set-oriented dispatch maps to SQL.**  A coalesced batch over a
  ``col = ?`` SELECT executes once as ``WHERE col IN (...)`` and is
  demultiplexed per binding; INSERT batches go through ``executemany``
  under a savepoint (declining to per-binding execution to preserve
  per-slot fault isolation).
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence

from ..db.catalog import Catalog
from ..db.disk import SimulatedDisk
from ..db.errors import (
    ConstraintError,
    DatabaseError,
    ParamCountError,
    TransactionTimeoutError,
)
from ..db.latency import INSTANT, LatencyMeter, LatencyProfile
from ..db.plan import (
    BindingOutcome,
    InsertPlan,
    Planner,
    QueryResult,
    check_params,
)
from ..db.sql.ast_nodes import (
    DeleteStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    UpdateStmt,
)
from ..db.txn import Transaction, TransactionManager
from ..db.types import Schema
from .base import Backend, PreparedStatement
from .dialect import (
    NAMED,
    create_index_sql,
    create_table_sql,
    insert_full_row_sql,
    quote_ident,
    translate_expr,
    translate_point_batch,
    translate_statement,
)


class _SqliteTransactionManager(TransactionManager):
    """The engine transaction manager with SQLite durability.

    Reuses the 2PL lock manager, state machine, async-read drain, the
    completion order and the end-of-write hook verbatim; the undo log
    stays empty (SQLite's journal reverses data changes), so the apply
    step is a real ``COMMIT``/``ROLLBACK``.
    Each transaction owns a dedicated SQLite connection plus a
    statement lock (async reads execute on executor threads against the
    same connection).
    """

    def __init__(self, catalog: Catalog, backend: "SqliteBackend") -> None:
        super().__init__(catalog)
        self._backend = backend

    def begin(self) -> Transaction:
        txn = super().begin()
        connection = self._backend._new_connection()
        connection.execute("BEGIN")
        txn._sqlite = connection
        txn._sqlite_lock = threading.Lock()
        return txn

    def _apply(self, txn: Transaction, commit: bool) -> None:
        with txn._sqlite_lock:
            try:
                txn._sqlite.execute("COMMIT" if commit else "ROLLBACK")
            finally:
                self._backend._close_connection(txn._sqlite)


class SqliteBackend(Backend):
    """Executes the engine's SQL subset against a scratch SQLite file."""

    backend_name = "sqlite"

    def __init__(
        self,
        profile: LatencyProfile = INSTANT,
        meter: Optional[LatencyMeter] = None,
        max_prepared: int = Backend.DEFAULT_MAX_PREPARED,
    ) -> None:
        #: Schema mirror: an engine catalog holding every table's schema
        #: (heaps stay empty — SQLite holds the rows).  Planning against
        #: it reproduces the oracle's prepare-time and coercion errors.
        catalog = Catalog(SimulatedDisk(INSTANT, LatencyMeter()))
        super().__init__(
            catalog,
            profile,
            meter if meter is not None else LatencyMeter(),
            _SqliteTransactionManager(catalog, self),
            max_prepared,
        )
        self._planner = Planner(catalog)
        #: Scratch database directory (removed at shutdown, or by the
        #: finalizer if the backend is dropped without one).
        self._tmpdir = tempfile.mkdtemp(prefix="repro-sqlite-")
        self._path = os.path.join(self._tmpdir, "db.sqlite3")
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self._tmpdir, True
        )
        #: Every open connection (closed at shutdown) and, of those,
        #: the autocommit ones no statement is using right now.
        self._connections: List[sqlite3.Connection] = []
        self._idle: List[sqlite3.Connection] = []
        # First connection creates the file and flips it to WAL, so
        # readers never block the (single) writer.
        self._idle.append(self._new_connection())

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
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

    def _run_sqlite(self, txn: Optional[Transaction], callback):
        """Run ``callback(connection)`` on the right connection — the
        transaction's own, else an idle autocommit one held for exactly
        this callback — with DB-API errors mapped onto the engine's
        hierarchy."""
        try:
            if txn is not None:
                with txn._sqlite_lock:
                    return callback(txn._sqlite)
            idle = self._idle
            try:
                connection = idle.pop()  # list.pop/append: atomic, no lock
            except IndexError:
                connection = self._new_connection()
            try:
                return callback(connection)
            finally:
                idle.append(connection)
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
    # store hooks: planning and single-statement execution
    # ------------------------------------------------------------------
    def _plan(self, ast: Statement):
        """Plan with the shared planner and compile every SQL text this
        statement will ever execute: ``translated`` is ``(runner,
        *texts)``.  This is the only place the store sees the AST; from
        here on execution is bind -> run -> wrap against the plan's
        public members."""
        # Unknown column references are rejected by the shared planner:
        # SQLite itself would degrade a double-quoted unknown identifier
        # to a string literal and answer silently.
        plan = self._planner.plan(ast)
        if isinstance(ast, SelectStmt):
            batch_sql = key_position = None
            key = plan.point_key
            if key is not None:
                # One ``WHERE key IN (...)`` answers a whole batch of a
                # point lookup; the key's position in a fetched row is
                # where ``*`` puts it, else the extra trailing column.
                batch_sql = translate_point_batch(ast, key)
                key_position = (
                    plan.output_names.index(key)
                    if plan.star
                    else len(plan.output_names)
                )
            return plan, (
                self._run_select,
                translate_statement(ast),
                batch_sql,
                key_position,
            )
        if isinstance(ast, InsertStmt):
            schema = self._catalog.table(ast.table).heap.schema
            return plan, (self._run_insert, insert_full_row_sql(ast.table, schema))
        if isinstance(ast, UpdateStmt):
            # Read-modify-write: matching rows come back with their
            # rowid, the plan computes each new row, and the full row
            # writes back by rowid.
            table = quote_ident(ast.table)
            select = f"SELECT rowid, * FROM {table}"
            if ast.where is not None:
                select += f" WHERE {translate_expr(ast.where)}"
            assignments = ", ".join(
                f"{quote_ident(column.name)} = ?"
                for column in self._catalog.table(ast.table).heap.schema
            )
            update = f"UPDATE {table} SET {assignments} WHERE rowid = ?"
            return plan, (self._run_update, select, update)
        if isinstance(ast, DeleteStmt):
            return plan, (self._run_delete, translate_statement(ast))
        return plan, (self._run_ddl, translate_statement(ast))

    def _execute(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span,
    ) -> QueryResult:
        check_params(prepared.param_count, params)
        runner, *texts = prepared.translated
        return runner(prepared.plan, params, txn, *texts)

    def _run_select(self, plan, params, txn, sql, _batch_sql, _key_position):
        # The engine's LIMIT validation (PlanError on a negative or
        # non-integer limit; SQLite would silently accept).
        plan.limit(params)
        bound = NAMED.bind(params)
        rows = self._run_sqlite(
            txn, lambda connection: connection.execute(sql, bound).fetchall()
        )
        return QueryResult(columns=plan.output_names, rows=rows)

    def _run_insert(self, plan, params, txn, sql):
        row = plan.row(params, txn)
        self._run_sqlite(txn, lambda connection: connection.execute(sql, row))
        return QueryResult(rowcount=1)

    def _run_update(self, plan, params, txn, select, update):
        assign = plan.assigner(params)
        bound = NAMED.bind(params)
        matched = self._run_sqlite(
            txn, lambda connection: connection.execute(select, bound).fetchall()
        )
        # Row-by-row like the engine's update loop: a coercion or
        # constraint failure stops mid-statement with earlier rows
        # applied (autocommit has no undo; in a transaction, rollback
        # reverses everything).
        for row_id, *old_row in matched:
            args = (*assign(old_row), row_id)
            self._run_sqlite(
                txn, lambda connection: connection.execute(update, args)
            )
        return QueryResult(rowcount=len(matched))

    def _run_delete(self, plan, params, txn, sql):
        bound = NAMED.bind(params)
        count = self._run_sqlite(
            txn, lambda connection: connection.execute(sql, bound).rowcount
        )
        return QueryResult(rowcount=max(count, 0))

    def _run_ddl(self, plan, params, txn, sql):
        # Mirror first: duplicate-table errors (CatalogError) surface
        # from the engine catalog before SQLite is touched.
        plan.apply()
        self._run_sqlite(txn, lambda connection: connection.execute(sql))
        return QueryResult(rowcount=0)

    # ------------------------------------------------------------------
    # store hooks: set-oriented execution
    # ------------------------------------------------------------------
    def _execute_select_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        exec_span,
    ) -> List[BindingOutcome]:
        """A single ``WHERE key IN (...)`` statement when the SELECT has
        the point-lookup shape, else one probe per binding."""
        _runner, _sql, batch_sql, key_position = prepared.translated
        if exec_span is not None:
            # Same attribute vocabulary as the oracle's batch span:
            # one shared IN-scan vs per-binding probes.
            exec_span.set(
                "strategy", "scan" if batch_sql is not None else "probe"
            )
        if batch_sql is not None:
            return self._demux_via_in(
                prepared.plan, batch_sql, key_position, bindings, txn
            )
        outcomes: List[BindingOutcome] = []
        for binding in bindings:
            try:
                outcomes.append(self._execute(prepared, binding, txn, None))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def _demux_via_in(
        self,
        plan,
        batch_sql: str,
        key_position: int,
        bindings: List[tuple],
        txn: Optional[Transaction],
    ) -> List[BindingOutcome]:
        keys = list(
            dict.fromkeys(
                binding[0]
                for binding in bindings
                if len(binding) == 1 and binding[0] is not None
            )
        )
        rows: List[tuple] = []
        if keys:
            sql = batch_sql + ", ".join("?" for _ in keys) + ")"
            rows = self._run_sqlite(
                txn,
                lambda connection: connection.execute(sql, keys).fetchall(),
            )
        columns = plan.output_names
        # A non-``*`` row carries the key as an extra trailing column,
        # stripped before rows reach the client.
        width = len(columns)
        by_key: Dict[Any, List[tuple]] = {}
        for row in rows:
            by_key.setdefault(row[key_position], []).append(row[:width])
        # (A NULL binding finds nothing: IN never returns a NULL key.)
        return [
            QueryResult(columns=columns, rows=list(by_key.get(binding[0], ())))
            if len(binding) == 1
            else ParamCountError(1, len(binding))
            for binding in bindings
        ]

    def _execute_write_batch(
        self, prepared: PreparedStatement, bindings: List[tuple]
    ) -> Optional[List[BindingOutcome]]:
        """INSERT batches map to ``executemany`` under a savepoint.

        Rows that fail evaluation/coercion fault only their own slot;
        the remaining rows insert in one DB-API call.  A constraint
        violation inside ``executemany`` rolls the savepoint back and
        returns None — the caller re-runs per binding so the failing
        row (and only it) carries the error.
        """
        plan = prepared.plan
        if not isinstance(plan, InsertPlan):
            return None
        _runner, sql = prepared.translated
        outcomes: List[BindingOutcome] = []
        rows: List[tuple] = []
        for binding in bindings:
            try:
                rows.append(plan.row(binding, None))
                outcomes.append(QueryResult(rowcount=1))
            except Exception as exc:
                outcomes.append(exc)

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

        if rows:
            try:
                inserted = self._run_sqlite(None, run)
            except Exception:
                inserted = False
            if not inserted:
                return None
        return outcomes

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
        sql = insert_full_row_sql(table, schema)
        self._run_sqlite(
            None, lambda connection: connection.executemany(sql, coerced)
        )
        return len(coerced)

    # ------------------------------------------------------------------
    def _close(self) -> None:
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
            self._idle.clear()
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        self._finalizer()
