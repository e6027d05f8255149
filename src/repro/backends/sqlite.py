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
oracle raises.  The schema reaches both — the mirror catalog first,
under the catalog's name rule, then SQLite — only through
``mirror_create_table`` / ``mirror_create_index``, which
``Database.create_table`` / ``create_index`` call: a statement is a
SELECT, INSERT, UPDATE or DELETE, never DDL.  Only the *data* lives in
SQLite: a scratch database file (WAL mode, so readers never block the
writer), with the engine AST translated to SQLite text by
:mod:`repro.backends.dialect` — once, in ``_plan``, which is the only
place this store sees an AST.
Execution evaluates no expression of its own: the row an INSERT stores,
the values an UPDATE writes, LIMIT validation and result column names
all come from the plan's public members.  An UPDATE whose assignments
are all bare ``?`` on columns no unique index covers runs as one native
statement binding ``UpdatePlan.coerced_params``; any other — or one
whose binding does not coerce — reads the matching rows and writes
back the new row ``UpdatePlan.assigner`` computes for each, in one
write transaction.

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
  demultiplexed per binding; a binding whose key cannot join the list
  runs alone, so it fails (or answers) exactly as it would unbatched.
  A write batch runs binding by binding through the inherited path.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import threading
import weakref
from typing import Any, Dict, Iterable, List, Optional

from ..db.catalog import Catalog
from ..db.disk import SimulatedDisk
from ..db.errors import (
    ConstraintError,
    DatabaseError,
    TransactionTimeoutError,
    TypeMismatchError,
)
from ..db.latency import INSTANT, LatencyMeter, LatencyProfile
from ..db.plan import (
    BindingOutcome,
    Planner,
    QueryResult,
    check_params,
)
from ..db.sql.ast_nodes import (
    InsertStmt,
    SelectStmt,
    Statement,
    UpdateStmt,
)
from ..db.storage import DEFAULT_ROWS_PER_PAGE
from ..db.txn import Transaction, TransactionManager
from ..db.types import Row, Schema
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


#: Bounds of the integers sqlite binds (anything wider overflows).
_INT64 = range(-(1 << 63), 1 << 63)


def _in_list_key(binding: tuple) -> bool:
    """May the binding's key join the batch's ``IN (...)`` list?  Only a
    lone value sqlite binds as itself and a dict can hold: an int that
    fits 64 bits, a float, bytes, a str that encodes (an ASCII or a
    printable one — a lone surrogate is neither), or NULL (which, as
    ``= NULL`` alone, matches nothing).  Anything else — the wrong
    arity, a list, a tuple, a wide int — runs alone."""
    if len(binding) != 1:
        return False
    key = binding[0]
    kind = type(key)
    if kind is int:
        return key in _INT64
    if kind is str:
        return key.isascii() or key.isprintable()
    return kind is float or kind is bytes or key is None


def _never_stored(key) -> bool:
    """Is ``key`` an int or a str no sqlite column holds — wider than
    64 bits, or not encodable (a lone surrogate)?  sqlite cannot bind
    it, and no stored value equals it."""
    if type(key) is int:
        return key not in _INT64
    if type(key) is str:
        try:
            key.encode()
        except UnicodeEncodeError:
            return True
    return False


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
        except (sqlite3.Error, OverflowError, ValueError) as exc:
            # A value sqlite cannot bind (an int wider than 64 bits, a
            # str that does not encode) fails with a bare builtin.
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
            # One native UPDATE when its result provably equals the
            # plan's: every assignment a bare ``?`` (bound coerced, see
            # _run_update) and no assigned column under a unique index
            # (a violation would undo the whole native statement, where
            # the plan's row-by-row loop keeps the rows before it).
            # Otherwise, and as the fallback: read-modify-write —
            # matching rows come back with their rowid, the plan
            # computes each new row, and the full row writes back by
            # rowid.
            assigned = {column for column, _ in ast.assignments}
            native = (
                translate_statement(ast)
                if plan.slots is not None
                and not any(
                    index.unique
                    for index in self._catalog.indexes_on(ast.table)
                    if index.column in assigned
                )
                else None
            )
            table = quote_ident(ast.table)
            select = f"SELECT rowid, * FROM {table}"
            if ast.where is not None:
                select += f" WHERE {translate_expr(ast.where)}"
            assignments = ", ".join(
                f"{quote_ident(column.name)} = ?"
                for column in self._catalog.table(ast.table).heap.schema
            )
            update = f"UPDATE {table} SET {assignments} WHERE rowid = ?"
            return plan, (self._run_update, native, select, update)
        return plan, (self._run_delete, translate_statement(ast))

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

    def _run_select(self, plan, params, txn, sql, batch_sql, _key_position):
        # The engine's LIMIT validation (PlanError on a negative or
        # non-integer limit; SQLite would silently accept).
        plan.limit(params)
        bound = NAMED.bind(params)
        try:
            rows = self._run_sqlite(
                txn, lambda connection: connection.execute(sql, bound).fetchall()
            )
        except DatabaseError:
            # A point read's key no stored value can equal answers no
            # rows, as on the in-memory store.
            if batch_sql is None or not _never_stored(params[0]):
                raise
            rows = []
        return QueryResult(columns=plan.output_names, rows=rows)

    def _run_insert(self, plan, params, txn, sql):
        row = plan.row(params)
        self._run_sqlite(txn, lambda connection: connection.execute(sql, row))
        return QueryResult(rowcount=1)

    def _run_update(self, plan, params, txn, native, select, update):
        if native is not None:
            try:
                bound = NAMED.bind(plan.coerced_params(params))
            except TypeMismatchError:
                pass  # the read-modify-write raises it, if a row matches
            else:
                count = self._run_sqlite(
                    txn, lambda connection: connection.execute(native, bound).rowcount
                )
                return QueryResult(rowcount=count)
        assign = plan.assigner(params)
        bound = NAMED.bind(params)

        def read_modify_write(connection):
            # Row-by-row like the engine's update loop: a coercion
            # failure stops mid-statement with earlier rows applied.
            matched = connection.execute(select, bound).fetchall()
            for row_id, *old_row in matched:
                connection.execute(update, (*assign(old_row), row_id))
            return len(matched)

        def autocommit(connection):
            # One write transaction from the read to the last write: a
            # concurrent autocommit UPDATE cannot slip in between and
            # be overwritten.  An engine error keeps the rows written
            # before it (as the engine's own loop does); a SQLite error
            # rolls the statement back.
            connection.execute("BEGIN IMMEDIATE")
            try:
                count = read_modify_write(connection)
            except sqlite3.Error:
                connection.execute("ROLLBACK")
                raise
            finally:
                if connection.in_transaction:
                    connection.execute("COMMIT")
            return count

        count = self._run_sqlite(
            txn, read_modify_write if txn is not None else autocommit
        )
        return QueryResult(rowcount=count)

    def _run_delete(self, plan, params, txn, sql):
        bound = NAMED.bind(params)
        count = self._run_sqlite(
            txn, lambda connection: connection.execute(sql, bound).rowcount
        )
        return QueryResult(rowcount=max(count, 0))

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
        if batch_sql is None:
            return [self._alone(prepared, binding, txn) for binding in bindings]
        keys = list(
            dict.fromkeys(
                binding[0] for binding in bindings if _in_list_key(binding)
            )
        )
        rows: List[tuple] = []
        if keys:
            sql = batch_sql + ", ".join("?" for _ in keys) + ")"
            rows = self._run_sqlite(
                txn,
                lambda connection: connection.execute(sql, keys).fetchall(),
            )
        columns = prepared.plan.output_names
        # A non-``*`` row carries the key as an extra trailing column,
        # stripped before rows reach the client.
        width = len(columns)
        by_key: Dict[Any, List[tuple]] = {}
        for row in rows:
            by_key.setdefault(row[key_position], []).append(row[:width])
        return [
            QueryResult(columns=columns, rows=list(by_key.get(binding[0], ())))
            if _in_list_key(binding)
            else self._alone(prepared, binding, txn)
            for binding in bindings
        ]

    def _alone(
        self,
        prepared: PreparedStatement,
        binding: tuple,
        txn: Optional[Transaction],
    ) -> BindingOutcome:
        """One binding of a batch run as its own statement: its result,
        or the exception it raised."""
        try:
            return self._execute(prepared, binding, txn, None)
        except Exception as exc:
            return exc

    # ------------------------------------------------------------------
    # schema mirroring (Database makes its tables, indexes and loads
    # here; no statement text changes a schema)
    # ------------------------------------------------------------------
    def mirror_create_table(
        self, name: str, schema: Schema, rows_per_page: int = DEFAULT_ROWS_PER_PAGE
    ) -> None:
        self._catalog.create_table(name, schema, rows_per_page=rows_per_page)
        sql = create_table_sql(name, schema)
        self._run_sqlite(None, lambda connection: connection.execute(sql))
        self.invalidate_plans()

    def mirror_create_index(
        self, index_name: str, table: str, column: str, unique: bool = False
    ) -> None:
        self._catalog.create_index(index_name, table, column, unique=unique)
        sql = create_index_sql(index_name, table, column, unique=unique)
        self._run_sqlite(None, lambda connection: connection.execute(sql))
        self.invalidate_plans()

    def mirror_load(self, table: str, rows: Iterable[Row]) -> int:
        """Bulk-load rows as the engine's heap holds them — coerced to
        the schema already, so they bind as they are — with one
        ``executemany`` in one transaction: all of them or, if one
        fails, none.  Returns how many.  No latency, no stats: it
        mirrors ``Database.bulk_load``, which is not a measured
        operation."""
        sql = insert_full_row_sql(table, self._catalog.table(table).heap.schema)

        def load(connection):
            connection.execute("BEGIN IMMEDIATE")
            try:
                count = connection.executemany(sql, rows).rowcount
                connection.execute("COMMIT")
            finally:
                if connection.in_transaction:
                    connection.execute("ROLLBACK")
            return count

        return self._run_sqlite(None, load)

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
