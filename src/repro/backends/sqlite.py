"""The stdlib ``sqlite3`` backend: the first real store behind Backend.

The statement lifecycle — prepare LRU, worker pool, spans, write-path
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
file (WAL mode, so pool readers never block the writer), with the
engine AST translated to SQLite text by :mod:`repro.backends.dialect`.

Design notes:

* **Thread-local connections.**  Autocommit statements run on the
  inherited ``server_workers``-sized pool, one SQLite connection per
  worker thread — same submission shape as the in-memory server, so the
  client's async pipeline (and its thread-count plateau) is unchanged.
* **Transactions are real.**  ``begin_transaction`` opens a dedicated
  connection and issues ``BEGIN``; the transaction manager's apply step
  issues real ``COMMIT``/``ROLLBACK``.  The engine's strict-2PL table
  locks (:class:`repro.db.txn.LockManager`) still sit on top —
  transaction conflict behavior (waits, ``TransactionTimeoutError``)
  matches the oracle, and SQLite's single-writer lock underneath never
  admits what 2PL would forbid.  Write-versioning and uncommitted-write
  marks are driven by the inherited write path (the "client-tracked"
  invalidation mode: a DB-API server cannot push), so the
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..db.catalog import Catalog
from ..db.disk import SimulatedDisk
from ..db.errors import (
    ConstraintError,
    DatabaseError,
    ParamCountError,
    PlanError,
    TransactionStateError,
    TransactionTimeoutError,
)
from ..db.latency import INSTANT, LatencyMeter, LatencyProfile
from ..db.plan import BindingOutcome, Planner, QueryResult
from ..db.plan.expr_eval import RowEvaluator, limit_count
from ..db.plan.operators import _item_name
from ..db.plan.planner import _check_params
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
)
from ..db.txn import Transaction, TransactionManager
from ..db.types import Column, ColumnType, Schema
from .base import Backend, PreparedStatement
from .dialect import (
    NAMED,
    create_index_sql,
    create_table_sql,
    quote_ident,
    translate_expr,
    translate_statement,
)


class _SqliteTransactionManager(TransactionManager):
    """The engine transaction manager with SQLite durability.

    Reuses the 2PL lock manager, state machine, async-read drain, the
    completion order and the invalidation/data-change/release hooks
    verbatim; the undo log stays empty (SQLite's journal reverses data
    changes), so the apply step is a real ``COMMIT``/``ROLLBACK``.
    Each transaction owns a dedicated SQLite connection plus a
    statement lock (async reads execute on pool threads against the
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
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        # First connection creates the file and flips it to WAL, so
        # pool readers never block the (single) writer.
        self._connection()

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
    # store hooks: planning and single-statement execution
    # ------------------------------------------------------------------
    def _plan(self, ast: Statement):
        # Unknown column references are rejected by the shared planner:
        # SQLite itself would degrade a double-quoted unknown identifier
        # to a string literal and answer silently.
        return self._planner.plan(ast), translate_statement(ast)

    def _execute(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        exec_span,
    ) -> QueryResult:
        ast = prepared.ast
        _check_params(ast.param_count, params)
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
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
    ) -> QueryResult:
        stmt = prepared.ast
        schema = self._catalog.table(stmt.table).heap.schema
        # The engine's LIMIT validation (PlanError on a negative or
        # non-integer limit; SQLite would silently accept).
        limit_count(stmt, schema, params)
        bound = NAMED.bind(params)

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
            select += f" WHERE {translate_expr(stmt.where)}"
        bound = NAMED.bind(params)
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
            sql += f" WHERE {translate_expr(stmt.where)}"
        bound = NAMED.bind(params)
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
        key_column = self._in_demux_key(prepared.ast)
        if exec_span is not None:
            # Same attribute vocabulary as the oracle's batch span:
            # one shared IN-scan vs per-binding probes.
            exec_span.set(
                "strategy", "scan" if key_column is not None else "probe"
            )
        if key_column is not None:
            return self._demux_via_in(prepared, key_column, bindings, txn)
        outcomes: List[BindingOutcome] = []
        for binding in bindings:
            try:
                outcomes.append(self._execute(prepared, binding, txn, None))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

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
        prepared: PreparedStatement,
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
        stmt = prepared.ast
        if not isinstance(stmt, InsertStmt):
            return None
        info = self._catalog.table(stmt.table)
        sql = self._insert_sql(stmt, info.heap.schema)
        outcomes: List[BindingOutcome] = []
        rows: List[tuple] = []
        for binding in bindings:
            try:
                _check_params(stmt.param_count, binding)
                rows.append(self._insert_row(stmt, binding))
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
        holes = ", ".join("?" for _ in range(len(schema)))
        sql = f"INSERT INTO {quote_ident(table)} VALUES ({holes})"
        self._run_sqlite(
            None, lambda connection: connection.executemany(sql, coerced)
        )
        return len(coerced)

    # ------------------------------------------------------------------
    def _close(self) -> None:
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        self._finalizer()
