"""The planner: statement AST -> executable plan.

Access-path selection reads the WHERE clause's compiled conjuncts
(:class:`~repro.db.plan.expr_eval.Predicate`, the one owner of a
conjunct's shape), in priority order for the first ``col = expr``
conjunct with a usable path:

1. clustering column of the table  -> contiguous heap range
2. hash index on the column        -> bucket probe + heap fetch
3. ordered index (then the first range conjunct on an ordered index)
                                   -> index range + heap fetch
4. otherwise                       -> shared sequential scan

The chosen operator holds the conjunct's slot and reads its constant
from the execution's binding.

The non-matched conjuncts (and, harmlessly, the matched one) are
re-applied as a residual filter, so planning is purely a cost decision —
never a correctness one.  Property tests exploit that: every query must
return identical rows with indexes present or absent.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..catalog import Catalog
from ..catalog_types import TableInfo
from ..errors import ParamCountError, PlanError, TransactionStateError
from ..index import HashIndex, OrderedIndex
from ..sql.ast_nodes import (
    Aggregate,
    ColumnRef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    InsertStmt,
    Param,
    SelectItem,
    SelectStmt,
    Star,
    Statement,
    UpdateStmt,
    iter_column_refs,
)
from ..types import ColumnType, Row, schema_of_defs
from .context import ExecutionContext
from .expr_eval import ColumnarEvaluator, Predicate, RowEvaluator
from .operators import (
    AggregateFold,
    ClusteredEqOp,
    HashEqOp,
    OrderedRangeOp,
    SeqScanOp,
    _fetch_selection,
    columnar_order,
    columnar_project,
    order_output_rows,
)
from .result import QueryResult


class Planner:
    """Stateless planner over one catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def plan(self, statement: Statement):
        if isinstance(statement, SelectStmt):
            return SelectPlan(self._catalog, statement)
        if isinstance(statement, InsertStmt):
            return InsertPlan(self._catalog, statement)
        if isinstance(statement, UpdateStmt):
            return UpdatePlan(self._catalog, statement)
        if isinstance(statement, DeleteStmt):
            return DeletePlan(self._catalog, statement)
        if isinstance(statement, CreateTableStmt):
            return CreateTablePlan(self._catalog, statement)
        if isinstance(statement, CreateIndexStmt):
            return CreateIndexPlan(self._catalog, statement)
        raise PlanError(f"cannot plan statement: {statement!r}")


# ----------------------------------------------------------------------
# helpers shared by SELECT/UPDATE/DELETE
# ----------------------------------------------------------------------


def _choose_access_path(info: TableInfo, indexes, where: Predicate):
    names = info.heap.schema.names()
    # The first index of each kind on a column (``reversed``: the first
    # one written into the dict last).
    hashed = {i.column: i for i in reversed(indexes) if isinstance(i, HashIndex)}
    ordered = {i.column: i for i in reversed(indexes) if isinstance(i, OrderedIndex)}
    for slot, (test, position, _operands) in enumerate(where.conjuncts):
        if test != "=":
            continue
        column = names[position]
        if info.heap.clustered_on == column:
            return ClusteredEqOp(info, slot)
        if column in hashed:
            return HashEqOp(info, hashed[column], slot)
        if column in ordered:
            return OrderedRangeOp(info, ordered[column], slot, test)
    for slot, (test, position, _operands) in enumerate(where.conjuncts):
        if test in OrderedRangeOp.SERVES and names[position] in ordered:
            return OrderedRangeOp(info, ordered[names[position]], slot, test)
    return SeqScanOp(info)


def check_params(expected: int, params: Sequence) -> None:
    """Raise :class:`ParamCountError` unless ``params`` binds exactly
    ``expected`` placeholders (every store's arity check)."""
    if expected != len(params):
        raise ParamCountError(expected, len(params))


def _kept(ctx, evaluator: ColumnarEvaluator, sels, noted=True, counted=False):
    """Narrow each candidate selection of ``sels`` by the evaluator's
    compiled WHERE, one batch at a time: yields each batch's kept row
    ids (its kept count when ``counted``).  A WHERE charges one CPU row
    per candidate; a scan's batches (``noted``) are recorded on the
    context for the scan metrics."""
    narrow = evaluator.count if counted else evaluator.keep
    for sel in sels:
        if evaluator.filters:
            ctx.charge_cpu(rows=len(sel))
        kept = narrow(sel)
        if noted:
            ctx.note_scan_batch(len(sel), kept if counted else len(kept))
        yield kept


def _candidate_rows(ctx: ExecutionContext, info: TableInfo, access, where: Predicate):
    """Matching ``(row_id, old_row)`` pairs for UPDATE/DELETE, in the
    access path's order.  The mutation needs the old tuples (undo log
    and index maintenance), so they materialize here."""
    heap = info.heap
    tests = where.bind(ctx.params)
    evaluator = ColumnarEvaluator(
        heap.schema, info.name, ctx.params, heap.columns_view(), tests
    )
    batches = (batch.sel for batch in access.run(ctx, tests))
    return [
        (row_id, heap.fetch(row_id))
        for kept in _kept(ctx, evaluator, batches)
        for row_id in kept
    ]


def _checked_table(catalog: Catalog, stmt) -> TableInfo:
    """The statement's table, after resolving every column reference of
    a SELECT / UPDATE / DELETE against its schema.

    Validation happens here, at plan (= prepare) time, because the
    evaluators resolve a reference only when a row reaches it — an
    empty table, or an earlier conjunct that empties the selection,
    would let ``WHERE nope = 1`` through — and because every store
    plans through this module, so all of them reject the same text
    with the same ``UnknownColumnError``.
    """
    info = catalog.table(stmt.table)
    names = list(iter_column_refs(stmt.where))
    if isinstance(stmt, SelectStmt):
        for item in stmt.items:
            names.extend(iter_column_refs(item.expr))
        names.extend(stmt.group_by)
        names.extend(iter_column_refs(stmt.limit))
        if stmt.group_by:
            # Grouped rows are ordered by *output* name (aliases count).
            output = [_item_name(item, i) for i, item in enumerate(stmt.items)]
            for order in stmt.order_by:
                if order.column not in output:
                    raise PlanError(
                        f"ORDER BY column {order.column!r} is not in the output"
                    )
        else:
            names.extend(order.column for order in stmt.order_by)
    elif isinstance(stmt, UpdateStmt):
        for _target, expr in stmt.assignments:
            names.extend(iter_column_refs(expr))
    schema = info.heap.schema
    for name in names:
        schema.position(name, stmt.table)
    if isinstance(stmt, SelectStmt) and (stmt.group_by or stmt.is_aggregate):
        # Beside an aggregate, a plain item must be a grouping column.
        for item in stmt.items:
            expr = item.expr
            if not isinstance(expr, Aggregate) and not (
                isinstance(expr, ColumnRef) and expr.name in stmt.group_by
            ):
                raise PlanError(
                    "non-aggregate select items must be GROUP BY columns "
                    f"(offending item: {getattr(expr, 'name', expr)!r})"
                )
    return info


def _item_name(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Aggregate):
        if isinstance(expr.argument, Star):
            return f"{expr.func}(*)"
        if isinstance(expr.argument, ColumnRef):
            return f"{expr.func}({expr.argument.name})"
        return expr.func
    return f"col{position}"


def _limited(rows: list, count: Optional[int]) -> list:
    return rows if count is None else rows[:count]


def prefer_batch_scan(
    info: TableInfo, access, distinct_bindings: int, profile
) -> bool:
    """Cost gate for a demuxed batch: is ONE shared scan cheaper than
    one index probe per distinct binding?

    Scan cost: every heap page sequentially plus per-row CPU.  Probe
    cost: the index page plus the expected heap pages of one key's rows
    (random IO) plus their CPU.  Estimates use cold-cache disk costs —
    the gate needs the right order of magnitude, not exact latency.
    Clustered probes touch one contiguous run, so they always win.
    """
    if isinstance(access, SeqScanOp):
        return True
    index = getattr(access, "_index", None)
    if index is None:  # ClusteredEqOp: probes are near-free page runs
        return False
    heap = info.heap
    rows = heap.row_count
    pages = heap.page_count
    scan_cost = pages * profile.disk_sequential_s + rows * profile.cpu_per_row_s
    rows_per_key = rows / max(1, index.key_count)
    probe_pages = 1 + min(rows_per_key, float(pages))
    probe_cost = (
        probe_pages * profile.disk_seek_min_s
        + rows_per_key * profile.cpu_per_row_s
    )
    return distinct_bindings * probe_cost > scan_cost


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
#
# A plan is the single owner of its statement's value semantics.  What
# depends only on the statement is computed once, here, and exposed as
# public members; the engine's own ``execute`` and every other store
# (:mod:`repro.backends.sqlite`) read those members, so no store
# re-derives them from the AST — and none can disagree with the oracle.


#: Column types whose ``col = ?`` every store answers alike when the
#: binding has exactly this Python type (cross-type equality — an INT
#: column against ``'1'``, ``1.0`` or ``True`` — is store business).
_FOOTPRINT_TYPES = {ColumnType.INT: int, ColumnType.TEXT: str}


class _AccessPlan:
    """SELECT / UPDATE / DELETE: a checked table plus its access path
    and its footprint."""

    def __init__(self, catalog: Catalog, stmt, assigned: Sequence[str] = ()) -> None:
        self._catalog = catalog
        self._stmt = stmt
        self._info = _checked_table(catalog, stmt)
        schema = self._info.heap.schema
        #: The WHERE clause, compiled once (every execution binds it).
        self._where = Predicate(schema, stmt.table, stmt.where)
        self._access = _choose_access_path(
            self._info, catalog.indexes_on(stmt.table), self._where
        )
        #: ``(column, param index, python type)`` when the statement can
        #: only read — or, for a write, only change, and never move —
        #: rows whose ``column`` equals that parameter: its first
        #: compiled conjunct ``col = ?`` on an INT or TEXT column the
        #: statement does not assign.  None otherwise.  Reads and writes
        #: share this one rule, which is what lets a point write lapse
        #: only the cached reads of its own key.
        self.footprint: Optional[Tuple[str, int, type]] = None
        for test, position, operands in self._where.conjuncts:
            if test == "=" and type(operands[0]) is Param:
                column = schema.columns[position]
                kind = _FOOTPRINT_TYPES.get(column.type)
                if kind and column.name not in assigned:
                    self.footprint = (column.name, operands[0].index, kind)
                    break

    @property
    def access_path(self) -> str:
        """Name of the chosen access path (asserted by planner tests)."""
        return type(self._access).__name__


class SelectPlan(_AccessPlan):
    def __init__(self, catalog: Catalog, stmt: SelectStmt) -> None:
        super().__init__(catalog, stmt)
        #: Is the select list the bare ``*``?
        self.star = len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star)
        #: Result column names (aliases applied; the schema's for ``*``).
        self.output_names: Tuple[str, ...] = (
            self._info.heap.schema.names()
            if self.star
            else tuple(_item_name(item, i) for i, item in enumerate(stmt.items))
        )
        conjuncts = self._where.conjuncts
        #: The demux conjunct ``(row position, conjunct slot)``: the
        #: first ``col = expr`` whose operand reads a parameter — the
        #: rows a binding can reach all have ``col`` equal to its bound
        #: constant — or None (bindings then share the full scan and
        #: each applies the whole WHERE clause itself).
        self.bucket: Optional[Tuple[int, int]] = next(
            (
                (position, slot)
                for slot, (test, position, operands) in enumerate(conjuncts)
                if test == "=" and operands[0].param_count()
            ),
            None,
        )
        #: The aggregate select list, compiled once (None: no aggregate).
        self._fold = (
            AggregateFold(self._info, stmt.items, stmt.group_by)
            if stmt.group_by or stmt.is_aggregate
            else None
        )
        #: The key column of a bare ``SELECT cols|* … WHERE key = ?``
        #: (one conjunct, plain column items, nothing after the WHERE;
        #: else None): a store may answer N bindings of such a
        #: statement with one ``WHERE key IN (…)``.
        self.point_key: Optional[str] = None
        schema = self._info.heap.schema
        if (
            len(conjuncts) == 1
            and conjuncts[0][0] == "="
            and type(conjuncts[0][2][0]) is Param
            and not (stmt.group_by or stmt.distinct or stmt.order_by)
            and stmt.limit is None
            and (self.star or all(isinstance(i.expr, ColumnRef) for i in stmt.items))
        ):
            self.point_key = schema.names()[conjuncts[0][1]]
        #: What :meth:`probe` reads, fixed here: ``(hash index, key
        #: column position, output column positions)`` when the point
        #: lookup's access path is a hash-index probe, else None.
        self.point_probe: Optional[Tuple[HashIndex, int, Tuple[int, ...]]] = None
        if self.point_key is not None and isinstance(self._access, HashEqOp):
            self.point_probe = (
                self._access._index,
                conjuncts[0][1],
                tuple(range(len(schema)))
                if self.star
                else schema.project_positions(
                    [item.expr.name for item in stmt.items], stmt.table
                ),
            )

    def limit(self, params: Sequence) -> Optional[int]:
        """The row count LIMIT allows under ``params`` (None without a
        LIMIT).  Every store validates LIMIT through this one method, so
        a negative or non-integer limit is the same :class:`PlanError`
        everywhere."""
        if self._stmt.limit is None:
            return None
        info = self._info
        count = RowEvaluator(info.heap.schema, info.name, params).evaluate(
            self._stmt.limit, ()
        )
        if not isinstance(count, int) or count < 0:
            raise PlanError(f"LIMIT must be a non-negative integer, got {count!r}")
        return count

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        check_params(self._stmt.param_count, ctx.params)
        ctx.charge_cpu(fixed=True)
        info = self._info
        lock = info.heap.lock
        lock.acquire_read()
        try:
            if self.point_probe is not None:
                return self.probe(ctx)
            tests = self._where.bind(ctx.params)
            return self._finalize(
                ctx, tests, (batch.sel for batch in self._access.run(ctx, tests))
            )
        finally:
            lock.release_read()

    def probe(self, ctx: ExecutionContext) -> QueryResult:
        """The rows one binding of a hash-probed point lookup returns
        (the plan has a :attr:`point_probe`): touch the index page and
        the bucket's live rows' pages (one pool lock section while they
        hit), re-check ``key = value`` exactly
        as the compiled WHERE would (so cross-type and NULL bindings
        answer alike), gather the output tuples straight from the
        column lists.  The charges are the general path's, in its
        order; no evaluator, batch or :meth:`_finalize` is involved:
        binding the compiled WHERE costs more than this one-line
        re-check of a one-bucket selection.
        Runs under the heap's read lock, after the caller's parameter
        check and fixed CPU charge.  Asked by :meth:`execute` and by the
        batch demux's probe strategy, once per distinct binding."""
        index, key_position, positions = self.point_probe
        info = self._info
        value = ctx.params[0]
        probe = (index.io_name, index.page_for(value))
        sel = _fetch_selection(ctx, info, index.lookup(value), probe)
        if not sel:
            return QueryResult(columns=self.output_names)
        columns = info.heap.columns_view()
        key = columns[key_position]
        kept = [] if value is None else [rid for rid in sel if key[rid] == value]
        ctx.charge_cpu(rows=len(sel))
        ctx.note_scan_batch(len(sel), len(kept))
        if not self.star:
            ctx.charge_cpu(rows=len(kept))
        output = [columns[position] for position in positions]
        return QueryResult(
            columns=self.output_names,
            rows=[tuple([column[rid] for column in output]) for rid in kept],
        )

    def _finalize(
        self, ctx: ExecutionContext, tests, sels, noted: bool = True
    ) -> QueryResult:
        """Everything after the access path: filter, aggregate/group,
        order, project, limit.  ``sels`` are candidate selections, one
        per batch (each recorded on the context when ``noted``); the
        WHERE's conjuncts as bound for this execution (``tests``, from
        :meth:`Predicate.bind`) narrow each, and an aggregate select list folds
        each batch's survivors as they come (:class:`AggregateFold`).
        Other operators narrow/reorder the kept selection vector;
        tuples materialize only in :meth:`QueryResult.from_columns`.
        Runs under the heap's read lock.  Also the per-binding tail of
        the batch-demux operator (:mod:`repro.db.plan.demux`), which
        runs the access once and finalizes each binding's candidates
        as one un-noted batch on its own parameter context.
        """
        stmt = self._stmt
        info = self._info
        names = self.output_names
        columns = info.heap.columns_view()
        evaluator = ColumnarEvaluator(
            info.heap.schema, info.name, ctx.params, columns, tests
        )
        fold = self._fold
        if fold is not None:
            rows = fold.rows(
                ctx, evaluator, _kept(ctx, evaluator, sels, noted, fold.counted)
            )
            if stmt.group_by:
                rows = order_output_rows(names, rows, stmt.order_by)
        else:
            sel: List[int] = []
            for kept in _kept(ctx, evaluator, sels, noted):
                sel.extend(kept)
            sel = columnar_order(info, columns, sel, stmt.order_by)
            if not stmt.distinct:
                # LIMIT counts output rows; without DISTINCT those are
                # the selected rows, so only the survivors materialize.
                sel = _limited(sel, self.limit(ctx.params))
            value_columns = columnar_project(
                ctx, evaluator, columns, sel, stmt.items, self.star
            )
            result = QueryResult.from_columns(
                names, value_columns, distinct=stmt.distinct
            )
            if not stmt.distinct:
                return result
            rows = result.rows
        rows = _limited(rows, self.limit(ctx.params))
        return QueryResult(columns=names, rows=rows)


class InsertPlan:
    def __init__(self, catalog: Catalog, stmt: InsertStmt) -> None:
        self._catalog = catalog
        self._stmt = stmt
        self._info = catalog.table(stmt.table)
        schema = self._info.heap.schema
        if stmt.columns:
            self._positions = schema.project_positions(stmt.columns, stmt.table)
            if len(stmt.values) != len(stmt.columns):
                raise PlanError("INSERT column/value count mismatch")
        else:
            self._positions = tuple(range(len(schema)))
            if len(stmt.values) != len(schema):
                raise PlanError("INSERT value count does not match schema")

    def row(self, params: Sequence, txn) -> Row:
        """The full-width row this INSERT stores under ``params``:
        arity check → evaluate the values → refuse a clustered table
        inside a transaction → coerce to the schema.  Every store
        inserts what this returns, so value semantics, error classes
        and their precedence are the same everywhere."""
        check_params(self._stmt.param_count, params)
        info = self._info
        schema = info.heap.schema
        evaluate = RowEvaluator(schema, info.name, params).evaluate
        values: List = [None] * len(schema)
        for position, expr in zip(self._positions, self._stmt.values):
            values[position] = evaluate(expr, ())
        if txn is not None and info.heap.is_clustered:
            raise TransactionStateError(
                f"transactional INSERT into clustered table {info.name!r} is "
                "not supported: clustered inserts shift row ids, which the "
                "logical undo log cannot reverse"
            )
        return schema.coerce_row(values)

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        row = self.row(ctx.params, ctx.txn)
        ctx.charge_cpu(fixed=True)
        info = self._info
        with info.heap.lock.writing():
            row_id = info.heap.insert(row)
            self._catalog.on_insert(info.name, row_id, row)
            ctx.record_insert(info.name, row_id, row)
            page_no = info.heap.page_of(row_id)
            # Charge one sequential page write when a page fills up; the
            # buffer absorbs the rest (write-back cache).
            if row_id % info.heap.rows_per_page == 0:
                ctx.meter.charge("disk", ctx.profile.disk_sequential_s)
            ctx.buffer.install(info.name, page_no)
        return QueryResult(rowcount=1)


class UpdatePlan(_AccessPlan):
    def __init__(self, catalog: Catalog, stmt: UpdateStmt) -> None:
        super().__init__(
            catalog, stmt, assigned=[column for column, _ in stmt.assignments]
        )
        schema = self._info.heap.schema
        self._targets = [
            (schema.position(column, stmt.table), expr)
            for column, expr in stmt.assignments
        ]

    def assigner(self, params: Sequence) -> Callable[[Row], Row]:
        """``old row -> coerced new row`` under ``params``.  Every store
        computes an updated row through this one function (the sqlite
        store's read-modify-write included), so assignment evaluation
        and schema coercion are the same everywhere."""
        schema = self._info.heap.schema
        evaluate = RowEvaluator(schema, self._info.name, params).evaluate
        targets = self._targets

        def assign(row: Row) -> Row:
            new_row = list(row)
            for position, expr in targets:
                new_row[position] = evaluate(expr, row)
            return schema.coerce_row(new_row)

        return assign

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        check_params(self._stmt.param_count, ctx.params)
        ctx.charge_cpu(fixed=True)
        info = self._info
        assign = self.assigner(ctx.params)
        with info.heap.lock.writing():
            rows = _candidate_rows(ctx, info, self._access, self._where)
            for row_id, row in rows:
                coerced = assign(row)
                info.heap.update(row_id, coerced)
                self._catalog.on_update(info.name, row_id, row, coerced)
                ctx.record_update(info.name, row_id, row, coerced)
            ctx.charge_cpu(rows=len(rows))
        return QueryResult(rowcount=len(rows))


class DeletePlan(_AccessPlan):
    def execute(self, ctx: ExecutionContext) -> QueryResult:
        check_params(self._stmt.param_count, ctx.params)
        ctx.charge_cpu(fixed=True)
        info = self._info
        with info.heap.lock.writing():
            rows = _candidate_rows(ctx, info, self._access, self._where)
            for row_id, row in rows:
                info.heap.delete(row_id)
                self._catalog.on_delete(info.name, row_id, row)
                ctx.record_delete(info.name, row_id, row)
            ctx.charge_cpu(rows=len(rows))
        return QueryResult(rowcount=len(rows))


class CreateTablePlan:
    def __init__(self, catalog: Catalog, stmt: CreateTableStmt) -> None:
        self._catalog = catalog
        self._stmt = stmt
        #: The declared schema (unknown column types fail here, at
        #: prepare time, for every store).
        self.schema = schema_of_defs(stmt.columns)

    def apply(self) -> None:
        """Create the table in this plan's catalog.  A store that keeps
        its rows elsewhere calls this to keep its schema mirror in
        step, then runs its own DDL."""
        self._catalog.create_table(
            self._stmt.table, self.schema, if_not_exists=self._stmt.if_not_exists
        )

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        self.apply()
        return QueryResult(rowcount=0)


class CreateIndexPlan:
    def __init__(self, catalog: Catalog, stmt: CreateIndexStmt) -> None:
        self._catalog = catalog
        self._stmt = stmt

    def apply(self) -> None:
        """Create the index in this plan's catalog (see
        :meth:`CreateTablePlan.apply`)."""
        stmt = self._stmt
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

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        self.apply()
        return QueryResult(rowcount=0)
