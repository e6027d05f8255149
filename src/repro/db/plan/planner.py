"""The planner: statement AST -> executable plan.

Access-path selection, in priority order for an equality predicate on a
WHERE conjunct:

1. clustering column of the table  -> contiguous heap range
2. hash index on the column        -> bucket probe + heap fetch
3. ordered index (range conjuncts) -> index range + heap fetch
4. otherwise                       -> shared sequential scan

The non-matched conjuncts (and, harmlessly, the matched one) are
re-applied as a residual filter, so planning is purely a cost decision —
never a correctness one.  Property tests exploit that: every query must
return identical rows with indexes present or absent.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from ..catalog import Catalog
from ..catalog_types import TableInfo
from ..errors import ParamCountError, PlanError, TransactionStateError
from ..index import HashIndex, OrderedIndex
from ..sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    Expr,
    InsertStmt,
    Literal,
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
from .expr_eval import ColumnarEvaluator, RowEvaluator, and_conjuncts
from .operators import (
    ClusteredEqOp,
    HashEqOp,
    OrderedRangeOp,
    SeqScanOp,
    _fetch_selection,
    columnar_aggregate,
    columnar_aggregate_grouped,
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


def _constant_side(expr: Expr) -> bool:
    """True when ``expr`` contains no column references."""
    if isinstance(expr, (Literal, Param)):
        return True
    if isinstance(expr, BinaryOp):
        return _constant_side(expr.left) and _constant_side(expr.right)
    return False


def _equality_on_column(conjunct: Expr) -> Optional[Tuple[str, Expr]]:
    """Match ``col = const`` or ``const = col``; return (column, value)."""
    if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and _constant_side(right):
        return left.name, right
    if isinstance(right, ColumnRef) and _constant_side(left):
        return right.name, left
    return None


def _range_on_column(conjunct: Expr) -> Optional[Tuple[str, Optional[Expr], Optional[Expr], bool, bool]]:
    """Match range conjuncts; return (col, low, high, low_incl, high_incl)."""
    if isinstance(conjunct, Between) and not conjunct.negated:
        if isinstance(conjunct.operand, ColumnRef):
            if _constant_side(conjunct.low) and _constant_side(conjunct.high):
                return conjunct.operand.name, conjunct.low, conjunct.high, True, True
        return None
    if not isinstance(conjunct, BinaryOp) or conjunct.op not in ("<", "<=", ">", ">="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and _constant_side(right):
        column, value, op = left.name, right, conjunct.op
    elif isinstance(right, ColumnRef) and _constant_side(left):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        column, value, op = right.name, left, flipped[conjunct.op]
    else:
        return None
    if op == "<":
        return column, None, value, True, False
    if op == "<=":
        return column, None, value, True, True
    if op == ">":
        return column, value, None, False, True
    return column, value, None, True, True


def _choose_access_path(info: TableInfo, indexes, where: Optional[Expr]):
    conjuncts = and_conjuncts(where)
    for conjunct in conjuncts:
        match = _equality_on_column(conjunct)
        if match is None:
            continue
        column, value = match
        if info.heap.clustered_on == column:
            return ClusteredEqOp(info, value)
        for index in indexes:
            if index.column == column and isinstance(index, HashIndex):
                return HashEqOp(info, index, value)
        for index in indexes:
            if index.column == column and isinstance(index, OrderedIndex):
                return OrderedRangeOp(info, index, value, value)
    for conjunct in conjuncts:
        match = _range_on_column(conjunct)
        if match is None:
            continue
        column, low, high, low_inclusive, high_inclusive = match
        for index in indexes:
            if index.column == column and isinstance(index, OrderedIndex):
                return OrderedRangeOp(info, index, low, high, low_inclusive, high_inclusive)
    return SeqScanOp(info)


def check_params(expected: int, params: Sequence) -> None:
    """Raise :class:`ParamCountError` unless ``params`` binds exactly
    ``expected`` placeholders (every store's arity check)."""
    if expected != len(params):
        raise ParamCountError(expected, len(params))


def _candidates(ctx: ExecutionContext, info: TableInfo, access, where):
    """Run an access path batch-at-a-time and filter each batch.

    Returns ``(sel, columns, evaluator)``: the surviving selection
    vector (in the access path's order), the table's column lists, and
    the statement's columnar evaluator for downstream operators.  Each
    batch is recorded on the context for the scan metrics.
    """
    heap = info.heap
    columns = heap.columns_view()
    evaluator = ColumnarEvaluator(heap.schema, info.name, ctx.params, columns)
    sel: List[int] = []
    for batch in access.run(ctx):
        kept = evaluator.filter(where, batch.sel)
        if where is not None:
            ctx.charge_cpu(rows=len(batch.sel))
        ctx.note_scan_batch(len(batch.sel), len(kept))
        sel.extend(kept)
    return sel, columns, evaluator


def _candidate_rows(ctx: ExecutionContext, info: TableInfo, access, where):
    """Matching ``(row_id, old_row)`` pairs for UPDATE/DELETE.  The
    mutation needs the old tuples (undo log and index maintenance), so
    they materialize here."""
    sel, _columns, _evaluator = _candidates(ctx, info, access, where)
    return [(row_id, info.heap.fetch(row_id)) for row_id in sel]


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


def _contains_param(expr: Expr) -> bool:
    if isinstance(expr, Param):
        return True
    if isinstance(expr, BinaryOp):
        return _contains_param(expr.left) or _contains_param(expr.right)
    return False


def _keyed_conjuncts(where: Optional[Expr]):
    """The top-level AND-conjuncts ``col = expr`` whose constant side
    carries a parameter, in statement order, as ``(column, expr)``: the
    rows a binding can reach all have ``col`` equal to its value."""
    for conjunct in and_conjuncts(where):
        match = _equality_on_column(conjunct)
        if match is not None and _contains_param(match[1]):
            yield match


def _bucket_predicate(stmt: SelectStmt, info: TableInfo) -> Optional[Tuple[int, Expr]]:
    """The conjunct a demuxed batch buckets rows on: the first keyed
    conjunct.  Returns the column's row position and the value
    expression, or None when no such conjunct exists (bindings then
    share the full scan and each applies the whole WHERE clause
    itself)."""
    match = next(_keyed_conjuncts(stmt.where), None)
    if match is None:
        return None
    return info.heap.schema.position(match[0], info.name), match[1]


def _point_key(stmt: SelectStmt, star: bool) -> Optional[str]:
    """The key column when ``stmt`` is the bare point lookup
    ``SELECT cols|* FROM t WHERE key = ?`` (one parameter, plain column
    items, nothing after the WHERE), else None."""
    if (
        stmt.group_by
        or stmt.distinct
        or stmt.order_by
        or stmt.limit is not None
        or stmt.param_count != 1
    ):
        return None
    match = _equality_on_column(stmt.where)
    if match is None or not isinstance(match[1], Param):
        return None
    if not star and not all(isinstance(item.expr, ColumnRef) for item in stmt.items):
        return None
    return match[0]


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
        self._access = _choose_access_path(
            self._info, catalog.indexes_on(stmt.table), stmt.where
        )
        #: ``(column, param index, python type)`` when the statement can
        #: only read — or, for a write, only change, and never move —
        #: rows whose ``column`` equals that parameter: its first keyed
        #: conjunct ``col = ?`` on an INT or TEXT column the statement
        #: does not assign.  None otherwise.  Reads and writes share
        #: this one rule, which is what lets a point write lapse only
        #: the cached reads of its own key.
        self.footprint: Optional[Tuple[str, int, type]] = None
        schema = self._info.heap.schema
        for column, value in _keyed_conjuncts(stmt.where):
            kind = _FOOTPRINT_TYPES.get(schema.column(column).type)
            if isinstance(value, Param) and kind and column not in assigned:
                self.footprint = (column, value.index, kind)
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
        #: The demux conjunct ``(row position, value expr)``, or None.
        self.bucket = _bucket_predicate(stmt, self._info)
        #: The key column of a bare ``SELECT cols|* … WHERE key = ?``
        #: (else None): a store may answer N bindings of such a
        #: statement with one ``WHERE key IN (…)``.
        self.point_key = _point_key(stmt, self.star)
        #: What :meth:`probe` reads, fixed here: ``(hash index, key
        #: column position, output column positions)`` when the point
        #: lookup's access path is a hash-index probe, else None.
        self.point_probe: Optional[Tuple[HashIndex, int, Tuple[int, ...]]] = None
        if self.point_key is not None and isinstance(self._access, HashEqOp):
            schema = self._info.heap.schema
            self.point_probe = (
                self._access._index,
                schema.position(self.point_key, stmt.table),
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
            sel, columns, evaluator = _candidates(
                ctx, info, self._access, self._stmt.where
            )
            return self._finalize(ctx, sel, columns, evaluator)
        finally:
            lock.release_read()

    def probe(self, ctx: ExecutionContext) -> QueryResult:
        """The rows one binding of a hash-probed point lookup returns
        (the plan has a :attr:`point_probe`): touch the index page,
        fetch the bucket's live rows, re-check ``key = value`` exactly
        as the WHERE filter would (so cross-type and NULL bindings
        answer alike), gather the output tuples straight from the
        column lists.  The charges are the general path's, in its
        order; no evaluator, batch or :meth:`_finalize` is involved.
        Runs under the heap's read lock, after the caller's parameter
        check and fixed CPU charge.  Asked by :meth:`execute` and by the
        batch demux's probe strategy, once per distinct binding."""
        index, key_position, positions = self.point_probe
        info = self._info
        value = ctx.params[0]
        ctx.touch_page(index.io_name, index.page_for(value))
        sel = _fetch_selection(ctx, info, index.lookup(value))
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
        self,
        ctx: ExecutionContext,
        sel,
        columns,
        evaluator: Optional[ColumnarEvaluator] = None,
        apply_where: bool = False,
    ) -> QueryResult:
        """Everything after the access path: aggregate/group, order,
        project, limit.  Operators narrow/reorder the selection vector;
        tuples materialize only in :meth:`QueryResult.from_columns`.
        Runs under the heap's read lock.  Also the per-binding tail of
        the batch-demux operator (:mod:`repro.db.plan.demux`), which
        runs the access once and finalizes each binding set on its own
        parameter context; it hands bucket candidates, not filtered
        rows, so ``apply_where=True`` re-runs the full WHERE over
        ``sel``.
        """
        stmt = self._stmt
        info = self._info
        names = self.output_names
        if evaluator is None:
            evaluator = ColumnarEvaluator(
                info.heap.schema, info.name, ctx.params, columns
            )
        if apply_where and stmt.where is not None:
            ctx.charge_cpu(rows=len(sel))
            sel = evaluator.filter(stmt.where, sel)
        if stmt.group_by:
            rows = columnar_aggregate_grouped(
                ctx, info, evaluator, columns, sel, stmt.items, stmt.group_by
            )
            rows = order_output_rows(names, rows, stmt.order_by)
        elif stmt.is_aggregate:
            rows = columnar_aggregate(ctx, evaluator, sel, stmt.items)
        else:
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
            rows = _candidate_rows(ctx, info, self._access, self._stmt.where)
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
            rows = _candidate_rows(ctx, info, self._access, self._stmt.where)
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
