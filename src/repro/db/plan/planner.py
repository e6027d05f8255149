"""The planner: statement AST -> executable plan.

Access-path selection reads the WHERE clause's compiled conjuncts
(:class:`~repro.db.plan.expr_eval.Predicate`, the one owner of a
conjunct's shape): the first ``col = expr`` conjunct on a hash-indexed
column is a bucket probe + heap fetch (:class:`HashEqOp`, which holds
the conjunct's slot and reads its constant from the execution's
binding); otherwise the table is a shared sequential scan
(:class:`SeqScanOp`).

The non-matched conjuncts (and, harmlessly, the matched one) are
re-applied as a residual filter, so planning is purely a cost decision —
never a correctness one.  Property tests exploit that: every query must
return identical rows with indexes present or absent.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..catalog import Catalog
from ..catalog_types import TableInfo
from ..errors import ParamCountError, PlanError, TypeMismatchError
from ..index import HashIndex
from ..sql.ast_nodes import (
    Aggregate,
    ColumnRef,
    DeleteStmt,
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
from ..types import Column, ColumnType, Row
from .context import ExecutionContext
from .expr_eval import ColumnarEvaluator, Predicate, RowEvaluator
from .operators import (
    AggregateFold,
    HashEqOp,
    SeqScanOp,
    bucket_pages,
    columnar_project,
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
        raise PlanError(f"cannot plan statement: {statement!r}")


# ----------------------------------------------------------------------
# helpers shared by SELECT/UPDATE/DELETE
# ----------------------------------------------------------------------


def _choose_access_path(info: TableInfo, indexes, where: Predicate):
    names = info.heap.schema.names()
    # The first index on a column (``reversed``: the first one written
    # into the dict last).
    hashed = {index.column: index for index in reversed(indexes)}
    for slot, (test, position, _operands) in enumerate(where.conjuncts):
        if test == "=" and names[position] in hashed:
            return HashEqOp(info, hashed[names[position]], slot)
    return SeqScanOp(info)


#: The types of the values sqlite binds as themselves (``bool`` is an
#: ``int``): the one rule for a parameter value on every store.
_BINDABLE = frozenset((type(None), bool, int, float, str, bytes))


def check_params(expected: int, params: Sequence) -> None:
    """Every store's binding check, run before a statement reads a
    value: raise :class:`ParamCountError` unless ``params`` binds
    exactly ``expected`` placeholders, and :class:`TypeMismatchError`
    for a value that is not NULL, an int, a float, a str or bytes (a
    subclass of one binds as it) — what sqlite cannot bind, no store
    compares."""
    if expected != len(params):
        raise ParamCountError(expected, len(params))
    for value in params:
        if type(value) not in _BINDABLE and not isinstance(
            value, (int, float, str, bytes)
        ):
            raise TypeMismatchError(f"cannot bind parameter value {value!r}")


def _kept(
    ctx, evaluator: ColumnarEvaluator, batches, noted=True, counted=False, encoded=None
):
    """Narrow each candidate :class:`~repro.db.scans.ColumnBatch` of
    ``batches`` by the evaluator's compiled WHERE, one batch at a time:
    yields each batch's kept row ids (its kept count when ``counted``).
    With no WHERE, a scan batch with a dictionary of column ``encoded``
    yields that dictionary instead (:attr:`AggregateFold.encoded`).  A
    WHERE charges one CPU row per candidate; a scan's batches
    (``noted``) are recorded on the context for the scan metrics."""
    narrow = evaluator.count if counted else evaluator.keep
    for batch in batches:
        sel = batch.sel
        if evaluator.filters:
            ctx.charge_cpu(rows=len(sel))
        kept = narrow(sel, batch.number)
        if noted:
            ctx.note_scan_batch(len(sel), kept if counted else len(kept))
        if encoded is not None and batch.number is not None and not evaluator.filters:
            kept = evaluator.dictionary(batch.number, encoded) or kept
        yield kept


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


def prefer_batch_scan(
    info: TableInfo, access, distinct_bindings: int, profile
) -> bool:
    """Cost gate for a demuxed batch: is ONE shared scan cheaper than
    one index probe per distinct binding?

    Scan cost: every heap page sequentially plus per-row CPU.  Probe
    cost: the index page plus the expected heap pages of one key's rows
    (random IO) plus their CPU.  Estimates use cold-cache disk costs —
    the gate needs the right order of magnitude, not exact latency.
    """
    if isinstance(access, SeqScanOp):
        return True
    index = access._index
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


def _point_reader(
    info: TableInfo,
    index: HashIndex,
    key_position: int,
    slot: int,
    positions: Sequence[int],
    projected: bool,
):
    """The one function a hash-probed point plan runs per binding,
    built once at prepare over the plan's constants: the index, the key
    column's position, the parameter slot and the output positions.

    ``read(params, buffer)`` probes the index once
    (:meth:`HashIndex.probe`), touches the index page and the bucket's
    rows' heap pages (one :meth:`BufferPool.access_keys`; a one-row
    bucket names its one heap page itself), re-checks
    ``key = value`` exactly as the compiled WHERE would — so cross-type
    and NULL bindings answer alike — and gathers the output tuples
    straight from the column lists.  A bucket holds live rows only (see
    :meth:`HashIndex.probe`), so no row is checked for a tombstone.
    It returns ``(row ids, rows, charged, scanned)``: the kept rows'
    ids and tuples, the rows the cost model charges CPU for, and the
    bucket rows the re-check scanned.  The charges are the general
    access path's and filter's, in their order: each bucket row once
    for the fetch and once for the re-check, and each kept row once
    more for a ``projected`` select list (not ``*``); an empty bucket
    charges nothing and scans nothing.  The caller holds the heap's
    lock, checked the binding (:func:`check_params`), and charges the
    fixed cost, the rows and the scan batch.
    """
    probe = index.probe
    name = info.name
    rows_per_page = info.heap.rows_per_page
    columns = info.heap.columns_view()
    key = columns[key_position]
    output = [columns[position] for position in positions]

    def read(params: Sequence, buffer) -> Tuple[List[int], List[Row], int, int]:
        value = params[slot]
        index_page, sel = probe(value)
        if len(sel) == 1:
            buffer.access_keys((index_page, (name, sel[0] // rows_per_page)))
        else:
            buffer.access_keys(bucket_pages(index_page, info, sel))
            if not sel:
                return [], [], 0, 0
        kept = [] if value is None else [rid for rid in sel if key[rid] == value]
        scanned = len(sel)
        charged = 2 * scanned + len(kept) if projected else 2 * scanned
        rows = [tuple([column[rid] for column in output]) for rid in kept]
        return kept, rows, charged, scanned

    return read


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
        #: ``(key column position, param index)`` when the WHERE is
        #: exactly one ``col = ?``, else None.
        self._keyed: Optional[Tuple[int, int]] = None
        conjuncts = self._where.conjuncts
        only = conjuncts[0] if len(conjuncts) == 1 else None
        if only and only[0] == "=" and type(only[2][0]) is Param:
            self._keyed = (only[1], only[2][0].index)
        #: ``(hash index, *_keyed)`` when the access path probes a hash
        #: index on that ``col`` (a point lookup, update or delete).
        self._point: Optional[Tuple[HashIndex, int, int]] = (
            (self._access._index, *self._keyed)
            if self._keyed and isinstance(self._access, HashEqOp)
            else None
        )

    @property
    def access_path(self) -> str:
        """Name of the chosen access path (asserted by planner tests)."""
        return type(self._access).__name__


class _WritePlan(_AccessPlan):
    """UPDATE / DELETE: an access plan that changes the rows it finds."""

    def __init__(self, catalog: Catalog, stmt, assigned: Sequence[str] = ()) -> None:
        super().__init__(catalog, stmt, assigned)
        #: The point read of whole rows (:func:`_point_reader`) a keyed
        #: write finds its rows with, when there is a point.
        self._point_rows = None
        if self._point is not None:
            schema = self._info.heap.schema
            self._point_rows = _point_reader(
                self._info, *self._point, range(len(schema)), False
            )

    def _matched_rows(self, ctx: ExecutionContext) -> List[Tuple[int, Row]]:
        """Matching ``(row_id, old_row)`` pairs for UPDATE/DELETE, in the
        access path's order.  The mutation needs the old tuples (undo log
        and index maintenance), so they materialize here."""
        if self._point_rows is not None:
            row_ids, rows = ctx.read_point(self._point_rows)
            return list(zip(row_ids, rows))
        heap = self._info.heap
        tests = self._where.bind(ctx.params)
        evaluator = ColumnarEvaluator(
            heap.schema, self._info.name, ctx.params, heap.columns_view(), tests
        )
        return [
            (row_id, heap.fetch(row_id))
            for kept in _kept(ctx, evaluator, self._access.run(ctx, tests))
            for row_id in kept
        ]


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
        #: (one conjunct, plain column items, no GROUP BY; else None): a
        #: store may answer N bindings of such a statement with one
        #: ``WHERE key IN (…)``.
        self.point_key: Optional[str] = None
        schema = self._info.heap.schema
        if (
            self._keyed is not None
            and not stmt.group_by
            and (self.star or all(isinstance(i.expr, ColumnRef) for i in stmt.items))
        ):
            self.point_key = schema.names()[self._keyed[0]]
        #: The point read (:func:`_point_reader`) of a bare point lookup
        #: whose access path is a hash-index probe, else None.  The
        #: memory store's execute runs it for the statement, and the
        #: batch demux's probe strategy once per distinct binding.
        self.point_probe = None
        if self.point_key is not None and self._point is not None:
            positions = range(len(schema))
            if not self.star:
                names = [item.expr.name for item in stmt.items]
                positions = schema.project_positions(names, stmt.table)
            self.point_probe = _point_reader(
                self._info, *self._point, positions, not self.star
            )

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        check_params(self._stmt.param_count, ctx.params)
        ctx.charge_cpu(fixed=True)
        with self._info.heap.lock.reading():
            tests = self._where.bind(ctx.params)
            return self._finalize(ctx, tests, self._access.run(ctx, tests))

    def _finalize(
        self, ctx: ExecutionContext, tests, batches, noted: bool = True
    ) -> QueryResult:
        """Everything after the access path: filter, then aggregate/group
        or project.  ``batches`` are candidate
        :class:`~repro.db.scans.ColumnBatch`es (each recorded on the
        context when ``noted``); the WHERE's conjuncts as bound for
        this execution (``tests``, from :meth:`Predicate.bind`) narrow
        each — a scan's batch from its column dictionary
        (:class:`ColumnarEvaluator`) — and an aggregate select list
        folds each batch's survivors as they come
        (:class:`AggregateFold`).  Otherwise the kept selection vectors
        are projected column by column; tuples materialize only in
        :meth:`QueryResult.from_columns`.
        Runs under the heap's read lock.  Also the per-binding tail of
        the batch-demux operator (:mod:`repro.db.plan.demux`), which
        runs the access once and finalizes each binding's candidates
        as one un-noted batch, numbered as no scan batch, on its own
        parameter context.
        """
        info = self._info
        names = self.output_names
        heap = info.heap
        columns = heap.columns_view()
        evaluator = ColumnarEvaluator(
            heap.schema, info.name, ctx.params, columns, tests, heap.dictionary
        )
        fold = self._fold
        if fold is not None:
            kept = _kept(ctx, evaluator, batches, noted, fold.counted, fold.encoded)
            rows = fold.rows(ctx, evaluator, kept)
            return QueryResult(columns=names, rows=rows)
        sel: List[int] = []
        for kept in _kept(ctx, evaluator, batches, noted):
            sel.extend(kept)
        value_columns = columnar_project(
            ctx, evaluator, columns, sel, self._stmt.items, self.star
        )
        return QueryResult.from_columns(names, value_columns)


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

    def row(self, params: Sequence) -> Row:
        """The full-width row this INSERT stores under ``params``:
        arity check → evaluate the values → coerce to the schema.  Every
        store inserts what this returns, so value semantics, error
        classes and their precedence are the same everywhere."""
        check_params(self._stmt.param_count, params)
        info = self._info
        schema = info.heap.schema
        evaluate = RowEvaluator(schema, info.name, params).evaluate
        values: List = [None] * len(schema)
        for position, expr in zip(self._positions, self._stmt.values):
            values[position] = evaluate(expr, ())
        return schema.coerce_row(values)

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        row = self.row(ctx.params)
        ctx.charge_cpu(fixed=True)
        info = self._info
        with info.heap.lock.writing():
            self._catalog.check_unique(info, row)
            row_id = self._catalog.insert(info, row)
            ctx.record_insert(info.name, row_id, row)
            page_no = info.heap.page_of(row_id)
            # Charge one sequential page write when a page fills up; the
            # buffer absorbs the rest (write-back cache).
            if row_id % info.heap.rows_per_page == 0:
                ctx.meter.charge("disk", ctx.profile.disk_sequential_s)
            ctx.buffer.install(info.name, page_no)
        return QueryResult(rowcount=1)


class UpdatePlan(_WritePlan):
    def __init__(self, catalog: Catalog, stmt: UpdateStmt) -> None:
        super().__init__(
            catalog, stmt, assigned=[column for column, _ in stmt.assignments]
        )
        schema = self._info.heap.schema
        #: The SET list compiled once: ``(position, param index, expr)``
        #: per assignment.  A ``?`` reads its slot, a literal is its
        #: value, anything else is evaluated against the old row.
        self._targets: List[Tuple[int, Optional[int], object]] = [
            (
                schema.position(column, stmt.table),
                expr.index if type(expr) is Param else None,
                expr,
            )
            for column, expr in stmt.assignments
        ]
        #: Every assigned column once, in schema order: what is coerced.
        self._assigned: Tuple[Tuple[int, Column], ...] = tuple(
            (position, schema.columns[position])
            for position in sorted({position for position, _, _ in self._targets})
        )
        #: Does an assignment need the row evaluator?
        self._evaluated = any(
            slot is None and type(expr) is not Literal
            for _, slot, expr in self._targets
        )
        #: ``(param index, column)`` per assignment when every assignment
        #: is a bare ``?`` — the new values are the bindings, the same
        #: for every matched row — else None.
        self.slots: Optional[Tuple[Tuple[int, Column], ...]] = (
            tuple((slot, schema.columns[pos]) for pos, slot, _ in self._targets)
            if all(slot is not None for _, slot, _ in self._targets)
            else None
        )

    def coerced_params(self, params: Sequence) -> List:
        """``params`` with each assigned ``?`` coerced to its column
        (the plan has :attr:`slots`): the binding a store gives the
        statement to run it natively, as one UPDATE.  Raises what the
        :meth:`assigner` would raise on the first matched row."""
        values = list(params)
        for slot, column in self.slots:
            values[slot] = column.coerce(values[slot])
        return values

    def assigner(self, params: Sequence) -> Callable[[Row], Row]:
        """``old row -> coerced new row`` under ``params``.  Every store
        computes an updated row through this one function (the sqlite
        store's read-modify-write included): each assignment is read
        (a slot, a literal, or evaluated against the old row), then each
        assigned column is coerced, once.  Nothing is coerced until a
        row reaches it, so an UPDATE that matches no row never raises
        on its binding."""
        targets = self._targets
        assigned = self._assigned
        evaluate = (
            RowEvaluator(self._info.heap.schema, self._info.name, params).evaluate
            if self._evaluated
            else None
        )

        def assign(row: Row) -> Row:
            new_row = list(row)
            for position, slot, expr in targets:
                if slot is not None:
                    new_row[position] = params[slot]
                elif type(expr) is Literal:
                    new_row[position] = expr.value
                else:
                    new_row[position] = evaluate(expr, row)
            for position, column in assigned:
                new_row[position] = column.coerce(new_row[position])
            return tuple(new_row)

        return assign

    def execute(self, ctx: ExecutionContext) -> QueryResult:
        check_params(self._stmt.param_count, ctx.params)
        ctx.charge_cpu(fixed=True)
        info = self._info
        heap = info.heap
        assign = self.assigner(ctx.params)
        with heap.lock.writing():
            rows = self._matched_rows(ctx)
            for row_id, row in rows:
                new_row = assign(row)
                self._catalog.check_unique(info, new_row, row)
                heap.update(row_id, new_row)
                self._catalog.on_update(info, row_id, row, new_row)
                ctx.record_update(info.name, row_id, row, new_row)
            ctx.charge_cpu(rows=len(rows))
        return QueryResult(rowcount=len(rows))


class DeletePlan(_WritePlan):
    def execute(self, ctx: ExecutionContext) -> QueryResult:
        check_params(self._stmt.param_count, ctx.params)
        ctx.charge_cpu(fixed=True)
        info = self._info
        with info.heap.lock.writing():
            rows = self._matched_rows(ctx)
            for row_id, row in rows:
                info.heap.delete(row_id)
                self._catalog.on_delete(info, row_id, row)
                ctx.record_delete(info.name, row_id, row)
            ctx.charge_cpu(rows=len(rows))
        return QueryResult(rowcount=len(rows))
