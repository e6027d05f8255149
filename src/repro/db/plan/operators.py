"""Physical operators.

Access paths (sequential scan, hash-index equality, clustered-range,
ordered-index range) produce :class:`~repro.db.scans.ColumnBatch`es —
the table's column lists plus a selection vector of live row ids; the
relational operators (order, project, aggregate) narrow, reorder or
gather over selection vectors, and row tuples appear only at the
:class:`QueryResult` boundary.

Cost charging:

* ``SeqScanOp`` touches every heap page, through the shared-scan manager
  so concurrent identical scans pay once.
* Index paths touch the probed index page(s) plus the distinct heap
  pages of matching rows.
* Every operator charges per-row CPU in one batch.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..catalog_types import TableInfo
from ..errors import PlanError
from ..index import HashIndex, OrderedIndex
from ..sql.ast_nodes import (
    Aggregate,
    ColumnRef,
    Expr,
    OrderItem,
    SelectItem,
    Star,
)
from ..scans import ColumnBatch, iter_column_batches
from ..storage import OrderKey
from .context import ExecutionContext
from .expr_eval import ColumnarEvaluator, RowEvaluator

#: A selection vector: row ids into the table's column lists — a
#: ``range`` for a batch with no tombstone, otherwise a list.
Selection = Sequence[int]


# ----------------------------------------------------------------------
# access paths
# ----------------------------------------------------------------------


class SeqScanOp:
    """Full table scan: all pages, shared with concurrent scanners."""

    def __init__(self, info: TableInfo) -> None:
        self._info = info

    def run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        """Column batches over the whole table."""
        heap = self._info.heap
        name = self._info.name

        def do_io() -> None:
            ctx.touch_pages(name, range(heap.page_count))

        ctx.scans.run(name, do_io)
        return iter_column_batches(heap)


class HashEqOp:
    """Hash-index equality probe followed by heap fetches."""

    def __init__(self, info: TableInfo, index: HashIndex, value_expr: Expr) -> None:
        self._info = info
        self._index = index
        self._value_expr = value_expr

    def run(self, ctx: ExecutionContext) -> List[ColumnBatch]:
        evaluator = RowEvaluator(self._info.heap.schema, self._info.name, ctx.params)
        value = evaluator.evaluate(self._value_expr, ())
        ctx.touch_page(self._index.io_name, self._index.page_for(value))
        sel = _fetch_selection(ctx, self._info, self._index.lookup(value))
        return _one_batch(self._info, sel)


class ClusteredEqOp:
    """Equality on the clustering column: one contiguous page run."""

    def __init__(self, info: TableInfo, value_expr: Expr) -> None:
        self._info = info
        self._value_expr = value_expr

    def run(self, ctx: ExecutionContext) -> List[ColumnBatch]:
        heap = self._info.heap
        evaluator = RowEvaluator(heap.schema, self._info.name, ctx.params)
        value = evaluator.evaluate(self._value_expr, ())
        low, high = heap.cluster_range(value)
        return _one_batch(
            self._info, _fetch_selection(ctx, self._info, range(low, high))
        )


class OrderedRangeOp:
    """Ordered-index range scan followed by heap fetches."""

    def __init__(
        self,
        info: TableInfo,
        index: OrderedIndex,
        low: Optional[Expr],
        high: Optional[Expr],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> None:
        self._info = info
        self._index = index
        self._low = low
        self._high = high
        self._low_inclusive = low_inclusive
        self._high_inclusive = high_inclusive

    def run(self, ctx: ExecutionContext) -> List[ColumnBatch]:
        evaluator = RowEvaluator(self._info.heap.schema, self._info.name, ctx.params)
        low = evaluator.evaluate(self._low, ()) if self._low is not None else None
        high = evaluator.evaluate(self._high, ()) if self._high is not None else None
        probe = low if low is not None else high
        if probe is not None:
            ctx.touch_page(self._index.io_name, self._index.page_for(probe))
        row_ids = self._index.range(
            low, high, self._low_inclusive, self._high_inclusive
        )
        return _one_batch(self._info, _fetch_selection(ctx, self._info, row_ids))


def _fetch_selection(
    ctx: ExecutionContext, info: TableInfo, row_ids
) -> List[int]:
    """Keep the live row ids and touch their distinct heap pages in
    first-encounter order; no tuples are built."""
    heap = info.heap
    valid = heap.validity_view()
    sel: List[int] = []
    pages_touched = set()
    for row_id in row_ids:
        if not valid[row_id]:
            continue
        page_no = heap.page_of(row_id)
        if page_no not in pages_touched:
            pages_touched.add(page_no)
            ctx.touch_page(info.name, page_no)
        sel.append(row_id)
    ctx.charge_cpu(rows=len(sel))
    return sel


def _one_batch(info: TableInfo, sel: Selection) -> List[ColumnBatch]:
    if not sel:
        return []
    return [ColumnBatch(info.heap.columns_view(), sel)]


# ----------------------------------------------------------------------
# relational operators — selection vectors in, selection vectors (or
# per-column value lists) out; row tuples appear only at the QueryResult
# boundary
# ----------------------------------------------------------------------


def order_output_rows(
    columns: Tuple[str, ...],
    rows: List[Tuple[Any, ...]],
    order_by: Sequence[OrderItem],
) -> List[Tuple[Any, ...]]:
    """ORDER BY over *output* rows (grouped results), by column name."""
    if not order_by:
        return rows
    ordered = list(rows)
    for item in reversed(order_by):
        try:
            position = columns.index(item.column)
        except ValueError:
            raise PlanError(
                f"ORDER BY column {item.column!r} is not in the output"
            ) from None
        ordered.sort(
            key=lambda row: OrderKey(row[position]), reverse=item.descending
        )
    return ordered


def columnar_order(
    info: TableInfo,
    columns: Tuple[List[Any], ...],
    sel: Selection,
    order_by: Sequence[OrderItem],
) -> Selection:
    """ORDER BY as a sort of the selection vector (no row tuples)."""
    if not order_by:
        return sel
    schema = info.heap.schema
    positions = [
        (schema.position(item.column, info.name), item.descending)
        for item in order_by
    ]
    ordered = list(sel)
    # Stable multi-key sort: apply keys right-to-left.
    for position, descending in reversed(positions):
        column = columns[position]
        ordered.sort(key=lambda rid: OrderKey(column[rid]), reverse=descending)
    return ordered


def columnar_project(
    ctx: ExecutionContext,
    evaluator: ColumnarEvaluator,
    columns: Tuple[List[Any], ...],
    sel: Selection,
    items: Sequence[SelectItem],
    star: bool,
) -> List[List[Any]]:
    """Projection as column slicing: one value list per output column
    (every table column for ``star``) — still columnar; the caller
    materializes tuples at the result boundary."""
    if star:
        return [[column[rid] for rid in sel] for column in columns]
    value_columns = [evaluator.values(item.expr, sel) for item in items]
    ctx.charge_cpu(rows=len(sel))
    return value_columns


def columnar_aggregate(
    ctx: ExecutionContext,
    evaluator: ColumnarEvaluator,
    sel: Selection,
    items: Sequence[SelectItem],
) -> List[Tuple[Any, ...]]:
    """All-aggregate select list over a selection vector: one row."""
    values: List[Any] = []
    for item in items:
        expr = item.expr
        if not isinstance(expr, Aggregate):
            raise PlanError(
                "mixing aggregates and plain columns requires GROUP BY, "
                "which this subset does not support"
            )
        values.append(_run_aggregate(evaluator, expr, sel))
    ctx.charge_cpu(rows=len(sel) * max(1, len(items)))
    return [tuple(values)]


def columnar_aggregate_grouped(
    ctx: ExecutionContext,
    info: TableInfo,
    evaluator: ColumnarEvaluator,
    columns: Tuple[List[Any], ...],
    sel: Selection,
    items: Sequence[SelectItem],
    group_by: Sequence[str],
) -> List[Tuple[Any, ...]]:
    """GROUP BY over a selection vector: :func:`partition` on the
    grouping columns; each group keeps its own selection vector, and
    groups come out in first-occurrence order."""
    schema = info.heap.schema
    key_columns = [
        columns[schema.position(name, info.name)] for name in group_by
    ]
    for item in items:
        expr = item.expr
        if isinstance(expr, Aggregate):
            continue
        if isinstance(expr, ColumnRef) and expr.name in group_by:
            continue
        raise PlanError(
            "non-aggregate select items must be GROUP BY columns "
            f"(offending item: {getattr(expr, 'name', expr)!r})"
        )
    single = len(key_columns) == 1
    output: List[Tuple[Any, ...]] = []
    for key, member_sel in partition(key_columns, sel).items():
        if single:
            key = (key,)
        values: List[Any] = []
        for item in items:
            expr = item.expr
            if isinstance(expr, Aggregate):
                values.append(_run_aggregate(evaluator, expr, member_sel))
            else:
                assert isinstance(expr, ColumnRef)
                values.append(key[group_by.index(expr.name)])
        output.append(tuple(values))
    ctx.charge_cpu(rows=len(sel) * max(1, len(items)))
    return output


def partition(
    key_columns: Sequence[List[Any]], sel: Selection
) -> Dict[Any, List[int]]:
    """Hash-partition a selection vector on one or more columns: each
    distinct key — the value itself for one column, a tuple for several
    — maps to its member row ids, in selection order, and the keys come
    in first-occurrence order.  Keys are gathered by C-level ``map``
    over the columns; each row costs one ``get`` and one ``append``.
    GROUP BY and the batch demux's buckets both partition through here.
    """
    if len(key_columns) == 1:
        keys = map(key_columns[0].__getitem__, sel)
    else:
        keys = zip(*[map(column.__getitem__, sel) for column in key_columns])
    groups: Dict[Any, List[int]] = {}
    get = groups.get
    for key, rid in zip(keys, sel):
        members = get(key)
        if members is None:
            groups[key] = [rid]
        else:
            members.append(rid)
    return groups


def _run_aggregate(
    evaluator: ColumnarEvaluator, expr: Aggregate, sel: Selection
) -> Any:
    if isinstance(expr.argument, Star):
        return len(sel)
    observed = [
        value
        for value in evaluator.values(expr.argument, sel)
        if value is not None
    ]
    if expr.distinct:
        observed = list(dict.fromkeys(observed))
    if expr.func == "count":
        return len(observed)
    if not observed:
        return None
    if expr.func == "sum":
        return sum(observed)
    if expr.func == "min":
        return min(observed)
    if expr.func == "max":
        return max(observed)
    if expr.func == "avg":
        return sum(observed) / len(observed)
    raise PlanError(f"unknown aggregate: {expr.func!r}")
