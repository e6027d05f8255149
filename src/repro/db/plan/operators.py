"""Physical operators.

The two access paths (sequential scan, hash-index equality) produce
:class:`~repro.db.scans.ColumnBatch`es — the table's column lists plus a
selection vector of live row ids; projection gathers over selection
vectors, and row tuples appear only at the :class:`QueryResult`
boundary.  An aggregate select list is compiled at prepare into an
:class:`AggregateFold`, which folds each batch's kept rows (or just
their count) as the scan delivers them: scan, filter and aggregate run
in one pass per batch, with no selection vector kept across batches.

Cost charging:

* ``SeqScanOp`` touches every heap page, through the shared-scan manager
  so concurrent identical scans pay once.
* The index path touches the probed index page plus the distinct heap
  pages of matching rows.
* Every operator charges per-row CPU in one batch.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..buffer import PageKey
from ..catalog_types import TableInfo
from ..index import HashIndex
from ..sql.ast_nodes import Aggregate, ColumnRef, SelectItem, Star
from ..scans import ColumnBatch, iter_column_batches
from .context import ExecutionContext
from .expr_eval import ColumnarEvaluator, gather

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

    def run(self, ctx: ExecutionContext, tests: Sequence) -> Iterator[ColumnBatch]:
        """Column batches over the whole table (``tests`` unread)."""
        heap = self._info.heap
        name = self._info.name

        def do_io() -> None:
            ctx.buffer.access_many(name, range(heap.page_count))

        ctx.scans.run(name, do_io)
        return iter_column_batches(heap)


class HashEqOp:
    """Hash-index equality probe followed by heap fetches.

    Serves one compiled WHERE conjunct: holds its slot in the plan's
    ``Predicate`` and, in :meth:`run`, reads that conjunct's constant
    from the execution's bound ``tests``
    (:meth:`~repro.db.plan.expr_eval.Predicate.bind`)."""

    def __init__(self, info: TableInfo, index: HashIndex, slot: int) -> None:
        self._info = info
        self._index = index
        self._slot = slot

    def run(self, ctx: ExecutionContext, tests: Sequence) -> List[ColumnBatch]:
        """One batch of the bucket's rows (none for an empty bucket),
        after touching the pages they live on; no tuples are built."""
        info = self._info
        index_page, bucket = self._index.probe(tests[self._slot][2])
        sel = list(bucket)
        ctx.buffer.access_keys(bucket_pages(index_page, info, sel))
        ctx.charge_cpu(rows=len(sel))
        return [ColumnBatch(info.heap.columns_view(), sel)] if sel else []


def bucket_pages(index_page: PageKey, info: TableInfo, row_ids) -> List[PageKey]:
    """The pages one index probe reads, in order: ``index_page``, then
    the distinct heap pages of ``row_ids``.  ``row_ids`` is an index
    bucket — live rows, ascending (:meth:`HashIndex.probe`) — so a
    page is new exactly when it differs from the last one."""
    keys = [index_page]
    name = info.name
    rows_per_page = info.heap.rows_per_page
    last = -1
    for row_id in row_ids:
        page_no = row_id // rows_per_page
        if page_no != last:
            last = page_no
            keys.append((name, page_no))
    return keys


# ----------------------------------------------------------------------
# projection and aggregation — selection vectors in, per-column value
# lists (or folded rows) out; row tuples appear only at the QueryResult
# boundary
# ----------------------------------------------------------------------


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
        return [gather(column, sel) for column in columns]
    value_columns = [evaluator.values(item.expr, sel) for item in items]
    ctx.charge_cpu(rows=len(sel))
    return value_columns


class _Accumulator:
    """One aggregate's running state over one execution's batches:
    NULLs drop out and each batch's observed values fold in (``sum``
    goes on left to right from the running total)."""

    __slots__ = ("func", "position", "argument", "count", "value")

    def __init__(self, expr: Aggregate, position: Optional[int]) -> None:
        self.func = expr.func
        self.position = position  # the argument's column, if it is one
        self.argument = None if isinstance(expr.argument, Star) else expr.argument
        self.count = 0
        self.value: Any = 0 if expr.func in ("sum", "avg") else None

    def add(self, evaluator: ColumnarEvaluator, kept: Selection, size: int) -> None:
        if self.argument is None:  # count(*)
            self.count += size
            return
        if self.position is not None:
            values = gather(evaluator.columns[self.position], kept)
        else:
            values = evaluator.values(self.argument, kept)
        observed = [value for value in values if value is not None]
        if not observed:
            return
        self.count += len(observed)
        if self.func in ("sum", "avg"):
            self.value = sum(observed, self.value)
        elif self.func == "min":
            low = min(observed)
            if self.value is None or low < self.value:
                self.value = low
        elif self.func == "max":
            high = max(observed)
            if self.value is None or high > self.value:
                self.value = high

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if not self.count:
            return None
        return self.value / self.count if self.func == "avg" else self.value


class AggregateFold:
    """An aggregate select list and its GROUP BY columns, compiled at
    prepare: each item is a grouping key (its index in the key) or an
    aggregate with its argument's column position.  :meth:`rows` folds
    each batch's kept rows as the scan delivers them:

    * no GROUP BY: into one accumulator per aggregate — when all are
      ``count(*)`` (:attr:`counted`) a batch's kept count is all it
      reads, and no row-id list is built;
    * GROUP BY whose aggregates are all ``count(*)``: into one
      ``Counter`` over the kept key values (first-occurrence order);
    * any other GROUP BY: :func:`partition` splits the kept row ids and
      each group folds as one batch.
    """

    def __init__(
        self, info: TableInfo, items: Sequence[SelectItem], group_by: Sequence[str]
    ) -> None:
        schema = info.heap.schema
        self._keys = [schema.position(name, info.name) for name in group_by]
        self._items: List[Any] = []
        for item in items:
            expr = item.expr
            if isinstance(expr, ColumnRef):
                self._items.append(group_by.index(expr.name))
            elif isinstance(expr.argument, ColumnRef):
                position = schema.position(expr.argument.name, info.name)
                self._items.append((expr, position))
            else:
                self._items.append((expr, None))
        self._aggregates = [item for item in self._items if isinstance(item, tuple)]
        self._counts = all(isinstance(e.argument, Star) for e, _ in self._aggregates)
        #: Does an execution hand :meth:`rows` kept counts, not row ids?
        self.counted = self._counts and not self._keys
        self._width = max(1, len(items))

    def rows(
        self, ctx: ExecutionContext, evaluator: ColumnarEvaluator, batches
    ) -> List[Tuple[Any, ...]]:
        """The output rows over ``batches`` (each batch's kept row ids,
        or its kept count when :attr:`counted`); charges one CPU row per
        kept row and select item."""
        if not self._keys:
            results, total = self._fold(evaluator, batches)
            groups: Iterable = [((), results)]
        elif self._counts:
            counts: Counter = Counter()
            total = 0
            for kept in batches:
                total += len(kept)
                if len(self._keys) == 1:
                    counts.update(gather(evaluator.columns[self._keys[0]], kept))
                else:
                    columns = [evaluator.columns[p] for p in self._keys]
                    counts.update(zip(*[gather(c, kept) for c in columns]))
            groups = [(key, repeat(count)) for key, count in counts.items()]
        else:
            sel: List[int] = []
            for kept in batches:
                sel.extend(kept)
            total = len(sel)
            members = partition([evaluator.columns[p] for p in self._keys], sel)
            groups = [
                (key, self._fold(evaluator, [rows])[0])
                for key, rows in members.items()
            ]
        ctx.charge_cpu(rows=total * self._width)
        single = len(self._keys) == 1
        return [
            self._row((key,) if single else key, results) for key, results in groups
        ]

    def _fold(self, evaluator: ColumnarEvaluator, batches) -> Tuple[List[Any], int]:
        """Every aggregate's result over ``batches``, and the kept rows."""
        folds = [_Accumulator(expr, position) for expr, position in self._aggregates]
        total = 0
        for kept in batches:
            size = kept if self.counted else len(kept)
            total += size
            for fold in folds:
                fold.add(evaluator, kept, size)
        return [fold.result() for fold in folds], total

    def _row(self, key: tuple, results: Iterable[Any]) -> Tuple[Any, ...]:
        results = iter(results)
        return tuple(
            key[item] if isinstance(item, int) else next(results)
            for item in self._items
        )


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

