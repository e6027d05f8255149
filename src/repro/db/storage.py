"""Heap file storage: columnar slots packed into fixed-capacity pages.

A :class:`HeapTable` stores table data column-at-a-time: one Python list
per schema column (all the same length) plus a validity bytearray whose
byte ``i`` says whether slot ``i`` holds a live row.  Row ids are slot
indexes, in insertion (or clustered-key) order.  Pages exist only as an
accounting unit — ``page_of(row_id)`` tells the access layer which
buffer-pool page an access touches, which is what drives the simulated
IO costs.

The row-oriented API (:meth:`~HeapTable.fetch`,
:meth:`~HeapTable.iter_rows`, …) serves the write paths, index builds
and loaders; the executor reads the column lists directly via
:meth:`~HeapTable.columns_view` / :meth:`~HeapTable.live_selection` and
materializes tuples only at the result boundary.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .concurrency import ReadWriteLock
from .errors import ConstraintError
from .types import Row, Schema

#: Default rows per 8 KB-ish page; small enough that the benchmark tables
#: span thousands of pages, large enough that scans amortize IO.
DEFAULT_ROWS_PER_PAGE = 64


class HeapTable:
    """Columnar storage for one table.

    When ``clustered_on`` is set, rows are kept physically sorted on that
    column, so equality lookups on it touch one page run (the paper's
    Experiment 3 uses a clustering index on ``category.category_id``).

    Deleted rows leave tombstones (validity byte cleared) so that row
    ids — which the indexes reference — stay stable; ``compact()``
    rebuilds.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        clustered_on: Optional[str] = None,
    ) -> None:
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be positive")
        self.name = name
        self.schema = schema
        self.rows_per_page = rows_per_page
        self.clustered_on = clustered_on
        self._cluster_pos = (
            schema.position(clustered_on, name) if clustered_on else None
        )
        #: One value list per schema column; all kept the same length.
        self._columns: List[List[Any]] = [[] for _ in schema.columns]
        #: Per-slot liveness: 1 = live row, 0 = tombstone.
        self._valid = bytearray()
        self._cluster_keys: List[Any] = []  # parallel to slots when clustered
        self._live_count = 0
        self.lock = ReadWriteLock()
        self._mutate = threading.Lock()

    @property
    def is_clustered(self) -> bool:
        return self._cluster_pos is not None

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def page_of(self, row_id: int) -> int:
        return row_id // self.rows_per_page

    @property
    def page_count(self) -> int:
        if not self._valid:
            return 0
        return (len(self._valid) - 1) // self.rows_per_page + 1

    @property
    def row_count(self) -> int:
        """Number of live (non-deleted) rows."""
        return self._live_count

    @property
    def slot_count(self) -> int:
        """Number of physical slots, tombstones included."""
        return len(self._valid)

    def __len__(self) -> int:
        return self._live_count

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, values: Tuple[Any, ...]) -> int:
        """Insert a row (already schema-coerced); returns its row id.

        Clustered tables insert in key order, shifting the tail.  The
        benchmarks bulk-load clustered tables in sorted order, so the
        shift is the exception, not the rule.
        """
        row = self.schema.coerce_row(values)
        with self._mutate:
            if self._cluster_pos is None:
                for column, value in zip(self._columns, row):
                    column.append(value)
                self._valid.append(1)
                self._live_count += 1
                return len(self._valid) - 1
            key = row[self._cluster_pos]
            position = bisect.bisect_right(self._cluster_keys, _OrderKey(key))
            for column, value in zip(self._columns, row):
                column.insert(position, value)
            self._valid.insert(position, 1)
            self._cluster_keys.insert(position, _OrderKey(key))
            self._live_count += 1
            return position

    def delete(self, row_id: int) -> None:
        with self._mutate:
            if not self._valid[row_id]:
                raise ConstraintError(f"row {row_id} already deleted")
            self._valid[row_id] = 0
            # Column values stay in place under the tombstone; restore()
            # overwrites them and compact() drops the slot.
            if self._cluster_pos is not None:
                self._cluster_keys[row_id] = _OrderKey(None)
            self._live_count -= 1

    def update(self, row_id: int, row: Row) -> None:
        """Replace a row in place.

        Updating the clustering key in place is disallowed; callers must
        delete + reinsert (the planner does exactly that).
        """
        with self._mutate:
            if not self._valid[row_id]:
                raise ConstraintError(f"row {row_id} is deleted")
            if self._cluster_pos is not None:
                if row[self._cluster_pos] != self._columns[self._cluster_pos][row_id]:
                    raise ConstraintError(
                        "cannot update clustering key in place"
                    )
            coerced = self.schema.coerce_row(row)
            for column, value in zip(self._columns, coerced):
                column[row_id] = value

    def restore(self, row_id: int, row: Row) -> None:
        """Resurrect a tombstoned row in place (transaction rollback).

        The inverse of :meth:`delete`: the row id must currently hold a
        tombstone.  Only rollback uses this — the deleting transaction
        held the table exclusively, so the slot cannot have been
        compacted away in between.
        """
        with self._mutate:
            if self._valid[row_id]:
                raise ConstraintError(f"row {row_id} is not deleted")
            coerced = self.schema.coerce_row(row)
            for column, value in zip(self._columns, coerced):
                column[row_id] = value
            self._valid[row_id] = 1
            if self._cluster_pos is not None:
                self._cluster_keys[row_id] = _OrderKey(coerced[self._cluster_pos])
            self._live_count += 1

    def compact(self) -> None:
        """Drop tombstones; invalidates row ids (indexes must rebuild)."""
        with self._mutate:
            keep = [row_id for row_id, live in enumerate(self._valid) if live]
            self._columns = [
                [column[row_id] for row_id in keep] for column in self._columns
            ]
            self._valid = bytearray(b"\x01" * len(keep))
            if self._cluster_pos is not None:
                cluster = self._columns[self._cluster_pos]
                self._cluster_keys = [_OrderKey(value) for value in cluster]
            self._live_count = len(keep)

    # ------------------------------------------------------------------
    # row-oriented access (the write paths, index builds, loaders)
    # ------------------------------------------------------------------
    def fetch(self, row_id: int) -> Optional[Row]:
        if not self._valid[row_id]:
            return None
        return tuple(column[row_id] for column in self._columns)

    def iter_rows(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(row_id, row)`` for live rows, in physical order."""
        valid = self._valid
        if not self._columns:
            for row_id in range(len(valid)):
                if valid[row_id]:
                    yield row_id, ()
            return
        for row_id, row in enumerate(zip(*self._columns)):
            if valid[row_id]:
                yield row_id, row

    def cluster_range(self, key: Any) -> Tuple[int, int]:
        """Row-id range [lo, hi) holding ``key`` on a clustered table."""
        if self._cluster_pos is None:
            raise ConstraintError(f"table {self.name!r} is not clustered")
        marker = _OrderKey(key)
        lo = bisect.bisect_left(self._cluster_keys, marker)
        hi = bisect.bisect_right(self._cluster_keys, marker)
        return lo, hi

    # ------------------------------------------------------------------
    # columnar access (the executor)
    # ------------------------------------------------------------------
    def columns_view(self) -> Tuple[List[Any], ...]:
        """The live column lists themselves — zero-copy, indexed by the
        schema column position.  Callers must hold the table's plan-level
        read lock; values under tombstoned slots are stale and must be
        skipped via :meth:`live_selection` / :meth:`validity_view`."""
        return tuple(self._columns)

    def validity_view(self) -> bytearray:
        """The liveness bitmap (byte per slot, 1 = live)."""
        return self._valid

    def live_selection(self, start: int, stop: int) -> Sequence[int]:
        """Selection vector of live row ids in ``[start, stop)``: the
        ``range`` itself when no slot in it is tombstoned (nothing is
        copied), else a list."""
        valid = self._valid
        stop = min(stop, len(valid))
        if not valid.count(0, start, stop):
            return range(start, stop)
        return [row_id for row_id in range(start, stop) if valid[row_id]]


class _OrderKey:
    """Total order over heterogeneous values with None sorting last.

    Lets clustered tables hold NULLs and mixed comparable values without
    ``TypeError`` from raw tuple comparison.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def _rank(self) -> Tuple[int, Any]:
        if self.value is None:
            return (2, 0)
        if isinstance(self.value, (int, float)) and not isinstance(self.value, bool):
            return (0, self.value)
        return (1, str(self.value))

    def __lt__(self, other: "_OrderKey") -> bool:
        return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderKey) and self._rank() == other._rank()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_OrderKey({self.value!r})"


#: Public alias used by the sort operator.
OrderKey = _OrderKey
