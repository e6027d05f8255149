"""Heap file storage: columnar slots packed into fixed-capacity pages.

A :class:`HeapTable` stores table data column-at-a-time: one Python list
per schema column (all the same length) plus a validity bytearray whose
byte ``i`` says whether slot ``i`` holds a live row.  Row ids are slot
indexes, in insertion order.  Pages exist only as an accounting unit —
``page_of(row_id)`` tells the access layer which buffer-pool page an
access touches, which is what drives the simulated IO costs.

The row-oriented API (:meth:`~HeapTable.fetch`,
:meth:`~HeapTable.iter_rows`, …) serves the write paths and the seeding
of a second store; a load appends whole columns
(:meth:`~HeapTable.extend`), and index builds and the executor read the
column lists directly via :meth:`~HeapTable.columns_view` /
:meth:`~HeapTable.live_selection`, materializing tuples only at the
result boundary.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .concurrency import ReadWriteLock
from .errors import ConstraintError
from .types import Row, Schema

#: Default rows per 8 KB-ish page; small enough that the benchmark tables
#: span thousands of pages, large enough that scans amortize IO.
DEFAULT_ROWS_PER_PAGE = 64


class HeapTable:
    """Columnar storage for one table, rows in insertion order.

    Deleted rows leave tombstones (validity byte cleared), so a row id
    — which the indexes and prepared point reads hold — never moves.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> None:
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be positive")
        self.name = name
        self.schema = schema
        self.rows_per_page = rows_per_page
        #: One value list per schema column; all kept the same length.
        self._columns: List[List[Any]] = [[] for _ in schema.columns]
        #: Per-slot liveness: 1 = live row, 0 = tombstone.
        self._valid = bytearray()
        self._live_count = 0
        self.lock = ReadWriteLock()
        self._mutate = threading.Lock()

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
    def insert(self, row: Row) -> int:
        """Insert a row; returns its row id.

        The heap stores rows as given: every caller hands it a full row
        its plan (or loader) already coerced to the schema, and a row
        read back from the heap is coerced already.
        """
        with self._mutate:
            for column, value in zip(self._columns, row):
                column.append(value)
            self._valid.append(1)
            self._live_count += 1
            return len(self._valid) - 1

    def extend(self, rows: Sequence[Row]) -> None:
        """Store coerced rows (as for :meth:`insert`) in one step: one
        ``list.extend`` per column; they take the row ids after the old
        last slot, in order."""
        with self._mutate:
            for position, column in enumerate(self._columns):
                column.extend(map(itemgetter(position), rows))
            self._valid.extend(b"\x01" * len(rows))
            self._live_count += len(rows)

    def delete(self, row_id: int) -> None:
        with self._mutate:
            if not self._valid[row_id]:
                raise ConstraintError(f"row {row_id} already deleted")
            self._valid[row_id] = 0
            # Column values stay in place under the tombstone; restore()
            # overwrites them.
            self._live_count -= 1

    def update(self, row_id: int, row: Row) -> None:
        """Replace a row in place (``row`` already coerced, as for
        :meth:`insert`)."""
        with self._mutate:
            if not self._valid[row_id]:
                raise ConstraintError(f"row {row_id} is deleted")
            for column, value in zip(self._columns, row):
                column[row_id] = value

    def restore(self, row_id: int, row: Row) -> None:
        """Resurrect a tombstoned row in place (transaction rollback).

        The inverse of :meth:`delete`: the row id must currently hold a
        tombstone.  Only rollback uses this — the deleting transaction
        held the table exclusively, so nothing reused the slot in
        between.  ``row`` is the deleted row as the heap held it.
        """
        with self._mutate:
            if self._valid[row_id]:
                raise ConstraintError(f"row {row_id} is not deleted")
            for column, value in zip(self._columns, row):
                column[row_id] = value
            self._valid[row_id] = 1
            self._live_count += 1

    # ------------------------------------------------------------------
    # row-oriented access (the write paths, seeding a second store)
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

    # ------------------------------------------------------------------
    # columnar access (the executor)
    # ------------------------------------------------------------------
    def columns_view(self) -> Tuple[List[Any], ...]:
        """The live column lists themselves — zero-copy, indexed by the
        schema column position.  Callers must hold the table's plan-level
        read lock; values under tombstoned slots are stale and must be
        skipped via :meth:`live_selection` (an index holds live rows
        only)."""
        return tuple(self._columns)

    def live_selection(self, start: int, stop: int) -> Sequence[int]:
        """Selection vector of live row ids in ``[start, stop)``: the
        ``range`` itself when no slot in it is tombstoned (nothing is
        copied), else a list."""
        valid = self._valid
        stop = min(stop, len(valid))
        if not valid.count(0, start, stop):
            return range(start, stop)
        return [row_id for row_id in range(start, stop) if valid[row_id]]
