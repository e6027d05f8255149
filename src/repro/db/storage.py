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

Slots are grouped into batches of :data:`DEFAULT_BATCH_ROWS`, the unit a
scan works on.  For a scan, a batch's column may be dictionary-encoded
(:meth:`~HeapTable.dictionary`, after Abadi, Madden & Ferreira,
*Integrating Compression and Execution in Column-Oriented Database
Systems*, SIGMOD 2006): each value its live rows hold maps to their
ids, so a test runs once per distinct value, not once per row.  A
dictionary is built on first use and kept exact by every mutator, as
an index bucket is, so what a scan costs never depends on the history
of writes.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .concurrency import ReadWriteLock
from .errors import ConstraintError
from .types import Row, Schema

#: Default rows per 8 KB-ish page; small enough that the benchmark tables
#: span thousands of pages, large enough that scans amortize IO.
DEFAULT_ROWS_PER_PAGE = 64

#: Row slots per column batch, the unit a scan works on and a column
#: dictionary covers.  Large enough that the per-batch Python overhead
#: (one comprehension per predicate conjunct) amortizes, small enough
#: that intermediate selection vectors stay cache-friendly.
DEFAULT_BATCH_ROWS = 1024

#: The most distinct values a batch's column dictionary holds: a column
#: with more in a batch is not encoded there, so a build never costs
#: more than a few kernel passes.
DICTIONARY_CAP = DEFAULT_BATCH_ROWS // 8

#: A column dictionary: each value the batch's live rows hold (the first
#: such row's own object) -> their ids, ascending; keys in the order of
#: their first rows.
Dictionary = Dict[Any, array]


def _first_row_order(groups: Dictionary, column: List[Any]) -> Dictionary:
    """``groups``' non-empty row lists keyed as a fresh build keys them:
    in the order of their first rows, each by the object its first row
    holds in ``column``."""
    lists = sorted(filter(None, groups.values()), key=itemgetter(0))
    return {column[rows[0]]: rows for rows in lists}


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
        #: batch -> column position -> its :meth:`dictionary` (None: the
        #: batch holds more than :data:`DICTIONARY_CAP` distinct values).
        self._dictionaries: Dict[int, Dict[int, Optional[Dictionary]]] = {}
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
            self._recode(len(self._valid) - 1, None, row)
            return len(self._valid) - 1

    def extend(self, rows: Sequence[Row]) -> None:
        """Store coerced rows (as for :meth:`insert`) in one step: one
        ``list.extend`` per column; they take the row ids after the old
        last slot, in order."""
        with self._mutate:
            # The batch the first new slot falls in is the only one a
            # scan may have encoded.
            self._dictionaries.pop(len(self._valid) // DEFAULT_BATCH_ROWS, None)
            for position, column in enumerate(self._columns):
                column.extend(map(itemgetter(position), rows))
            self._valid.extend(b"\x01" * len(rows))
            self._live_count += len(rows)

    def delete(self, row_id: int) -> None:
        with self._mutate:
            if not self._valid[row_id]:
                raise ConstraintError(f"row {row_id} already deleted")
            self._recode(row_id, self.fetch(row_id), None)
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
            old = self.fetch(row_id) if self._dictionaries else None
            for column, value in zip(self._columns, row):
                column[row_id] = value
            self._recode(row_id, old, row)

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
            self._recode(row_id, None, row)

    def _recode(self, row_id: int, old: Optional[Row], new: Optional[Row]) -> None:
        """Keep the cached dictionaries of ``row_id``'s batch exact
        across one write: the row id leaves the rows of its value in
        ``old`` (None: the slot held no live row) and joins those of its
        value in ``new`` (None: the slot becomes a tombstone), which the
        columns already hold.  A key that gains or loses its first row
        (a new key, an emptied one) puts the keys back in the order of
        their first rows, each the object its first row holds; a key
        past :data:`DICTIONARY_CAP` marks the column not encoded, and a
        write that may change the column's distinct values drops a
        mark, for the next scan to build again."""
        encoded = self._dictionaries.get(row_id // DEFAULT_BATCH_ROWS)
        if not encoded:
            return
        for position, groups in list(encoded.items()):
            if groups is None:
                if old is None or new is None or old[position] != new[position]:
                    del encoded[position]
                continue
            reorder = False
            if old is not None:
                rows = groups[old[position]]
                at = bisect_left(rows, row_id)
                del rows[at]
                reorder = at == 0
            if new is not None:
                rows = groups.setdefault(new[position], array("q"))
                at = bisect_left(rows, row_id)
                rows.insert(at, row_id)
                reorder = reorder or at == 0
            if reorder:
                groups = _first_row_order(groups, self._columns[position])
                encoded[position] = groups if len(groups) <= DICTIONARY_CAP else None

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

    def dictionary(self, batch: int, position: int) -> Optional[Dictionary]:
        """Batch ``batch``'s dictionary of column ``position``: each value
        the batch's live rows hold (the first such row's object) -> their
        row ids, ascending, keys in the order of their first rows — the
        keys, key objects and order ``Counter.update`` over the batch's
        live values gives.  None when the batch holds more than
        :data:`DICTIONARY_CAP` distinct values there.  Built on first
        use and kept exact by every mutator (:meth:`_recode`); read it,
        do not mutate it.  Callers hold the table's read lock: scanners
        that race to build one dictionary build equal ones."""
        cached = self._dictionaries.setdefault(batch, {})
        if position not in cached:
            cached[position] = self._encode(batch, position)
        return cached[position]

    def _encode(self, batch: int, position: int) -> Optional[Dictionary]:
        """A fresh :meth:`dictionary`, which stops at the first distinct
        value past the cap."""
        start = batch * DEFAULT_BATCH_ROWS
        sel = self.live_selection(start, start + DEFAULT_BATCH_ROWS)
        groups: Dict[Any, List[int]] = {}
        for row_id, value in zip(sel, map(self._columns[position].__getitem__, sel)):
            rows = groups.get(value)
            if rows is None:
                if len(groups) == DICTIONARY_CAP:
                    return None
                groups[value] = [row_id]
            else:
                rows.append(row_id)
        return {value: array("q", rows) for value, rows in groups.items()}
