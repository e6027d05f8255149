"""System catalog: tables, their indexes and their IO extents."""

from __future__ import annotations

import string
import threading
from typing import Dict, Iterable, List, Optional, Sequence

from .catalog_types import TableInfo
from .disk import SimulatedDisk
from .errors import CatalogError, ConstraintError, UnknownTableError
from .index import HashIndex
from .storage import DEFAULT_ROWS_PER_PAGE, HeapTable
from .types import Row, Schema


#: SQLite folds ASCII letters, and only those, when it compares names.
_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


class Catalog:
    """Name -> table registry with index maintenance hooks.

    The one gate a schema change passes, on every store: tables and
    indexes are made only here (through ``Database.create_table`` /
    ``create_index``), under SQLite's name rule, checked before the
    catalog changes — so no store accepts a name another refuses.
    Table and index names share one namespace and, like the column
    names within a table, compare case-insensitively (ASCII letters
    only); names starting ``sqlite_`` are reserved.  Lookups by name
    stay exact."""

    def __init__(self, disk: SimulatedDisk) -> None:
        self._disk = disk
        self._lock = threading.Lock()
        self._tables: Dict[str, TableInfo] = {}
        #: Every table and index name, folded -> how errors name it.
        self._names: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # schema changes
    # ------------------------------------------------------------------
    def _unclaimed(self, name: str, kind: str) -> str:
        """``name`` folded, if a new table or index may take it; else
        :class:`CatalogError`.  The caller holds the lock."""
        folded = name.translate(_FOLD)
        if folded.startswith("sqlite_"):
            raise CatalogError(f"{kind} name {name!r} is reserved for internal use")
        taken = self._names.get(folded)
        if taken is not None:
            raise CatalogError(f"{kind} name {name!r} is taken by {taken}")
        return folded

    def create_table(
        self,
        name: str,
        schema: Schema,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> TableInfo:
        folded = [column.name.translate(_FOLD) for column in schema]
        if len(set(folded)) < len(folded):
            raise CatalogError(
                f"duplicate column name in table {name!r}: {schema.names()!r}"
            )
        with self._lock:
            self._names[self._unclaimed(name, "table")] = f"table {name!r}"
            info = TableInfo(name=name, heap=HeapTable(name, schema, rows_per_page))
            self._tables[name] = info
        self._disk.allocate_extent(name, pages=16)
        return info

    def create_index(
        self,
        index_name: str,
        table_name: str,
        column: str,
        unique: bool = False,
    ) -> HashIndex:
        info = self.table(table_name)
        with self._lock:
            folded = self._unclaimed(index_name, "index")
            index = HashIndex(index_name, info.heap, column, unique=unique)
            index.build()
            info.indexes.append(index)
            self._names[folded] = f"index {index_name!r}"
        self._disk.allocate_extent(index.io_name, pages=max(1, index.page_count))
        return index

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableInfo:
        with self._lock:
            try:
                return self._tables[name]
            except KeyError:
                raise UnknownTableError(name) from None

    def table_names(self) -> List[str]:
        with self._lock:
            return sorted(self._tables)

    def indexes_on(
        self, table_name: str, column: Optional[str] = None
    ) -> List[HashIndex]:
        info = self.table(table_name)
        if column is None:
            return list(info.indexes)
        return [index for index in info.indexes if index.column == column]

    # ------------------------------------------------------------------
    # storing rows and index maintenance (DML operators and loads)
    # ------------------------------------------------------------------
    def check_unique(self, info: TableInfo, row, old_row=None) -> None:
        """Raise :class:`ConstraintError` if storing ``row`` — new, or in
        place of ``old_row`` — would violate a unique index of ``info``.
        A DML operator asks before it writes the heap, so a violation
        leaves the heap and its indexes as they were."""
        for index in info.indexes:
            if index.unique:
                position = info.heap.schema.position(index.column, info.name)
                value = row[position]
                if old_row is None or old_row[position] != value:
                    index.check_unique(value)

    def check_load(self, info: TableInfo, rows: Iterable[Row]) -> List[Row]:
        """``rows`` — coerced rows, or a lazy coercion of them — listed
        once each has passed ``info``'s unique indexes, in order: raise
        :class:`ConstraintError` at the first row whose value a stored
        row or an earlier row already holds (a NULL never collides: NULLs
        are distinct).  A row's coercion error and its violation thus
        surface in the order row-by-row inserts meet them.  A load asks
        before it stores anything, so a violation leaves the table as it
        was."""
        uniques = [
            (index, info.heap.schema.position(index.column, info.name), set())
            for index in info.indexes
            if index.unique
        ]
        if not uniques:
            return list(rows)
        checked = []
        for row in rows:
            for index, position, seen in uniques:
                value = row[position]
                if value is None:
                    continue
                if value in seen:
                    raise ConstraintError(
                        f"unique index {index.name!r} violated for value {value!r}"
                    )
                index.check_unique(value)
                seen.add(value)
            checked.append(row)
        return checked

    def load(self, info: TableInfo, rows: Sequence[Row]) -> None:
        """Store coerced rows :meth:`check_load` passed in ``info``'s
        heap, one column append each, and extend every index by the
        appended row ids.  The caller holds the table's write lock."""
        heap = info.heap
        first = heap.slot_count
        heap.extend(rows)
        stored = range(first, heap.slot_count)
        for index in info.indexes:
            index.extend(stored)
        self._disk.grow_extent(info.name, heap.page_count)

    def insert(self, info: TableInfo, row) -> int:
        """Store one coerced, unique-checked row in ``info``'s heap and
        index it; returns its row id.  The caller holds the write lock."""
        row_id = info.heap.insert(row)
        self.on_insert(info, row_id, row)
        return row_id

    def on_insert(self, info: TableInfo, row_id: int, row) -> None:
        """Index a row ``info``'s heap just stored at ``row_id`` without
        moving any other (an append, or a rollback's restore); the
        caller holds the table's write lock and its :class:`TableInfo`."""
        for index in info.indexes:
            position = info.heap.schema.position(index.column, info.name)
            index.add(row_id, row[position])
        self._disk.grow_extent(info.name, info.heap.page_count)

    def on_delete(self, info: TableInfo, row_id: int, row) -> None:
        for index in info.indexes:
            position = info.heap.schema.position(index.column, info.name)
            index.remove(row_id, row[position])

    def on_update(self, info: TableInfo, row_id: int, old_row, new_row) -> None:
        for index in info.indexes:
            position = info.heap.schema.position(index.column, info.name)
            if old_row[position] != new_row[position]:
                index.remove(row_id, old_row[position])
                index.add(row_id, new_row[position])
