"""Secondary indexes: the hash (equality) access path.

An index maps column values to row ids.  Like the heap, an index has an IO
footprint: a lookup touches one index page before touching the heap
pages of the matching rows.  Index page numbers are derived from
the key so that repeated lookups of the same key hit the buffer pool.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Sequence

from .errors import ConstraintError
from .storage import HeapTable

#: Key entries per index page (denser than heap pages).
INDEX_ENTRIES_PER_PAGE = 256


class HashIndex:
    """Equality index: value -> sorted list of row ids.

    ``io_name`` is the buffer-pool object name; ``page_for(key)`` spreads
    keys over the index's pages deterministically.  NULL keys are
    indexed like any other, but a unique index never refuses one: NULLs
    are distinct, as in SQL (a NULL probe matches no row anyway).
    """

    def __init__(self, name: str, table: HeapTable, column: str, unique: bool = False) -> None:
        self.name = name
        self.table = table
        self.column = column
        self.unique = unique
        self.io_name = f"idx:{name}"
        self._position = table.schema.position(column, table.name)
        self._buckets: Dict[Any, List[int]] = {}
        self._entries = 0

    # ------------------------------------------------------------------
    def build(self) -> None:
        """(Re)build from the current heap contents."""
        self._buckets = {}
        self._entries = 0
        self.extend(self.table.live_selection(0, self.table.slot_count))

    def extend(self, row_ids: Sequence[int]) -> None:
        """Index rows the heap stored at ``row_ids`` — ascending, and
        past every row id indexed already — reading the column itself.
        Each id is appended to its bucket, which stays sorted.  A unique
        index raises :class:`ConstraintError` at the first repeated
        non-NULL value, as :meth:`add` would (a load checks first, see
        :meth:`~repro.db.catalog.Catalog.check_load`)."""
        column = self.table.columns_view()[self._position]
        buckets = self._buckets
        unique = self.unique
        for row_id in row_ids:
            value = column[row_id]
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = [row_id]
            elif unique and value is not None:
                self.check_unique(value)
            else:
                bucket.append(row_id)
        self._entries += len(row_ids)

    def add(self, row_id: int, value: Any) -> None:
        if self.unique:
            self.check_unique(value)
        bisect.insort(self._buckets.setdefault(value, []), row_id)
        self._entries += 1

    def check_unique(self, value: Any) -> None:
        """Raise :class:`ConstraintError` if a row already holds ``value``,
        a non-NULL one (what :meth:`add` refuses on a unique index)."""
        if value is not None and self._buckets.get(value):
            raise ConstraintError(
                f"unique index {self.name!r} violated for value {value!r}"
            )

    def remove(self, row_id: int, value: Any) -> None:
        bucket = self._buckets.get(value)
        if not bucket:
            return
        position = bisect.bisect_left(bucket, row_id)
        if position < len(bucket) and bucket[position] == row_id:
            bucket.pop(position)
            self._entries -= 1
        if not bucket:
            del self._buckets[value]

    # ------------------------------------------------------------------
    def lookup(self, value: Any) -> List[int]:
        """Row ids matching ``value`` (ascending, i.e. physical order).

        Every id is a live row: the catalog indexes a row when the heap
        stores or restores it and drops it when the heap tombstones it
        (:meth:`~repro.db.catalog.Catalog.on_delete`), so a probe checks
        no tombstone.  A hit returns the index's own bucket, not a copy:
        read it, do not mutate it, and only while holding the table's
        read lock (index maintenance runs under the write lock)."""
        bucket = self._buckets.get(value)
        return [] if bucket is None else bucket

    def page_for(self, value: Any) -> int:
        """Deterministic index page a probe of ``value`` touches."""
        return hash(value) % max(1, self.page_count)

    @property
    def page_count(self) -> int:
        if self._entries == 0:
            return 1
        return (self._entries - 1) // INDEX_ENTRIES_PER_PAGE + 1

    @property
    def key_count(self) -> int:
        """Exact number of distinct keys (drives the batch cost gate)."""
        return len(self._buckets)

    def keys(self) -> Iterator[Any]:
        return iter(self._buckets)
