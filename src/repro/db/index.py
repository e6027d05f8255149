"""Secondary indexes: the hash (equality) access path.

An index maps column values to row ids.  Like the heap, an index has an IO
footprint: a lookup touches one index page before touching the heap
pages of the matching rows.  Index page numbers are derived from
the key so that repeated lookups of the same key hit the buffer pool.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from .errors import ConstraintError
from .storage import HeapTable

#: Key entries per index page (denser than heap pages).
INDEX_ENTRIES_PER_PAGE = 256

#: What :meth:`HashIndex.probe` answers for a key no row holds.
_EMPTY: Tuple[int, ...] = ()


def page_hash(value: Any) -> int:
    """The hash that places ``value`` on an index page, the same in
    every process: ``hash`` of a number (stable already), CRC-32 of
    text (its UTF-8 bytes) and of bytes — whose ``hash`` follows the
    process's hash seed — and 0 for NULL."""
    if isinstance(value, str):
        value = value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return zlib.crc32(value)
    return 0 if value is None else hash(value)


class HashIndex:
    """Equality index: value -> sorted list of row ids.

    ``io_name`` is the buffer-pool object name; a probe (:meth:`probe`)
    spreads keys over the index's pages by hash.  NULL keys are indexed
    like any other, but a unique index never refuses one: NULLs are
    distinct, as in SQL (a NULL probe matches no row anyway).
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
        #: Pages the index occupies: one per ``INDEX_ENTRIES_PER_PAGE``
        #: entries, at least one (kept by :meth:`_count`).
        self.page_count = 1

    # ------------------------------------------------------------------
    def build(self) -> None:
        """(Re)build from the current heap contents."""
        self._buckets = {}
        self._count(-self._entries)
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
        self._count(len(row_ids))

    def add(self, row_id: int, value: Any) -> None:
        if self.unique:
            self.check_unique(value)
        bisect.insort(self._buckets.setdefault(value, []), row_id)
        self._count(1)

    def _count(self, entries: int) -> None:
        """Add ``entries`` (negative: drop) to the entry count and the
        page count."""
        self._entries += entries
        self.page_count = (max(self._entries, 1) - 1) // INDEX_ENTRIES_PER_PAGE + 1

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
            self._count(-1)
        if not bucket:
            del self._buckets[value]

    # ------------------------------------------------------------------
    def probe(self, value: Any) -> Tuple[Tuple[str, int], Sequence[int]]:
        """The index page a probe of ``value`` touches, as a buffer-pool
        key — :func:`page_hash` over the index's pages, so repeated
        probes of one key touch one page, in every process — and the
        ids of the rows holding ``value`` (ascending, i.e. physical
        order; an empty tuple when none does).

        Every id is a live row: the catalog indexes a row when the heap
        stores or restores it and drops it when the heap tombstones it
        (:meth:`~repro.db.catalog.Catalog.on_delete`), so a probe checks
        no tombstone.  A hit returns the index's own bucket, not a copy:
        read it, do not mutate it, and only while holding the table's
        read lock (index maintenance runs under the write lock)."""
        key = hash(value) if type(value) is int else page_hash(value)
        page = (self.io_name, key % self.page_count)
        return page, self._buckets.get(value, _EMPTY)

    @property
    def key_count(self) -> int:
        """Exact number of distinct keys (drives the batch cost gate)."""
        return len(self._buckets)

    def keys(self) -> Iterator[Any]:
        return iter(self._buckets)
