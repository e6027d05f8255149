"""Secondary indexes: hash (equality) and ordered (range) access paths.

Indexes map column values to row ids.  Like the heap, an index has an IO
footprint: a lookup touches one or two index pages before touching the
heap pages of the matching rows.  Index page numbers are derived from
the key so that repeated lookups of the same key hit the buffer pool.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .errors import ConstraintError
from .storage import HeapTable

#: Key entries per index page (denser than heap pages).
INDEX_ENTRIES_PER_PAGE = 256


class HashIndex:
    """Equality index: value -> sorted list of row ids.

    ``io_name`` is the buffer-pool object name; ``page_for(key)`` spreads
    keys over the index's pages deterministically.
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
        self._buckets.clear()
        self._entries = 0
        for row_id, row in self.table.iter_rows():
            self.add(row_id, row[self._position])

    def add(self, row_id: int, value: Any) -> None:
        bucket = self._buckets.setdefault(value, [])
        if self.unique and bucket:
            raise ConstraintError(
                f"unique index {self.name!r} violated for value {value!r}"
            )
        bisect.insort(bucket, row_id)
        self._entries += 1

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

        A hit returns the index's own bucket, not a copy: read it, do
        not mutate it, and only while holding the table's read lock
        (index maintenance runs under the write lock)."""
        bucket = self._buckets.get(value)
        return [] if bucket is None else bucket

    def page_for(self, value: Any) -> int:
        """Deterministic index page a probe of ``value`` touches."""
        page_count = max(1, self.page_count)
        return hash(value) % page_count

    @property
    def page_count(self) -> int:
        if self._entries == 0:
            return 1
        return (self._entries - 1) // INDEX_ENTRIES_PER_PAGE + 1

    @property
    def entry_count(self) -> int:
        return self._entries

    @property
    def key_count(self) -> int:
        """Exact number of distinct keys (drives the batch cost gate)."""
        return len(self._buckets)

    def keys(self) -> Iterator[Any]:
        return iter(self._buckets)


class OrderedIndex:
    """Ordered index over one column supporting range scans.

    Backed by a sorted list of ``(key, row_id)``; rebuilt wholesale on
    bulk load and maintained incrementally afterwards.  NULL keys are
    excluded (SQL semantics: NULL never matches a range predicate).
    """

    def __init__(self, name: str, table: HeapTable, column: str) -> None:
        self.name = name
        self.table = table
        self.column = column
        self.io_name = f"idx:{name}"
        self._position = table.schema.position(column, table.name)
        self._entries: List[Tuple[Any, int]] = []

    def build(self) -> None:
        self._entries = sorted(
            (row[self._position], row_id)
            for row_id, row in self.table.iter_rows()
            if row[self._position] is not None
        )

    def add(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        bisect.insort(self._entries, (value, row_id))

    def remove(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        position = bisect.bisect_left(self._entries, (value, row_id))
        if (
            position < len(self._entries)
            and self._entries[position] == (value, row_id)
        ):
            self._entries.pop(position)

    # ------------------------------------------------------------------
    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[int]:
        """Row ids with ``low <(=) key <(=) high``, in key order."""
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._entries, (low, -1))
        else:
            start = bisect.bisect_right(self._entries, (low, float("inf")))
        if high is None:
            stop = len(self._entries)
        elif high_inclusive:
            stop = bisect.bisect_right(self._entries, (high, float("inf")))
        else:
            stop = bisect.bisect_left(self._entries, (high, -1))
        return [row_id for _key, row_id in self._entries[start:stop]]

    def page_for(self, value: Any) -> int:
        """Index page touched when probing ``value`` (by sorted position)."""
        position = bisect.bisect_left(self._entries, (value, -1))
        return position // INDEX_ENTRIES_PER_PAGE

    @property
    def page_count(self) -> int:
        if not self._entries:
            return 1
        return (len(self._entries) - 1) // INDEX_ENTRIES_PER_PAGE + 1

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def key_count(self) -> int:
        """Distinct-key *estimate*: the entry count (an upper bound —
        exact counting would scan the whole sorted list).  The batch
        cost gate only needs rows-per-key to the right order of
        magnitude."""
        return len(self._entries)
