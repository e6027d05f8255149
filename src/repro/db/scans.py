"""Shared table scans.

When several queries need a full scan of the same table at the same
time, the engine elects one *leader* that performs the page IO while the
other scanners (followers) wait and reuse the leader's pass — the
"shared scans" server technique the paper cites as reason (c) that
concurrent submission helps.  A synchronous client can never have two
scans in flight, so it never benefits; the transformed programs do.

The manager tracks scan *generations* per table so a follower that
arrives after a leader finished does not piggyback on stale work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence

from .storage import DEFAULT_BATCH_ROWS


@dataclass
class ColumnBatch:
    """One unit of columnar execution: a *selection vector* of the live
    row ids it covers (a ``range`` when the batch has no tombstone, else
    a list) and, for a scan's batch, the heap batch it is (the key of
    :meth:`~repro.db.storage.HeapTable.dictionary`; None for rows an
    index probe found).  Operators narrow ``sel`` over the table's
    column lists; the columns themselves are never copied until late
    materialization at the result boundary."""

    sel: Sequence[int]
    number: Optional[int] = None


def iter_column_batches(heap) -> Iterator[ColumnBatch]:
    """Yield a :class:`ColumnBatch` per :data:`DEFAULT_BATCH_ROWS` slots
    of a :class:`~repro.db.storage.HeapTable`, skipping tombstones (and
    batches with no live row).  Callers must hold the table's
    plan-level read lock for the duration."""
    for start in range(0, heap.slot_count, DEFAULT_BATCH_ROWS):
        sel = heap.live_selection(start, start + DEFAULT_BATCH_ROWS)
        if sel:
            yield ColumnBatch(sel, start // DEFAULT_BATCH_ROWS)


@dataclass
class ScanStats:
    led: int = 0
    shared: int = 0
    solo: int = 0


@dataclass
class _ActiveScan:
    done: threading.Event = field(default_factory=threading.Event)
    followers: int = 0
    failed: BaseException = None  # type: ignore[assignment]


class SharedScanManager:
    """Coordinates concurrent full scans of the same table."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._active: Dict[str, _ActiveScan] = {}
        self.stats = ScanStats()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def run(self, table_name: str, do_io: Callable[[], None]) -> None:
        """Execute the IO portion of a full scan of ``table_name``.

        ``do_io`` performs the buffer-pool page touches.  Exactly one of
        the concurrently arriving scanners runs it; the rest block until
        it completes and are charged nothing.  If the leader's IO raises,
        followers re-run their own IO rather than propagate a foreign
        error.
        """
        if not self._enabled:
            with self._lock:
                self.stats.solo += 1
            do_io()
            return

        with self._lock:
            active = self._active.get(table_name)
            if active is None:
                active = _ActiveScan()
                self._active[table_name] = active
                leader = True
            else:
                active.followers += 1
                leader = False

        if leader:
            try:
                do_io()
            except BaseException as exc:
                active.failed = exc
                raise
            finally:
                with self._lock:
                    self.stats.led += 1
                    del self._active[table_name]
                active.done.set()
        else:
            active.done.wait()
            if active.failed is not None:
                # Leader failed; do our own IO so this scan still runs.
                do_io()
                with self._lock:
                    self.stats.solo += 1
            else:
                with self._lock:
                    self.stats.shared += 1

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = ScanStats()
