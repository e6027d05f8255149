"""Buffer pool: an LRU page cache in front of the simulated disk.

A page hit costs nothing (beyond the caller's CPU charge); a miss pays
the disk's service time.  ``clear()`` empties the pool, which is how the
benchmark harness produces the paper's *cold cache* runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from .disk import SimulatedDisk

PageKey = Tuple[str, int]


@dataclass
class BufferStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """Thread-safe LRU cache of (object name, page number) keys.

    Only page *identity* is cached — row data lives in Python lists and
    is always accessible; what the pool models is whether an access pays
    disk latency.  This mirrors how the paper's cold/warm cache split is
    purely a latency phenomenon.
    """

    def __init__(self, capacity_pages: int, disk: SimulatedDisk) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        self._capacity = capacity_pages
        self._disk = disk
        self._lock = threading.Lock()
        self._pages: "OrderedDict[PageKey, None]" = OrderedDict()
        self.stats = BufferStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    def access(self, name: str, page_no: int) -> bool:
        """Touch one page; returns True on a cache hit.

        On a miss the calling thread blocks for the disk service time and
        the page is installed (evicting the LRU page if full).  Two
        threads missing on the same page may both go to disk — matching
        real pools without per-page latches under our simplified model;
        the shared-scan layer above deduplicates the common case.
        """
        key = (name, page_no)
        with self._lock:
            try:
                self._pages.move_to_end(key)
            except KeyError:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                return True
        self._disk.read(name, page_no)
        with self._lock:
            self._admit((key,))
        return False

    def access_keys(self, keys) -> None:
        """Touch ``(name, page_no)`` keys in order: one lock section
        while they hit, then one :meth:`access` per key from the first
        miss on — charged exactly as one ``access`` per key."""
        hits = 0
        touch = self._pages.move_to_end
        with self._lock:
            for key in keys:
                try:
                    touch(key)
                except KeyError:
                    break
                hits += 1
            self.stats.hits += hits
        for name, page_no in keys[hits:]:
            self.access(name, page_no)

    def access_many(self, name: str, page_nos) -> int:
        """Touch a run of pages; returns the hit count.

        The hit/miss split is decided under one lock acquisition (the
        batch-scan path touches thousands of pages per statement; a lock
        round trip per page would dominate), then misses pay the disk as
        one run in the caller's order — preserving the sequential access
        pattern the disk model rewards — and install together.
        """
        keys = [(name, page_no) for page_no in page_nos]
        misses = []
        touch = self._pages.move_to_end
        with self._lock:
            for key in keys:
                try:
                    touch(key)
                except KeyError:
                    misses.append(key)
            self.stats.hits += len(keys) - len(misses)
            self.stats.misses += len(misses)
        if misses:
            self._disk.read_many(name, [page_no for _name, page_no in misses])
            with self._lock:
                self._admit(misses)
        return len(keys) - len(misses)

    def _admit(self, keys) -> None:
        """Make ``keys`` the most recently used pages, in order, evicting
        from the LRU end to stay within capacity (lock held)."""
        pages = self._pages
        for key in keys:
            if key in pages:
                pages.move_to_end(key)
            else:
                if len(pages) >= self._capacity:
                    pages.popitem(last=False)
                pages[key] = None

    def install(self, name: str, page_no: int) -> None:
        """Install a page without charging IO (used after page writes)."""
        with self._lock:
            self._admit(((name, page_no),))

    def contains(self, name: str, page_no: int) -> bool:
        with self._lock:
            return (name, page_no) in self._pages

    def clear(self) -> None:
        """Drop every cached page: the next run sees a cold cache."""
        with self._lock:
            self._pages.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = BufferStats()

    def warm(self, name: str, page_count: int) -> None:
        """Mark pages of ``name`` resident without paying IO (warm-cache
        set-up), most recently used last."""
        with self._lock:
            self._admit([(name, page_no) for page_no in range(page_count)])
