"""Concurrency primitives for the database engine.

The engine uses a classic readers/writer lock per table: scans and index
lookups proceed concurrently, while INSERT/UPDATE/DELETE take the table
exclusively.  This is all the isolation the paper's workloads need (the
paper explicitly leaves transaction interaction to future work, and so do
we — see the Discussion section / DESIGN.md).
"""

from __future__ import annotations

import threading


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Writer preference prevents a stream of concurrent read queries (the
    transformed programs keep many in flight) from starving inserts in
    the mixed workloads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._readers_ok = threading.Condition(self._lock)
        self._writers_ok = threading.Condition(self._lock)
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0
        self._reading = _Held(self.acquire_read, self.release_read)
        self._writing = _Held(self.acquire_write, self.release_write)

    def acquire_read(self) -> None:
        with self._lock:
            while self._active_writer or self._waiting_writers:
                self._readers_ok.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._lock:
            self._active_readers -= 1
            if self._active_readers == 0 and self._waiting_writers:
                self._writers_ok.notify()

    def acquire_write(self) -> None:
        with self._lock:
            self._waiting_writers += 1
            try:
                while self._active_writer or self._active_readers:
                    self._writers_ok.wait()
            finally:
                self._waiting_writers -= 1
            self._active_writer = True

    def release_write(self) -> None:
        with self._lock:
            self._active_writer = False
            self._writers_ok.notify()
            self._readers_ok.notify_all()

    def reading(self) -> "_Held":
        """``with lock.reading():`` — the read side as a context manager."""
        return self._reading

    def writing(self) -> "_Held":
        """``with lock.writing():`` — the write side as a context manager."""
        return self._writing


class _Held:
    """One side of a :class:`ReadWriteLock` as a class-based context
    manager: entering acquires, leaving releases.  It holds no state of
    its own, so each lock keeps one per side and every ``with`` reuses
    it (a ``@contextmanager`` generator would cost a frame per use)."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info) -> None:
        self._release()
