"""Disk-spilling record tables (Discussion section, "Minimizing memory
overheads", option (a)).

For very long loops the in-memory record table of Rule A holds one
record per iteration, which the paper flags as a memory problem.  The
paper sketches two mitigations: (a) materialize part of the in-memory
table to disk, and (b) bound the number of in-flight iterations.
Option (b) is :mod:`repro.transform.pipelining`; this module is option
(a): a drop-in :class:`~repro.runtime.records.RecordTable` replacement
that keeps at most ``max_resident`` records in memory and pickles older
records to segment files in a temporary directory.

Records must be fully populated before :meth:`SpillableRecordTable.add`
— exactly what Rule A's generated submit loop does — because a record
may be written out as soon as it is added.  Query *handles* are live
future objects and cannot leave memory (in the paper's design a handle
is just an integer); they are *pinned*: the spilled payload stores a
placeholder and the handle is re-attached when the segment is read
back.  Any other unpicklable attribute is pinned the same way, so only
the bulky split-variable state actually moves to disk.

Iteration replays key order across disk segments and the resident tail,
so the fetch loop of Rule A works unchanged.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .handles import QueryHandle
from .records import Record

#: payload marker for attributes kept in memory during a spill
_PINNED = "__repro_pinned__"

DEFAULT_MAX_RESIDENT = 4096


@dataclass
class SpillStats:
    """Observability for the ``ablation-spill`` figure."""

    added: int = 0
    spilled: int = 0
    segments_written: int = 0
    segments_read: int = 0
    bytes_written: int = 0
    peak_resident: int = 0


def _split_payload(record: Record) -> Tuple[dict, dict]:
    """Partition a record's attributes into (picklable, pinned)."""
    values = object.__getattribute__(record, "_values")
    payload: Dict[str, Any] = {}
    pinned: Dict[str, Any] = {}
    for name, value in values.items():
        if isinstance(value, QueryHandle) or not _picklable(value):
            pinned[name] = value
            payload[name] = _PINNED
        else:
            payload[name] = value
    return payload, pinned


def _picklable(value: Any) -> bool:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


class SpillableRecordTable:
    """A record table that materializes its cold prefix to disk.

    Drop-in for :class:`~repro.runtime.records.RecordTable`: ``add``
    assigns sequential keys, iteration yields records in key order,
    ``clear`` is the paper's ``delete t``.

    ``max_resident`` bounds in-memory records; once exceeded, the
    oldest ``spill_batch`` records (default: half the cap) are pickled
    into one segment file under ``spill_dir`` (a fresh temporary
    directory by default, removed on :meth:`clear` / garbage
    collection).
    """

    def __init__(
        self,
        max_resident: int = DEFAULT_MAX_RESIDENT,
        spill_batch: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        if max_resident < 2:
            raise ValueError("max_resident must be at least 2")
        if spill_batch is None:
            spill_batch = max(1, max_resident // 2)
        if not 1 <= spill_batch <= max_resident:
            raise ValueError("spill_batch must be in 1..max_resident")
        self._max_resident = max_resident
        self._spill_batch = spill_batch
        self._lock = threading.Lock()
        #: segment file paths, oldest first
        self._segments: List[str] = []
        #: newest records, not yet spilled (key order, strictly after
        #: every segment)
        self._resident: List[Record] = []
        #: key -> {attr: live object} for handles and other unpicklable
        #: attributes of spilled records; released by clear()
        self._pinned: Dict[int, Dict[str, Any]] = {}
        self._next_key = 0
        self.stats = SpillStats()
        if spill_dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._owns_dir = True
        else:
            os.makedirs(spill_dir, exist_ok=True)
            self._dir = spill_dir
            self._owns_dir = False
        self._segment_ids = 0
        self._finalizer = weakref.finalize(
            self, _cleanup_dir, self._dir, self._owns_dir
        )

    # ------------------------------------------------------------------
    # RecordTable interface
    # ------------------------------------------------------------------
    def new_record(self, **initial) -> Record:
        return Record(**initial)

    def add(self, record: Record) -> int:
        """Append ``record``; may trigger a spill of the oldest records."""
        with self._lock:
            key = self._next_key
            self._next_key += 1
            record.key = key
            self._resident.append(record)
            self.stats.added += 1
            if len(self._resident) > self.stats.peak_resident:
                self.stats.peak_resident = len(self._resident)
            if len(self._resident) > self._max_resident:
                self._spill_locked()
            return key

    def __iter__(self) -> Iterator[Record]:
        """Yield records in key order: disk segments, then resident.

        Segments are loaded one at a time, so iteration memory is
        bounded by ``max(spill_batch, max_resident)`` — the point of the
        exercise.
        """
        with self._lock:
            segments = list(self._segments)
            resident = list(self._resident)
        for segment in segments:
            yield from self._load_segment(segment)
        yield from resident

    def clear(self) -> None:
        """The paper's ``delete t``: drop all records and segment files;
        the next record is numbered 0 again, as in :class:`RecordTable`."""
        with self._lock:
            self._resident = []
            self._next_key = 0
            self._pinned.clear()
            segments, self._segments = self._segments, []
        for segment in segments:
            try:
                os.unlink(segment)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _spill_locked(self) -> None:
        batch, self._resident = (
            self._resident[: self._spill_batch],
            self._resident[self._spill_batch :],
        )
        payloads = []
        for record in batch:
            payload, pinned = _split_payload(record)
            if pinned:
                self._pinned[payload["key"]] = pinned
            payloads.append(payload)
        self._segment_ids += 1
        path = os.path.join(self._dir, f"segment-{self._segment_ids:06d}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(payloads, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._segments.append(path)
        self.stats.spilled += len(batch)
        self.stats.segments_written += 1
        self.stats.bytes_written += os.path.getsize(path)

    def _load_segment(self, path: str) -> List[Record]:
        with open(path, "rb") as handle:
            payloads = pickle.load(handle)
        self.stats.segments_read += 1
        records = []
        for payload in payloads:
            pinned = self._pinned.get(payload["key"], {})
            merged = {}
            for name, value in payload.items():
                if name in pinned and isinstance(value, str) and value == _PINNED:
                    merged[name] = pinned[name]
                else:
                    merged[name] = value
            records.append(Record(**merged))
        return records


def _cleanup_dir(path: str, owns: bool) -> None:
    if not owns:
        return
    try:
        for name in os.listdir(path):
            os.unlink(os.path.join(path, name))
        os.rmdir(path)
    except OSError:  # pragma: no cover - best-effort cleanup
        pass
