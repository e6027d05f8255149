"""Split-variable record tables (Rule A's ``Table(T) t`` / ``Record(T) r``).

The loop-fission transformation spills every *split variable* — state
that must flow from a submit-loop iteration to the matching fetch-loop
iteration — into one record per iteration.  Attributes are optional
(NULL when the guarded write did not happen), and the fetch loop replays
records ordered by the loop key, exactly as the paper's Rule A specifies.

The code generator emits plain dict/list literals for readability (one
of the paper's Section V design goals), but these classes are the public
runtime API for hand-written async code and for nested-table cases.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, List


class Record:
    """One iteration's spilled state.

    Attribute-style access with "unassigned is distinguishable from
    None" semantics: reading an attribute that was never written raises
    :class:`AttributeError`, as the conditional restore (``ssr``) of
    Rule A must tell it from a written ``None``.
    """

    __slots__ = ("_values",)

    def __init__(self, **initial: Any) -> None:
        object.__setattr__(self, "_values", dict(initial))

    def __getattr__(self, name: str) -> Any:
        values = object.__getattribute__(self, "_values")
        try:
            return values[name]
        except KeyError:
            raise AttributeError(
                f"record attribute {name!r} was never assigned"
            ) from None

    def __setattr__(self, name: str, value: Any) -> None:
        object.__getattribute__(self, "_values")[name] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        values = object.__getattribute__(self, "_values")
        body = ", ".join(f"{key}={value!r}" for key, value in sorted(values.items()))
        return f"Record({body})"


class RecordTable:
    """An ordered, thread-safe collection of records keyed by loop index.

    ``add`` assigns the next key; iteration yields records in key order
    over a snapshot, so a reader may iterate while a producer appends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Record] = []

    def new_record(self, **initial: Any) -> Record:
        return Record(**initial)

    def add(self, record: Record) -> int:
        """Append ``record``; returns its key (paper's ``loopkey++``)."""
        with self._lock:
            key = len(self._records)
            record.key = key
            self._records.append(record)
            return key

    def __iter__(self) -> Iterator[Record]:
        """Iterate in key order over a snapshot."""
        with self._lock:
            snapshot = list(self._records)
        return iter(snapshot)

    def clear(self) -> None:
        """The paper's ``delete t`` — release the spilled state."""
        with self._lock:
            self._records.clear()
