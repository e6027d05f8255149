"""Async submission runtime: the observer-model machinery.

Implements the paper's three primitives (Section II):

* ``execute_query`` — blocking submit-and-wait (provided by the client),
* ``submit_query``  — non-blocking submit returning a handle,
* ``fetch_result``  — blocking wait on a handle.

plus the split-variable record tables that Rule A's generated code uses
(Section III-B) and the thread-pool executor that stands in for the
``java.util.concurrent`` Executor framework the paper's transformed
programs use.
"""

from .aio import (
    AioConnection,
    AioQueryHandle,
    AioSpeculativeHandle,
    aio_connect,
    as_completed,
    for_each_completed,
)
from .executor import AsyncExecutor
from .handles import QueryHandle
from .records import Record, RecordTable
from .spill import SpillableRecordTable, SpillStats

__all__ = [
    "AioConnection",
    "AioQueryHandle",
    "AioSpeculativeHandle",
    "aio_connect",
    "as_completed",
    "for_each_completed",
    "AsyncExecutor",
    "QueryHandle",
    "Record",
    "RecordTable",
    "SpillableRecordTable",
    "SpillStats",
]
