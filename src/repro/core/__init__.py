"""Shared client-runtime core.

One subsystem, one job: every way a query can be submitted — blocking
call, thread-pool handle, asyncio awaitable — is a thin front end over
the same :class:`~repro.core.submission.SubmissionPipeline`.  The paper's
premise is that *how* a request is coordinated (Section II's observer
model vs. callbacks vs. blocking) is a mechanical choice; this package
is the repo's enforcement of that premise at the architecture level.

Three modules along the pipeline's seams: :mod:`~repro.core.calls`
(the ``Request`` record every stage takes whole, and ``CallPipeline``:
cache protocol, dispatch, settle, speculation ledger, stats),
:mod:`~repro.core.coalescer` (``DispatchCoalescer``: set-oriented
dispatch) and :mod:`~repro.core.submission` (``SubmissionPipeline``, the
``CallPipeline`` for SQL, plus the lifecycle narrative and every public
name).
"""

from .submission import (
    CallPipeline,
    Request,
    SpeculativeHandle,
    SubmissionPipeline,
    SubmissionStats,
)

__all__ = [
    "CallPipeline",
    "Request",
    "SpeculativeHandle",
    "SubmissionPipeline",
    "SubmissionStats",
]
