"""Transformation errors and blocked-reason vocabulary."""

from __future__ import annotations


class TransformError(Exception):
    """Base class for transformation failures."""


class LoopNotTransformable(TransformError):
    """The loop (or one query statement in it) cannot be transformed.

    Carries a machine-readable ``reason`` code plus a human-readable
    message; the applicability analyzer (Table I) aggregates reasons.
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


class ReorderFailed(LoopNotTransformable):
    """Statement reordering could not eliminate the crossing LCFD edges."""

    def __init__(self, message: str = "") -> None:
        super().__init__(REASON_REORDER_FAILED, message)


#: Reason codes (stable identifiers used in reports and tests).
REASON_TRUE_CYCLE = "true-dependence-cycle"
REASON_UNSUPPORTED_STMT = "unsupported-statement"
REASON_EMBEDDED_QUERY = "query-not-top-level"
REASON_RECURSION = "recursive-call"
REASON_EXTERNAL = "external-dependence"
REASON_RECEIVER_WRITTEN = "receiver-written-in-loop"
REASON_REORDER_FAILED = "reorder-failed"
REASON_PRECONDITION = "fission-precondition"
REASON_RENAME = "unrenamable-variable"
REASON_CONTROL = "control-structure"
