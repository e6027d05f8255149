"""Exception hierarchy for the embedded database engine.

Every error raised by :mod:`repro.db` derives from :class:`DatabaseError`,
so client code can catch a single base class.  Parse-time, plan-time and
run-time failures are distinguished because the transformation runtime
must re-raise *run-time* errors at ``fetch_result`` in iteration order,
exactly where the original blocking program would have observed them.
"""

from __future__ import annotations


class DatabaseError(Exception):
    """Base class for every error raised by the database engine."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so tests can assert precise locations.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class CatalogError(DatabaseError):
    """A new table or index conflicted with the catalog: a name taken
    (tables and indexes share one case-insensitive namespace), two
    columns of one name, or a reserved ``sqlite_*`` name."""


class UnknownTableError(CatalogError):
    """A statement referenced a table that does not exist."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(CatalogError):
    """A statement referenced a column not present in the table schema."""

    def __init__(self, column: str, table: str = "") -> None:
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {column!r}{where}")
        self.column = column
        self.table = table


class TypeMismatchError(DatabaseError):
    """A value could not be coerced to the declared column type, or a
    parameter value is not one every store binds (NULL, an int, a
    float, a str or bytes)."""


class PlanError(DatabaseError):
    """The planner could not produce a plan for a (parsed) statement."""


class ParamCountError(DatabaseError):
    """The number of bound parameters differs from the ``?`` markers."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"statement expects {expected} parameter(s), got {got}")
        self.expected = expected
        self.got = got


class ConstraintError(DatabaseError):
    """A uniqueness or not-null constraint was violated."""


class ServerShutdownError(DatabaseError):
    """The server rejected a request because it is shutting down."""


class StatementHandleError(DatabaseError):
    """A prepared-statement handle was invalid or already closed."""


class TransactionError(DatabaseError):
    """Base class for explicit-transaction failures."""


class TransactionStateError(TransactionError):
    """An operation was illegal in the transaction's current state
    (e.g. committing twice, or submitting an asynchronous update while a
    transaction is open — see DESIGN.md on the Discussion-section
    update/transaction rules)."""


class TransactionTimeoutError(TransactionError):
    """A table-lock wait exceeded the lock manager's timeout.

    With table-granularity strict 2PL this is how lock conflicts —
    including deadlocks — surface; the losing transaction should be
    rolled back and retried."""
