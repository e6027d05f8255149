"""AST node definitions for the SQL subset.

Nodes are frozen dataclasses so parsed statements can be cached and
shared between server worker threads without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Tuple

# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


class Expr:
    """Marker base class for expressions."""

    def param_count(self) -> int:
        """Number of ``?`` markers in this subtree."""
        return 0


@dataclass(frozen=True)
class Literal(Expr):
    value: Any


@dataclass(frozen=True)
class Param(Expr):
    """A positional ``?`` parameter (0-based index in statement order)."""

    index: int

    def param_count(self) -> int:
        return 1


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in ``SELECT *`` or ``count(*)``."""


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Comparison or arithmetic: =, <>, <, <=, >, >=, +, -, /, %, *."""

    op: str
    left: Expr
    right: Expr

    def param_count(self) -> int:
        return self.left.param_count() + self.right.param_count()


@dataclass(frozen=True)
class LogicalOp(Expr):
    """AND / OR over two operands."""

    op: str  # "and" | "or"
    left: Expr
    right: Expr

    def param_count(self) -> int:
        return self.left.param_count() + self.right.param_count()


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr

    def param_count(self) -> int:
        return self.operand.param_count()


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def param_count(self) -> int:
        return self.operand.param_count()


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def param_count(self) -> int:
        return self.operand.param_count() + sum(
            item.param_count() for item in self.items
        )


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def param_count(self) -> int:
        return (
            self.operand.param_count()
            + self.low.param_count()
            + self.high.param_count()
        )


@dataclass(frozen=True)
class Aggregate(Expr):
    """``count|sum|min|max|avg ( [distinct] expr | * )``."""

    func: str
    argument: Expr  # Star for count(*)
    distinct: bool = False

    def param_count(self) -> int:
        return self.argument.param_count()


def iter_column_refs(expr: Optional[Expr]) -> Iterator[str]:
    """Yield every column name referenced anywhere inside ``expr``.

    The planner resolves these against the table schema at prepare
    time, for every store: the engine's evaluators would otherwise
    resolve a reference only when a row reaches it, and SQLite treats a
    double-quoted unknown identifier as a string *literal* (a
    documented misfeature kept for MySQL compatibility), so
    ``SELECT "nope" FROM t`` returns rows of ``'nope'`` instead of
    raising.
    """
    if expr is None or isinstance(expr, (Literal, Param, Star)):
        return
    if isinstance(expr, ColumnRef):
        yield expr.name
        return
    if isinstance(expr, (BinaryOp, LogicalOp)):
        yield from iter_column_refs(expr.left)
        yield from iter_column_refs(expr.right)
        return
    if isinstance(expr, (NotOp, IsNull)):
        yield from iter_column_refs(expr.operand)
        return
    if isinstance(expr, InList):
        yield from iter_column_refs(expr.operand)
        for item in expr.items:
            yield from iter_column_refs(item)
        return
    if isinstance(expr, Between):
        yield from iter_column_refs(expr.operand)
        yield from iter_column_refs(expr.low)
        yield from iter_column_refs(expr.high)
        return
    if isinstance(expr, Aggregate):
        yield from iter_column_refs(expr.argument)
        return
    raise TypeError(f"cannot walk expression {expr!r}")


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------


class Statement:
    """Marker base class for statements."""


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    column: str
    descending: bool = False


@dataclass(frozen=True)
class SelectStmt(Statement):
    items: Tuple[SelectItem, ...]
    table: str
    where: Optional[Expr] = None
    group_by: Tuple[str, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[Expr] = None
    distinct: bool = False
    param_count: int = 0

    @property
    def is_aggregate(self) -> bool:
        return any(isinstance(item.expr, Aggregate) for item in self.items)


@dataclass(frozen=True)
class InsertStmt(Statement):
    table: str
    columns: Tuple[str, ...]  # empty = full schema order
    values: Tuple[Expr, ...]
    param_count: int = 0


@dataclass(frozen=True)
class UpdateStmt(Statement):
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None
    param_count: int = 0


@dataclass(frozen=True)
class DeleteStmt(Statement):
    table: str
    where: Optional[Expr] = None
    param_count: int = 0


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False


@dataclass(frozen=True)
class CreateTableStmt(Statement):
    table: str
    columns: Tuple[ColumnDef, ...]
    if_not_exists: bool = False
    param_count: int = 0


@dataclass(frozen=True)
class CreateIndexStmt(Statement):
    index: str
    table: str
    column: str
    unique: bool = False
    ordered: bool = False
    clustered: bool = False
    param_count: int = 0


def is_ddl(statement: Statement) -> bool:
    """True for statements that change the schema."""
    return isinstance(statement, (CreateTableStmt, CreateIndexStmt))


def is_write(statement: Statement) -> bool:
    """True for statements that modify database state."""
    return is_ddl(statement) or isinstance(
        statement, (InsertStmt, UpdateStmt, DeleteStmt)
    )
