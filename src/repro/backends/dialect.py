"""AST -> SQLite SQL translation.

The engine's SQL subset is small, but its *semantics* were pinned down
by the expression evaluator (:mod:`repro.db.plan.expr_eval`) and the
operators, not by SQLite — so translation is not string pass-through.
Two divergences are compensated here:

* **Division.**  The engine uses true division (``7 / 2 = 3.5``),
  narrowing back to int only when exact; SQLite's ``/`` is C-style
  integer division for int operands.  We emit
  ``CAST(a AS REAL) / b`` — SQLite already yields NULL on a zero or
  NULL divisor, matching the engine.  (The engine's int-narrowing is
  invisible to order-normalized comparison: ``3 == 3.0`` in Python.)
* **Modulo.**  The engine uses Python floor-mod (sign follows the
  divisor) with NULL on a zero divisor; SQLite's ``%`` is C-style
  (sign follows the dividend).  We emit a CASE expression that
  re-centers the remainder: ``((a % b) + b) % b``.

Parameters: the engine's ``?`` placeholders are positional, but the
modulo emulation *duplicates* its operands, so a positional placeholder
cannot express every translated statement.  A
:class:`~repro.db.sql.ast_nodes.Param` therefore renders as the SQLite
named parameter ``:pN``, and :func:`bind` turns a positional binding
tuple into the dict those names read.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ..db.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    Expr,
    InList,
    IsNull,
    Literal,
    LogicalOp,
    NotOp,
    Param,
    SelectItem,
    SelectStmt,
    Star,
    Statement,
    UpdateStmt,
    iter_column_refs,  # re-exported; lives with the AST
)
from ..db.types import Schema

#: The declared type of every column: ``BLOB``, SQLite's spelling of *no
#: affinity*.  A typed declaration would make SQLite convert a binding
#: to the column's affinity before comparing — ``id = '1'`` matching the
#: row whose id is 1 — where the engine compares values as bound.  The
#: declaration need not carry the type: every value stored was coerced
#: to the column's engine type by the plan (``InsertPlan.row``,
#: ``UpdatePlan.assigner``) or by ``mirror_load``, and SQLite keeps each
#: value's own storage class (BOOL arrives as the integers 1/0, which
#: compare equal to True/False in Python).
COLUMN_DECLARATION = "BLOB"


def bind(params: Sequence) -> Dict[str, Any]:
    """A positional binding as the dict the ``:pN`` placeholders read."""
    return {f"p{index}": value for index, value in enumerate(params)}


def quote_ident(name: str) -> str:
    """Double-quote an identifier (doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise TypeError(f"cannot render literal {value!r}")


def translate_expr(expr: Expr) -> str:
    """Render one expression AST as SQLite SQL text."""
    if isinstance(expr, Literal):
        return quote_literal(expr.value)
    if isinstance(expr, Param):
        return f":p{expr.index}"
    if isinstance(expr, ColumnRef):
        return quote_ident(expr.name)
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, BinaryOp):
        left = translate_expr(expr.left)
        right = translate_expr(expr.right)
        if expr.op == "/":
            # True division with engine NULL-on-zero (SQLite native).
            return f"(CAST({left} AS REAL) / {right})"
        if expr.op == "%":
            # Floor-mod (sign follows the divisor), NULL on zero/NULL
            # divisor.  The divisor repeats, hence named parameters.
            return (
                f"(CASE WHEN ({right}) IS NULL OR ({right}) = 0 THEN NULL "
                f"ELSE ((({left}) % ({right})) + ({right})) % ({right}) END)"
            )
        op = "<>" if expr.op == "!=" else expr.op
        return f"({left} {op} {right})"
    if isinstance(expr, LogicalOp):
        left = translate_expr(expr.left)
        right = translate_expr(expr.right)
        return f"({left} {expr.op.upper()} {right})"
    if isinstance(expr, NotOp):
        return f"(NOT {translate_expr(expr.operand)})"
    if isinstance(expr, IsNull):
        tail = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({translate_expr(expr.operand)} {tail})"
    if isinstance(expr, InList):
        items = ", ".join(translate_expr(item) for item in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"({translate_expr(expr.operand)} {keyword} ({items}))"
    if isinstance(expr, Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({translate_expr(expr.operand)} {keyword} "
            f"{translate_expr(expr.low)} AND "
            f"{translate_expr(expr.high)})"
        )
    if isinstance(expr, Aggregate):
        if isinstance(expr.argument, Star):
            argument = "*"
        else:
            argument = translate_expr(expr.argument)
        return f"{expr.func}({argument})"
    raise TypeError(f"cannot translate expression {expr!r}")


def _translate_item(item: SelectItem) -> str:
    text = translate_expr(item.expr)
    if item.alias:
        text += f" AS {quote_ident(item.alias)}"
    return text


def _select_list(stmt: SelectStmt) -> str:
    if len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star):
        return "*"
    return ", ".join(_translate_item(item) for item in stmt.items)


def translate_select(stmt: SelectStmt) -> str:
    parts = [f"SELECT {_select_list(stmt)} FROM {quote_ident(stmt.table)}"]
    if stmt.where is not None:
        parts.append(f" WHERE {translate_expr(stmt.where)}")
    if stmt.group_by:
        grouped = ", ".join(quote_ident(name) for name in stmt.group_by)
        parts.append(f" GROUP BY {grouped}")
    return "".join(parts)


def translate_update(stmt: UpdateStmt) -> str:
    assignments = ", ".join(
        f"{quote_ident(column)} = {translate_expr(expr)}"
        for column, expr in stmt.assignments
    )
    text = f"UPDATE {quote_ident(stmt.table)} SET {assignments}"
    if stmt.where is not None:
        text += f" WHERE {translate_expr(stmt.where)}"
    return text


def translate_delete(stmt: DeleteStmt) -> str:
    text = f"DELETE FROM {quote_ident(stmt.table)}"
    if stmt.where is not None:
        text += f" WHERE {translate_expr(stmt.where)}"
    return text


def translate_point_batch(stmt: SelectStmt, key: str) -> str:
    """The set-oriented form of a point-lookup SELECT (one whose plan
    has ``point_key == key``), up to the opening of its ``IN (`` hole
    list.  Unless ``*`` already carries it, the key rides along as an
    extra trailing column so fetched rows can be demultiplexed."""
    items = _select_list(stmt)
    if items != "*":
        items += f", {quote_ident(key)}"
    return (
        f"SELECT {items} FROM {quote_ident(stmt.table)} "
        f"WHERE {quote_ident(key)} IN ("
    )


def insert_full_row_sql(table: str, schema: Schema) -> str:
    """``INSERT INTO t VALUES (?, …)``: one positional hole per column,
    for rows the engine has already evaluated and coerced."""
    holes = ", ".join("?" for _ in schema)
    return f"INSERT INTO {quote_ident(table)} VALUES ({holes})"


def create_table_sql(name: str, schema: Schema) -> str:
    """CREATE TABLE text from an engine :class:`Schema`."""
    definitions = []
    for column in schema:
        text = f"{quote_ident(column.name)} {COLUMN_DECLARATION}"
        if not column.nullable:
            text += " NOT NULL"
        definitions.append(text)
    return f"CREATE TABLE {quote_ident(name)} ({', '.join(definitions)})"


def create_index_sql(
    index_name: str, table: str, column: str, unique: bool = False
) -> str:
    unique_sql = "UNIQUE " if unique else ""
    return (
        f"CREATE {unique_sql}INDEX {quote_ident(index_name)} "
        f"ON {quote_ident(table)} ({quote_ident(column)})"
    )


def translate_statement(statement: Statement) -> str:
    """Render a SELECT / UPDATE / DELETE AST as SQLite SQL text (an
    INSERT runs as :func:`insert_full_row_sql` over the plan's row)."""
    if isinstance(statement, SelectStmt):
        return translate_select(statement)
    if isinstance(statement, UpdateStmt):
        return translate_update(statement)
    if isinstance(statement, DeleteStmt):
        return translate_delete(statement)
    raise TypeError(f"cannot translate statement {statement!r}")
