"""AST -> SQLite SQL translation (parameter style kept pluggable).

The engine's SQL subset is small, but its *semantics* were pinned down
by the expression evaluator (:mod:`repro.db.plan.expr_eval`) and the
operators, not by SQLite — so translation is not string pass-through.
Three divergences are compensated here:

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
* **ORDER BY NULL placement.**  The engine sorts NULLs *last* on
  ascending keys (and therefore first on descending ones); SQLite
  defaults to NULLs first ascending.  Each key becomes two terms,
  ``(k IS NULL) dir, k dir`` — portable to SQLite versions without
  ``NULLS LAST``.

Parameter style: the engine's ``?`` placeholders are positional, but
the modulo emulation *duplicates* its operands, so positional styles
cannot express every translated statement.  Translation therefore
renders :class:`~repro.db.sql.ast_nodes.Param` nodes through a
:class:`ParamStyle`, defaulting to SQLite named parameters
(``:p0, :p1, ...``); ``pyformat`` (``%(p0)s``) is the psycopg shape a
future Postgres backend would select.  :func:`bind_params` converts a
positional binding tuple to whatever the style's placeholders expect.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from ..db.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    Expr,
    InList,
    InsertStmt,
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
from ..db.types import Schema, schema_of_defs

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


class ParamStyle:
    """How a :class:`Param` node renders and how bindings are shaped."""

    def __init__(self, name: str, template: str, named: bool) -> None:
        self.name = name
        self._template = template
        #: Named styles bind a dict (placeholders may repeat); positional
        #: styles bind the tuple as-is.
        self.named = named

    def placeholder(self, index: int) -> str:
        return self._template.format(index=index)

    def bind(self, params: Sequence) -> Union[Dict[str, Any], Sequence]:
        if self.named:
            return {f"p{index}": value for index, value in enumerate(params)}
        return tuple(params)


#: SQLite named parameters — the default; placeholders may repeat, which
#: the modulo emulation needs.
NAMED = ParamStyle("named", ":p{index}", named=True)
#: psycopg-shaped (``%(p0)s``) for a future DB-API Postgres target.
PYFORMAT = ParamStyle("pyformat", "%(p{index})s", named=True)


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


def translate_expr(expr: Expr, style: ParamStyle = NAMED) -> str:
    """Render one expression AST as SQLite SQL text."""
    if isinstance(expr, Literal):
        return quote_literal(expr.value)
    if isinstance(expr, Param):
        return style.placeholder(expr.index)
    if isinstance(expr, ColumnRef):
        return quote_ident(expr.name)
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, BinaryOp):
        left = translate_expr(expr.left, style)
        right = translate_expr(expr.right, style)
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
        left = translate_expr(expr.left, style)
        right = translate_expr(expr.right, style)
        return f"({left} {expr.op.upper()} {right})"
    if isinstance(expr, NotOp):
        return f"(NOT {translate_expr(expr.operand, style)})"
    if isinstance(expr, IsNull):
        tail = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({translate_expr(expr.operand, style)} {tail})"
    if isinstance(expr, InList):
        items = ", ".join(translate_expr(item, style) for item in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"({translate_expr(expr.operand, style)} {keyword} ({items}))"
    if isinstance(expr, Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({translate_expr(expr.operand, style)} {keyword} "
            f"{translate_expr(expr.low, style)} AND "
            f"{translate_expr(expr.high, style)})"
        )
    if isinstance(expr, Aggregate):
        if isinstance(expr.argument, Star):
            argument = "*"
        else:
            argument = translate_expr(expr.argument, style)
        if expr.distinct:
            argument = f"DISTINCT {argument}"
        return f"{expr.func}({argument})"
    raise TypeError(f"cannot translate expression {expr!r}")


def _translate_item(item: SelectItem, style: ParamStyle) -> str:
    text = translate_expr(item.expr, style)
    if item.alias:
        text += f" AS {quote_ident(item.alias)}"
    return text


def translate_order_by(stmt: SelectStmt, style: ParamStyle = NAMED) -> str:
    """ORDER BY terms with engine NULL placement (NULLs last ascending,
    first descending): each key contributes ``(k IS NULL) dir, k dir``."""
    terms = []
    for item in stmt.order_by:
        column = quote_ident(item.column)
        direction = " DESC" if item.descending else ""
        terms.append(f"({column} IS NULL){direction}, {column}{direction}")
    return ", ".join(terms)


def _select_list(stmt: SelectStmt, style: ParamStyle) -> str:
    if len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star):
        return "*"
    return ", ".join(_translate_item(item, style) for item in stmt.items)


def translate_select(stmt: SelectStmt, style: ParamStyle = NAMED) -> str:
    parts = ["SELECT "]
    if stmt.distinct:
        parts.append("DISTINCT ")
    parts.append(f"{_select_list(stmt, style)} FROM {quote_ident(stmt.table)}")
    if stmt.where is not None:
        parts.append(f" WHERE {translate_expr(stmt.where, style)}")
    if stmt.group_by:
        grouped = ", ".join(quote_ident(name) for name in stmt.group_by)
        parts.append(f" GROUP BY {grouped}")
    if stmt.order_by:
        parts.append(f" ORDER BY {translate_order_by(stmt, style)}")
    if stmt.limit is not None:
        parts.append(f" LIMIT {translate_expr(stmt.limit, style)}")
    return "".join(parts)


def translate_insert(stmt: InsertStmt, style: ParamStyle = NAMED) -> str:
    columns = ""
    if stmt.columns:
        columns = (
            " (" + ", ".join(quote_ident(name) for name in stmt.columns) + ")"
        )
    values = ", ".join(translate_expr(expr, style) for expr in stmt.values)
    return f"INSERT INTO {quote_ident(stmt.table)}{columns} VALUES ({values})"


def translate_update(stmt: UpdateStmt, style: ParamStyle = NAMED) -> str:
    assignments = ", ".join(
        f"{quote_ident(column)} = {translate_expr(expr, style)}"
        for column, expr in stmt.assignments
    )
    text = f"UPDATE {quote_ident(stmt.table)} SET {assignments}"
    if stmt.where is not None:
        text += f" WHERE {translate_expr(stmt.where, style)}"
    return text


def translate_delete(stmt: DeleteStmt, style: ParamStyle = NAMED) -> str:
    text = f"DELETE FROM {quote_ident(stmt.table)}"
    if stmt.where is not None:
        text += f" WHERE {translate_expr(stmt.where, style)}"
    return text


def translate_point_batch(
    stmt: SelectStmt, key: str, style: ParamStyle = NAMED
) -> str:
    """The set-oriented form of a point-lookup SELECT (one whose plan
    has ``point_key == key``), up to the opening of its ``IN (`` hole
    list.  Unless ``*`` already carries it, the key rides along as an
    extra trailing column so fetched rows can be demultiplexed."""
    items = _select_list(stmt, style)
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


def create_table_sql(
    name: str, schema: Schema, if_not_exists: bool = False
) -> str:
    """CREATE TABLE text from an engine :class:`Schema`."""
    definitions = []
    for column in schema:
        text = f"{quote_ident(column.name)} {COLUMN_DECLARATION}"
        if not column.nullable:
            text += " NOT NULL"
        definitions.append(text)
    exists = "IF NOT EXISTS " if if_not_exists else ""
    return (
        f"CREATE TABLE {exists}{quote_ident(name)} ({', '.join(definitions)})"
    )


def create_index_sql(
    index_name: str, table: str, column: str, unique: bool = False
) -> str:
    unique_sql = "UNIQUE " if unique else ""
    return (
        f"CREATE {unique_sql}INDEX {quote_ident(index_name)} "
        f"ON {quote_ident(table)} ({quote_ident(column)})"
    )


def translate_statement(
    statement: Statement, style: Optional[ParamStyle] = None
) -> str:
    """Render any statement AST as SQLite SQL text."""
    if style is None:
        style = NAMED
    if isinstance(statement, SelectStmt):
        return translate_select(statement, style)
    if isinstance(statement, InsertStmt):
        return translate_insert(statement, style)
    if isinstance(statement, UpdateStmt):
        return translate_update(statement, style)
    if isinstance(statement, DeleteStmt):
        return translate_delete(statement, style)
    if isinstance(statement, CreateTableStmt):
        return create_table_sql(
            statement.table,
            schema_of_defs(statement.columns),
            statement.if_not_exists,
        )
    if isinstance(statement, CreateIndexStmt):
        return create_index_sql(
            statement.index, statement.table, statement.column, statement.unique
        )
    raise TypeError(f"cannot translate statement {statement!r}")
