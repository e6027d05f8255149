"""Expression evaluation with SQL NULL semantics — row- and batch-wise.

Comparisons involving NULL yield None (unknown); logical operators use
three-valued logic; a WHERE clause accepts a row only when the predicate
is strictly True.

:class:`RowEvaluator` interprets the AST once per row (constants,
INSERT/UPDATE values, the fallback below).
:class:`ColumnarEvaluator` is the vectorized counterpart:
it filters *selection vectors* (row-id sequences) against whole column
lists — one comprehension per predicate conjunct instead of one AST walk
per row — and gathers projection values column-at-a-time.  Expressions
without a single-column fast path fall back to the row evaluator over a
lazy column-backed row view, so three-valued-logic semantics are
identical by construction.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..errors import PlanError, UnknownColumnError
from ..sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Literal,
    LogicalOp,
    NotOp,
    Param,
    Star,
)
from ..types import Row, Schema


class RowEvaluator:
    """Evaluates expressions against rows of one schema."""

    def __init__(self, schema: Schema, table: str, params: Sequence) -> None:
        self._schema = schema
        self._table = table
        self._params = params

    def evaluate(self, expr: Expr, row: Row) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Param):
            return self._params[expr.index]
        if isinstance(expr, ColumnRef):
            return row[self._schema.position(expr.name, self._table)]
        if isinstance(expr, BinaryOp):
            return self._binary(expr, row)
        if isinstance(expr, LogicalOp):
            return self._logical(expr, row)
        if isinstance(expr, NotOp):
            value = self.evaluate(expr.operand, row)
            return None if value is None else not _truthy(value)
        if isinstance(expr, IsNull):
            is_null = self.evaluate(expr.operand, row) is None
            return (not is_null) if expr.negated else is_null
        if isinstance(expr, InList):
            return self._in_list(expr, row)
        if isinstance(expr, Between):
            return self._between(expr, row)
        if isinstance(expr, Aggregate):
            raise PlanError("aggregate used in a row context")
        if isinstance(expr, Star):
            raise PlanError("'*' used in a scalar context")
        raise PlanError(f"cannot evaluate expression: {expr!r}")

    def matches(self, where: Optional[Expr], row: Row) -> bool:
        """WHERE acceptance: NULL (unknown) rejects the row."""
        if where is None:
            return True
        return self.evaluate(where, row) is True

    # ------------------------------------------------------------------
    def _binary(self, expr: BinaryOp, row: Row) -> Any:
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        if left is None or right is None:
            return None
        op = expr.op
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None  # SQL engines typically error; NULL keeps
                # generated workloads total, and tests pin this choice.
            result = left / right
            if isinstance(left, int) and isinstance(right, int) and result == int(result):
                return int(result)
            return result
        if op == "%":
            if right == 0:
                return None
            return left % right
        raise PlanError(f"unknown operator: {op!r}")

    def _logical(self, expr: LogicalOp, row: Row) -> Any:
        left = self.evaluate(expr.left, row)
        if expr.op == "and":
            if left is False:
                return False
            right = self.evaluate(expr.right, row)
            if left is None:
                return None if right is not False else False
            return right if not isinstance(right, bool) else (left is True and right)
        if expr.op == "or":
            if left is True:
                return True
            right = self.evaluate(expr.right, row)
            if left is None:
                return None if right is not True else True
            return right
        raise PlanError(f"unknown logical operator: {expr.op!r}")

    def _in_list(self, expr: InList, row: Row) -> Any:
        value = self.evaluate(expr.operand, row)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = self.evaluate(item, row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if expr.negated else True
        if saw_null:
            return None
        return True if expr.negated else False

    def _between(self, expr: Between, row: Row) -> Any:
        value = self.evaluate(expr.operand, row)
        low = self.evaluate(expr.low, row)
        high = self.evaluate(expr.high, row)
        if value is None or low is None or high is None:
            return None
        inside = low <= value <= high
        return (not inside) if expr.negated else inside


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    return bool(value)


def and_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a top-level AND tree into its conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, LogicalOp) and expr.op == "and":
        return and_conjuncts(expr.left) + and_conjuncts(expr.right)
    return [expr]


def has_column_ref(expr: Expr) -> bool:
    """True when evaluating ``expr`` reads any row column."""
    if isinstance(expr, (Literal, Param)):
        return False
    if isinstance(expr, ColumnRef):
        return True
    if isinstance(expr, (BinaryOp, LogicalOp)):
        return has_column_ref(expr.left) or has_column_ref(expr.right)
    if isinstance(expr, NotOp):
        return has_column_ref(expr.operand)
    if isinstance(expr, IsNull):
        return has_column_ref(expr.operand)
    if isinstance(expr, InList):
        return has_column_ref(expr.operand) or any(
            has_column_ref(item) for item in expr.items
        )
    if isinstance(expr, Between):
        return (
            has_column_ref(expr.operand)
            or has_column_ref(expr.low)
            or has_column_ref(expr.high)
        )
    return True  # Aggregate/Star/unknown: stay conservative


class _ColumnCursor:
    """Lazy row facade over column storage: ``row[pos]`` reads
    ``columns[pos][rid]`` — lets :class:`RowEvaluator` run unmodified
    over columnar data without materializing a tuple per row."""

    __slots__ = ("columns", "rid")

    def __init__(self, columns: Tuple[List[Any], ...]) -> None:
        self.columns = columns
        self.rid = 0

    def __getitem__(self, position: int) -> Any:
        return self.columns[position][self.rid]


class ColumnarEvaluator:
    """Vectorized evaluation of one statement's expressions over one
    table's column lists.

    Not thread-safe: create one per statement execution (the generic
    fallback shares a mutable cursor).
    """

    def __init__(
        self,
        schema: Schema,
        table: str,
        params: Sequence,
        columns: Tuple[List[Any], ...],
    ) -> None:
        self._schema = schema
        self._table = table
        self._columns = columns
        self._rows = RowEvaluator(schema, table, params)
        self._cursor = _ColumnCursor(columns)

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def filter(self, where: Optional[Expr], sel: Sequence[int]) -> Sequence[int]:
        """Narrow a selection vector to the rows where ``where`` is
        strictly True.  Top-level AND decomposes into conjuncts — each
        narrows the vector before the next runs (short-circuit across
        the batch rather than per row)."""
        if where is None:
            return sel
        for conjunct in and_conjuncts(where):
            if not sel:
                break
            sel = self._filter_one(conjunct, sel)
        return sel

    def _filter_one(self, expr: Expr, sel: Sequence[int]) -> List[int]:
        if isinstance(expr, BinaryOp):
            fast = self._filter_comparison(expr, sel)
            if fast is not None:
                return fast
        elif isinstance(expr, IsNull):
            operand = self._column_of(expr.operand)
            if operand is not None:
                if expr.negated:
                    return [rid for rid in sel if operand[rid] is not None]
                return [rid for rid in sel if operand[rid] is None]
        elif isinstance(expr, InList):
            fast = self._filter_in_list(expr, sel)
            if fast is not None:
                return fast
        elif isinstance(expr, Between):
            fast = self._filter_between(expr, sel)
            if fast is not None:
                return fast
        # Generic fallback: the row evaluator over a lazy column cursor —
        # identical 3VL semantics, no tuple materialization.
        cursor = self._cursor
        evaluate = self._rows.evaluate
        out: List[int] = []
        for rid in sel:
            cursor.rid = rid
            if evaluate(expr, cursor) is True:
                out.append(rid)
        return out

    def _filter_comparison(
        self, expr: BinaryOp, sel: Sequence[int]
    ) -> Optional[List[int]]:
        """``column <op> constant`` (either side) in one comprehension.

        Returns None when the shape doesn't match (caller falls back).
        """
        op = expr.op
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return None
        column = self._column_of(expr.left)
        if column is not None and not has_column_ref(expr.right):
            const = self._rows.evaluate(expr.right, ())
        else:
            column = self._column_of(expr.right)
            if column is None or has_column_ref(expr.left):
                return None
            const = self._rows.evaluate(expr.left, ())
            op = _FLIP[op]
        if const is None:
            return []  # comparison with NULL is never True
        if op == "=":
            return [rid for rid in sel if column[rid] == const]
        if op == "<>":
            return [
                rid
                for rid in sel
                if column[rid] is not None and column[rid] != const
            ]
        if op == "<":
            return [
                rid
                for rid in sel
                if column[rid] is not None and column[rid] < const
            ]
        if op == "<=":
            return [
                rid
                for rid in sel
                if column[rid] is not None and column[rid] <= const
            ]
        if op == ">":
            return [
                rid
                for rid in sel
                if column[rid] is not None and column[rid] > const
            ]
        return [
            rid for rid in sel if column[rid] is not None and column[rid] >= const
        ]

    def _filter_in_list(
        self, expr: InList, sel: Sequence[int]
    ) -> Optional[List[int]]:
        column = self._column_of(expr.operand)
        if column is None:
            return None
        if any(has_column_ref(item) for item in expr.items):
            return None
        items = [self._rows.evaluate(item, ()) for item in expr.items]
        saw_null = any(item is None for item in items)
        candidates: Any = [item for item in items if item is not None]
        try:
            candidates = set(candidates)
        except TypeError:
            pass  # unhashable constants: linear membership keeps == semantics
        if expr.negated:
            if saw_null:
                return []  # NOT IN with a NULL item is never True
            return [
                rid
                for rid in sel
                if column[rid] is not None and column[rid] not in candidates
            ]
        return [
            rid
            for rid in sel
            if column[rid] is not None and column[rid] in candidates
        ]

    def _filter_between(
        self, expr: Between, sel: Sequence[int]
    ) -> Optional[List[int]]:
        column = self._column_of(expr.operand)
        if column is None:
            return None
        if has_column_ref(expr.low) or has_column_ref(expr.high):
            return None
        low = self._rows.evaluate(expr.low, ())
        high = self._rows.evaluate(expr.high, ())
        if low is None or high is None:
            return []
        if expr.negated:
            return [
                rid
                for rid in sel
                if column[rid] is not None and not (low <= column[rid] <= high)
            ]
        return [
            rid
            for rid in sel
            if column[rid] is not None and low <= column[rid] <= high
        ]

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def values(self, expr: Expr, sel: Sequence[int]) -> List[Any]:
        """Evaluate ``expr`` for every selected row, column-at-a-time."""
        column = self._column_of(expr)
        if column is not None:
            return [column[rid] for rid in sel]
        if not has_column_ref(expr):
            value = self._rows.evaluate(expr, ())
            return [value] * len(sel)
        cursor = self._cursor
        evaluate = self._rows.evaluate
        out: List[Any] = []
        for rid in sel:
            cursor.rid = rid
            out.append(evaluate(expr, cursor))
        return out

    def scalar(self, expr: Expr) -> Any:
        """Evaluate a row-independent expression once."""
        return self._rows.evaluate(expr, ())

    # ------------------------------------------------------------------
    def _column_of(self, expr: Expr) -> Optional[List[Any]]:
        if isinstance(expr, ColumnRef):
            return self._columns[self._schema.position(expr.name, self._table)]
        return None


_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
