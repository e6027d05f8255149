"""Expression evaluation with SQL NULL semantics — row- and batch-wise.

Comparisons involving NULL yield None (unknown); logical operators use
three-valued logic; a WHERE clause accepts a row only when the predicate
is strictly True.

:class:`RowEvaluator` interprets the AST once per row (constants,
INSERT/UPDATE values, the fallback below).
:class:`Predicate` is a WHERE clause compiled once, at prepare, and
the one owner of a conjunct's shape: each top-level conjunct that tests
one column against column-free operands (comparison, IN, BETWEEN,
IS [NOT] NULL) is reduced to a column position, a test from
:data:`TESTS` and its operands, so an execution only binds constants.
The planner chooses access paths, footprints and demux buckets from
these compiled conjuncts.  Each test is generated into two batch
kernels (:func:`kernels`): one keeps row ids, one keeps the passing
values of a column slice (:func:`gather`) when only a count or the
values are wanted.  :class:`ColumnarEvaluator` runs one execution's
bound conjuncts over selection vectors (row-id sequences), each
narrowing the selection the next sees, and gathers projection values
column-at-a-time.  Conjuncts of any other shape fall back to the row
evaluator over a lazy column-backed row view, so three-valued-logic
semantics are identical by construction.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import PlanError, TypeMismatchError
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
        # Arithmetic over operands it does not apply to ('x' + 1) is the
        # value error every store raises for a value it cannot compute.
        try:
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
        except TypeError:
            raise TypeMismatchError(
                f"cannot compute {left!r} {op} {right!r}"
            ) from None
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
        """``value >= low AND value <= high`` in three-valued logic: one
        FALSE half makes it FALSE even when the other half is NULL."""
        value = self.evaluate(expr.operand, row)
        low = self.evaluate(expr.low, row)
        high = self.evaluate(expr.high, row)
        if value is None:
            return None
        above = None if low is None else value >= low
        below = None if high is None else value <= high
        if above is False or below is False:
            inside = False
        elif above is None or below is None:
            return None
        else:
            inside = True
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


def gather(column: List[Any], sel: Sequence[int]) -> List[Any]:
    """``column``'s values at the selection ``sel``: a slice when ``sel``
    is a dense batch's ``range``, a C-level ``map`` over a list."""
    if type(sel) is range:
        return column[sel.start : sel.stop : sel.step]
    return list(map(column.__getitem__, sel))


#: What a compiled conjunct asks of one column value ``v`` against its
#: bound constant ``c``.  NULL never passes; a NULL constant binds to
#: :data:`_NEVER` instead.
TESTS = {
    "=": "v == c",
    "<>": "v is not None and v != c",
    "<": "v is not None and v < c",
    "<=": "v is not None and v <= c",
    ">": "v is not None and v > c",
    ">=": "v is not None and v >= c",
    "in": "v is not None and v in c",
    "not in": "v is not None and v not in c",
    "between": "v is not None and c[0] <= v <= c[1]",
    "not between": "v is not None and not c[0] <= v <= c[1]",
    "is null": "v is None",
    "is not null": "v is not None",
}


def kernels(test: str) -> Tuple[Callable, Callable]:
    """``test`` compiled into its two batch kernels over the values
    :func:`gather` read for a selection: ``rows(sel, values, c)`` keeps
    the row ids whose value passes, ``values(values, c)`` the passing
    values themselves (a kept count, or an aggregate's input)."""
    return (
        eval(f"lambda sel, values, c: [rid for rid, v in zip(sel, values) if {test}]"),
        eval(f"lambda values, c: [v for v in values if {test}]"),
    )


_KERNELS = {shape: kernels(test) for shape, test in TESTS.items()}
_NEVER = (lambda sel, values, c: [], lambda values, c: [])
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _compile(expr: Expr, schema: Schema, table: str) -> Tuple[Any, Any, Any]:
    """One conjunct's fixed shape: ``(test name, column position,
    operands)`` when it tests one column against column-free operands,
    else ``(None, None, expr)`` for the row evaluator."""
    shape, operand, operands = None, None, ()
    if isinstance(expr, BinaryOp) and expr.op in _FLIP:
        if isinstance(expr.left, ColumnRef) and _constant(expr.right):
            shape, operand, operands = expr.op, expr.left, (expr.right,)
        elif isinstance(expr.right, ColumnRef) and _constant(expr.left):
            shape, operand, operands = _FLIP[expr.op], expr.right, (expr.left,)
    elif isinstance(expr, IsNull):
        shape, operand = ("is not null" if expr.negated else "is null"), expr.operand
    elif isinstance(expr, InList) and all(map(_constant, expr.items)):
        shape, operand = ("not in" if expr.negated else "in"), expr.operand
        operands = tuple(expr.items)
    elif isinstance(expr, Between) and _constant(expr.low) and _constant(expr.high):
        shape, operand = ("not between" if expr.negated else "between"), expr.operand
        operands = (expr.low, expr.high)
    if not isinstance(operand, ColumnRef):
        return None, None, expr
    return shape, schema.position(operand.name, table), operands


def _constant(expr: Expr) -> bool:
    """Is ``expr`` column-free: a ``?``, a literal, or arithmetic over
    them?"""
    if isinstance(expr, BinaryOp):
        return _constant(expr.left) and _constant(expr.right)
    return isinstance(expr, (Param, Literal))


def _bind(shape: str, constants: List[Any]) -> Tuple[Tuple[Callable, Callable], Any]:
    """A compiled conjunct's kernels and constant under one binding:
    :data:`_NEVER` when no row can pass (a NULL comparand or bound, NOT
    IN with a NULL item, NOT BETWEEN with both bounds NULL)."""
    if shape in ("in", "not in"):
        candidates: Any = [c for c in constants if c is not None]
        if shape == "not in" and len(candidates) < len(constants):
            return _NEVER, None
        try:
            return _KERNELS[shape], set(candidates)
        except TypeError:  # unhashable items: linear membership keeps ==
            return _KERNELS[shape], candidates
    if shape == "not between" and constants.count(None) == 1:
        # NOT BETWEEN is ``v < low OR v > high``: the non-NULL half
        # still keeps rows.
        low, high = constants
        return (_KERNELS["<"], low) if high is None else (_KERNELS[">"], high)
    if None in constants:
        return _NEVER, None
    return _KERNELS[shape], constants[0] if len(constants) == 1 else constants


class Predicate:
    """A WHERE clause compiled once, at prepare: the one place a WHERE
    conjunct's shape is decided.  Each top-level AND conjunct's column
    position, test (flipped when the column is on the right) and
    column-free operands (a ``?``, a literal, arithmetic over them; IN
    items, BETWEEN bounds) are fixed here, and per execution only the
    constants bind.  A conjunct of any other shape keeps its AST for
    the row evaluator.  The planner reads :attr:`conjuncts` for the
    access path, footprint, demux bucket and point key; an access
    operator reads the bound constant of the conjunct it serves."""

    def __init__(self, schema: Schema, table: str, where: Optional[Expr]) -> None:
        self._schema = schema
        self._table = table
        #: ``(test name, column position, operands)`` per conjunct, in
        #: statement order; ``(None, None, expr)`` for a row-evaluator one.
        self.conjuncts = [
            _compile(conjunct, schema, table) for conjunct in and_conjuncts(where)
        ]

    def bind(self, params: Sequence) -> List[Tuple[Any, Any, Any]]:
        """``(kernels, column position, constant)`` per conjunct under
        ``params``; ``(None, None, expr)`` for a row-evaluator one.  A
        ``?`` or literal operand is read directly; arithmetic is
        evaluated here, once per execution."""
        bound = []
        for shape, position, operands in self.conjuncts:
            if shape is not None:
                constants = [
                    params[o.index] if type(o) is Param
                    else o.value if type(o) is Literal
                    else RowEvaluator(self._schema, self._table, params).evaluate(o, ())
                    for o in operands
                ]
                shape, operands = _bind(shape, constants)
            bound.append((shape, position, operands))
        return bound


class ColumnarEvaluator:
    """One statement execution's evaluation over one table's column
    lists: its compiled WHERE's conjuncts as :meth:`Predicate.bind`
    bound them to the execution's parameters, and projection values
    column-at-a-time.

    Create one per statement execution: it holds that execution's
    bound constants.
    """

    def __init__(
        self,
        schema: Schema,
        table: str,
        params: Sequence,
        columns: Tuple[List[Any], ...],
        tests: List[Tuple[Any, Any, Any]],
    ) -> None:
        self._schema = schema
        self._table = table
        self._params = params
        self.columns = columns
        self._tests = tests
        #: Does a WHERE clause narrow the selections?
        self.filters = bool(self._tests)

    def keep(self, sel: Sequence[int]) -> Sequence[int]:
        """The row ids of ``sel`` the WHERE clause makes strictly True,
        in ``sel``'s order.  Each conjunct narrows the selection the
        next one sees — short-circuit across the batch, not per row."""
        return self._narrow(self._tests, sel)

    def count(self, sel: Sequence[int]) -> int:
        """``len(self.keep(sel))``; the last compiled conjunct keeps
        values rather than row ids."""
        if not self._tests:
            return len(sel)
        sel = self._narrow(self._tests[:-1], sel)
        forms, position, constant = self._tests[-1]
        if not sel or forms is None:
            return len(self._narrow(self._tests[-1:], sel))
        return len(forms[1](gather(self.columns[position], sel), constant))

    def _narrow(self, tests: List[Tuple[Any, Any, Any]], sel: Sequence[int]) -> Any:
        for forms, position, constant in tests:
            if not sel:
                break
            if forms is None:
                truths = self._per_row(constant, sel)
                sel = [rid for rid, truth in zip(sel, truths) if truth is True]
            else:
                sel = forms[0](sel, gather(self.columns[position], sel), constant)
        return sel

    def values(self, expr: Expr, sel: Sequence[int]) -> List[Any]:
        """Evaluate ``expr`` for every selected row, column-at-a-time."""
        if isinstance(expr, ColumnRef):
            position = self._schema.position(expr.name, self._table)
            return gather(self.columns[position], sel)
        return self._per_row(expr, sel)

    def _per_row(self, expr: Expr, sel: Sequence[int]) -> List[Any]:
        """The row evaluator over a lazy column cursor: identical 3VL
        semantics, no tuple materialization."""
        cursor = _ColumnCursor(self.columns)
        evaluate = RowEvaluator(self._schema, self._table, self._params).evaluate
        out: List[Any] = []
        for rid in sel:
            cursor.rid = rid
            out.append(evaluate(expr, cursor))
        return out
