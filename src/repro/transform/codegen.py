"""AST construction shared by the transformation rules and the prefetch
pass — the only place emitted nodes are given a source position
(:func:`located`) and the only place a query statement is split into
its submit and fetch halves (:func:`split_query`)."""

from __future__ import annotations

import ast
import copy
from typing import List, Optional, Sequence, Tuple

from ..ir.statements import Guard, QueryCall, Stmt


def name_load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def name_store(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Store())


def const(value) -> ast.Constant:
    return ast.Constant(value=value)


def assign(target: str, value: ast.expr) -> ast.Assign:
    node = ast.Assign(targets=[name_store(target)], value=value)
    return located(node)


def assign_name_to_name(target: str, source: str) -> ast.Assign:
    return assign(target, name_load(source))


def subscript_store(base: str, key: str, value: ast.expr) -> ast.Assign:
    node = ast.Assign(
        targets=[
            ast.Subscript(
                value=name_load(base), slice=const(key), ctx=ast.Store()
            )
        ],
        value=value,
    )
    return located(node)


def subscript_load(base: str, key: str) -> ast.Subscript:
    return ast.Subscript(value=name_load(base), slice=const(key), ctx=ast.Load())


def key_in_record(key: str, record: str) -> ast.Compare:
    return ast.Compare(
        left=const(key), ops=[ast.In()], comparators=[name_load(record)]
    )


def empty_list_assign(target: str) -> ast.Assign:
    return assign(target, ast.List(elts=[], ctx=ast.Load()))


def empty_dict_assign(target: str) -> ast.Assign:
    return assign(target, ast.Dict(keys=[], values=[]))


def append_call(list_name: str, value_name: str) -> ast.Expr:
    node = ast.Expr(
        value=ast.Call(
            func=ast.Attribute(
                value=name_load(list_name), attr="append", ctx=ast.Load()
            ),
            args=[name_load(value_name)],
            keywords=[],
        )
    )
    return located(node)


def method_call(receiver: ast.expr, method: str, args: Sequence[ast.expr]) -> ast.Call:
    return ast.Call(
        func=ast.Attribute(value=copy.deepcopy(receiver), attr=method, ctx=ast.Load()),
        args=[copy.deepcopy(argument) for argument in args],
        keywords=[],
    )


def split_query(
    query: QueryCall, handle_store: ast.expr, handle_load: ast.expr
) -> Tuple[ast.stmt, ast.stmt]:
    """``target = recv.execute_query(args)`` as the pair ``handle_store
    = recv.submit_query(args)`` / ``target = recv.fetch_result(
    handle_load)``.  Guards are the caller's business."""
    submit_call = copy.deepcopy(query.call)
    submit_call.func.attr = query.spec.submit
    submit = ast.Assign(targets=[handle_store], value=submit_call)
    fetch_call = method_call(query.receiver, query.spec.fetch, [handle_load])
    if query.target is not None:
        fetch: ast.stmt = ast.Assign(
            targets=[copy.deepcopy(query.target)], value=fetch_call
        )
    else:
        fetch = ast.Expr(value=fetch_call)
    return located(submit), located(fetch)


def guard_test(guards: Sequence[Guard]) -> Optional[ast.expr]:
    """``(g1 and not g2 and ...)`` or None for unguarded statements."""
    if not guards:
        return None
    terms: List[ast.expr] = []
    for guard in guards:
        term: ast.expr = name_load(guard.var)
        if not guard.value:
            term = ast.UnaryOp(op=ast.Not(), operand=term)
        terms.append(term)
    if len(terms) == 1:
        return terms[0]
    return ast.BoolOp(op=ast.And(), values=terms)


def emit_stmt(stmt: Stmt) -> ast.stmt:
    """Emit one statement, wrapping it in ``if`` when guarded."""
    node = copy.deepcopy(stmt.node)
    test = guard_test(stmt.guards)
    if test is None:
        return located(node)
    wrapped = ast.If(test=test, body=[node], orelse=[])
    return located(wrapped)


def emit_block(stmts: Sequence[Stmt]) -> List[ast.stmt]:
    """Emit statements one by one (no guard regrouping)."""
    return [emit_stmt(stmt) for stmt in stmts]


def if_stmt(test: ast.expr, body: List[ast.stmt], orelse: Optional[List[ast.stmt]] = None) -> ast.If:
    node = ast.If(test=test, body=body, orelse=orelse or [])
    return located(node)


def unless_unbound(stmt: ast.stmt) -> ast.Try:
    """``try: stmt`` / ``except NameError: pass``."""
    handler = ast.ExceptHandler(
        type=name_load("NameError"), name=None, body=[ast.Pass()]
    )
    return located(
        ast.Try(body=[stmt], handlers=[handler], orelse=[], finalbody=[])
    )


def located(node: ast.AST) -> ast.AST:
    """Position a generated node: line 1 unless it already has a line,
    its children filled in from it."""
    if not hasattr(node, "lineno"):
        node.lineno = 1
        node.col_offset = 0
    return ast.fix_missing_locations(node)
