"""AST construction shared by the transformation rules and the prefetch
pass — the only place an emitted node is given a source position
(:func:`located`, which each builder calls on what it builds) and the
only place a query statement is split into its submit and fetch halves
(:func:`split_query`)."""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from ..ir.nodes import children, copy_tree
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
    """``receiver.method(*args)`` on a copy of ``receiver``; the
    argument nodes are the caller's to give away."""
    return ast.Call(
        func=ast.Attribute(value=copy_tree(receiver), attr=method, ctx=ast.Load()),
        args=list(args),
        keywords=[],
    )


def split_query(
    query: QueryCall, handle_store: ast.expr, handle_load: ast.expr
) -> Tuple[ast.stmt, ast.stmt]:
    """``target = recv.execute_query(args)`` as the pair ``handle_store
    = recv.submit_query(args)`` / ``target = recv.fetch_result(
    handle_load)``.  Guards are the caller's business."""
    submit_call = copy_tree(query.call)
    submit_call.func.attr = query.spec.submit
    submit = ast.Assign(targets=[handle_store], value=submit_call)
    fetch_call = method_call(query.receiver, query.spec.fetch, [handle_load])
    if query.target is not None:
        fetch: ast.stmt = ast.Assign(
            targets=[copy_tree(query.target)], value=fetch_call
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
    """Emit one statement, wrapping it in ``if`` when guarded.  The node
    is moved, not copied: fission emits each statement of the loop it
    replaces once, and a refused loop is kept whole."""
    test = guard_test(stmt.guards)
    if test is None:
        return located(stmt.node)
    wrapped = ast.If(test=test, body=[stmt.node], orelse=[])
    return located(wrapped)


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
    """Position a generated node and every unpositioned node below it.

    The node keeps its position when it has one (line 1 otherwise), and
    an unpositioned node below takes its parent's, as
    ``ast.fix_missing_locations`` would give it.  The descent stops at a
    positioned node: every builder calls this on what it builds, so a
    positioned node never holds an unpositioned one, and each generated
    node is positioned once — no pass re-walks a finished result, a
    moved loop body or the module."""
    _position(node, (1, 0, 1, 0))
    return node


def _position(node: ast.AST, at: Tuple[int, int, int, int]) -> None:
    if "lineno" in node._attributes:
        if hasattr(node, "lineno"):
            at = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
        else:
            node.lineno, node.col_offset, node.end_lineno, node.end_col_offset = at
    for child in children(node):
        if not hasattr(child, "lineno"):
            _position(child, at)
