"""Normalization: hoist embedded query calls into their own statements.

The rules pattern-match ``v = recv.execute_query(...)`` — the shape the
paper's Jimple intermediate form guarantees.  Idiomatic Python chains
instead: ``total += conn.execute_query(q).scalar()``.  This pass
rewrites such statements to::

    __qres_1 = conn.execute_query(q)
    total += __qres_1.scalar()

which is exactly the three-address normalization SOOT performed for the
paper's tool ("robustness for variations in intermediate code",
Section V).

Hoisting is only legal when it cannot change behaviour:

* exactly one query call in the statement,
* the call is evaluated unconditionally (not under ``and``/``or``/
  ternary/comprehension/lambda), and
* every call evaluated *before* it in Python's left-to-right order is
  pure (so executing the query first is unobservable).
"""

from __future__ import annotations

import ast
import copy
from typing import Iterator, List, Optional

from ..ir.defuse import harmless_to_reevaluate
from ..ir.nodes import rebuilt
from ..ir.purity import PurityEnv
from ..ir.statements import StatementFacts, query_calls
from .codegen import located
from .names import NameAllocator

#: Nodes under which evaluation is conditional or repeated.
_CONDITIONAL_CONTEXTS = (
    ast.BoolOp,
    ast.IfExp,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def normalize_block(
    nodes: List[ast.stmt],
    facts: StatementFacts,
    allocator: NameAllocator,
) -> List[ast.stmt]:
    """Hoist embedded query calls in a statement list (recursing into
    ``if`` branches; nested loops are normalized when the engine visits
    them).  An ``if`` whose branch changed is a new node: the memo may
    hold the old one as analyzed."""
    output: List[ast.stmt] = []
    for node in nodes:
        if isinstance(node, ast.If):
            node = rebuilt(
                node,
                body=normalize_block(node.body, facts, allocator),
                orelse=normalize_block(node.orelse, facts, allocator),
            )
            output.append(node)
            continue
        output.extend(normalize_statement(node, facts, allocator))
    return output


def normalize_statement(
    node: ast.stmt,
    facts: StatementFacts,
    allocator: NameAllocator,
) -> List[ast.stmt]:
    """Return ``node`` or its hoisted replacement statements.  The
    transform's memo says first whether ``node`` holds a query call
    other than a top-level one (what Rule B's flattening asks next); a
    rewritten statement is a new node, so the memo's answer for
    ``node`` stays true."""
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr)):
        return [node]
    query = facts.query(node)
    value = getattr(node, "value", None)
    if query is None or query.top_level or value is None:
        return [node]
    calls = query_calls(value, facts.registry)
    if len(calls) != 1:
        return [node]
    call, _spec = calls[0]
    if value is call and isinstance(node, (ast.Assign, ast.Expr)):
        return [node]  # a top-level call under a target Rule A cannot split
    if not _hoistable(value, call, facts.purity, facts.registry):
        return [node]
    temp = allocator.fresh("__qres")
    # The call moves into its own statement; the rest of ``node`` keeps a
    # name for it, positioned where the call was.
    hoisted = ast.Assign(targets=[ast.Name(id=temp, ctx=ast.Store())], value=call)
    name = ast.copy_location(ast.Name(id=temp, ctx=ast.Load()), call)
    return [located(ast.copy_location(hoisted, node)), _replaced(node, call, name)]


def _hoistable(value: ast.expr, call: ast.Call, purity: PurityEnv, registry) -> bool:
    # 1. unconditional evaluation: no conditional context on the path
    if _under_conditional(value, call):
        return False
    # 2. every call evaluated before the query call must be pure
    for earlier in _calls_in_eval_order(value):
        if earlier is call:
            return True
        if not harmless_to_reevaluate(earlier, purity, registry):
            return False
    return False  # pragma: no cover - call is always found


def _under_conditional(root: ast.expr, target: ast.Call) -> bool:
    """Is ``target`` nested under a short-circuit / repeated context?"""

    def walk(node: ast.AST, conditional: bool) -> Optional[bool]:
        if node is target:
            return conditional
        nested = conditional or isinstance(node, _CONDITIONAL_CONTEXTS)
        for child in ast.iter_child_nodes(node):
            found = walk(child, nested)
            if found is not None:
                return found
        return None

    result = walk(root, False)
    return bool(result)


def _calls_in_eval_order(node: ast.AST) -> Iterator[ast.Call]:
    """Calls of an expression in Python's left-to-right evaluation order
    (approximated by a depth-first in-order walk, which matches CPython
    for the node types we hoist across)."""
    if isinstance(node, ast.Call):
        yield from _calls_in_eval_order(node.func)
        for argument in node.args:
            yield from _calls_in_eval_order(argument)
        for keyword in node.keywords:
            yield from _calls_in_eval_order(keyword.value)
        yield node
        return
    for child in ast.iter_child_nodes(node):
        yield from _calls_in_eval_order(child)


def _replaced(node: ast.AST, target: ast.AST, replacement: ast.AST) -> ast.AST:
    """``node`` with ``target`` (somewhere below it) replaced: shallow
    copies of the nodes on the path down to it, every other subtree
    shared; ``node`` itself when ``target`` is not below it."""
    if node is target:
        return replacement
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, ast.AST):
            new = _replaced(value, target, replacement)
            if new is not value:
                clone = copy.copy(node)
                setattr(clone, name, new)
                return clone
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, ast.AST):
                    new = _replaced(item, target, replacement)
                    if new is not item:
                        clone = copy.copy(node)
                        items = list(value)
                        items[index] = new
                        setattr(clone, name, items)
                        return clone
    return node
