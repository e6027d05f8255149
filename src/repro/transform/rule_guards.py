"""Rule B: converting control dependences into flow dependences.

``if p: ss1 else: ss2`` becomes::

    cv = p
    (cv == true)?  ss1[0] ... ss1[k]
    (cv == false)? ss2[0] ... ss2[m]

In this implementation the guard predicate is stored on each
:class:`~repro.ir.statements.Stmt` (the ``guards`` tuple) rather than in
the syntax; code generation re-materializes ``if`` statements, and the
readability pass groups consecutive same-guard statements back together
(paper Section V).

Conditionals that contain loops are *not* flattened — a guarded loop is
not expressible statement-by-statement — and are kept as composite
statements; the nested-loop rule or a blocked-reason report handles
them.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..ir.statements import Guard, StatementFacts, Stmt
from .codegen import assign
from .names import NameAllocator


def flatten_block(
    nodes: List[ast.stmt],
    facts: StatementFacts,
    allocator: NameAllocator,
    guards: Tuple[Guard, ...] = (),
) -> List[Stmt]:
    """Flatten a statement list into guarded statements (Rule B).

    Every ``if`` whose branches are loop-free becomes a guard-variable
    assignment followed by guarded statements; other statements become
    plain (or composite) :class:`Stmt` objects under ``guards``.  Each
    node is analyzed through ``facts``, the transform's memo.
    """
    result: List[Stmt] = []
    for node in nodes:
        if isinstance(node, ast.If) and not facts.contains_loop(node):
            result.extend(_flatten_if(node, facts, allocator, guards))
        else:
            result.append(facts.stmt(node, guards))
    return result


def _flatten_if(
    node: ast.If,
    facts: StatementFacts,
    allocator: NameAllocator,
    guards: Tuple[Guard, ...],
) -> List[Stmt]:
    guard_var = allocator.fresh("__cv")
    guard_assign = facts.stmt(assign(guard_var, node.test), guards)
    result = [guard_assign]
    then_guards = guards + (Guard(guard_var, True),)
    else_guards = guards + (Guard(guard_var, False),)
    result.extend(flatten_block(node.body, facts, allocator, then_guards))
    result.extend(flatten_block(node.orelse, facts, allocator, else_guards))
    return result
