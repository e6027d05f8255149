"""Readability pass: regroup guarded statements into ``if`` blocks.

Rule B turns conditional blocks into flat guarded statements so that the
dependence rules can move them individually; the transformed program
would be unreadable if left that way (the paper, Section V, adds exactly
this regrouping pass).  ``regroup`` merges *consecutive* statements that
share a guard prefix back into nested ``if``/``else`` statements.

Only adjacent statements merge — the pass never reorders, so it is
trivially semantics-preserving.
"""

from __future__ import annotations

import ast
import copy
from typing import List, Sequence

from ..ir.statements import Guard, Stmt
from .codegen import located, name_load


def regroup(stmts: Sequence[Stmt]) -> List[ast.stmt]:
    """Emit ``stmts`` with guard runs folded back into ``if`` blocks."""
    return _regroup(list(stmts), depth=0)


def _regroup(stmts: List[Stmt], depth: int) -> List[ast.stmt]:
    output: List[ast.stmt] = []
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        if len(stmt.guards) <= depth:
            output.append(_plain(stmt))
            index += 1
            continue
        guard = stmt.guards[depth]
        # Collect the run of statements guarded on the same variable at
        # this depth (both polarities — they fold into if/else).
        run_end = index
        while (
            run_end < len(stmts)
            and len(stmts[run_end].guards) > depth
            and stmts[run_end].guards[depth].var == guard.var
        ):
            run_end += 1
        run = stmts[index:run_end]
        then_branch = [s for s in run if s.guards[depth].value]
        else_branch = [s for s in run if not s.guards[depth].value]
        if _interleaved(run, depth):
            # True/false statements interleave: folding would reorder.
            # Emit them one by one instead.
            for single in run:
                output.append(_emit_single(single, depth))
        else:
            body = _regroup(then_branch, depth + 1) if then_branch else []
            orelse = _regroup(else_branch, depth + 1) if else_branch else []
            if not body:
                # if-less else: negate the test.
                test: ast.expr = ast.UnaryOp(
                    op=ast.Not(), operand=name_load(guard.var)
                )
                node = ast.If(test=test, body=orelse, orelse=[])
            else:
                node = ast.If(
                    test=name_load(guard.var), body=body, orelse=orelse
                )
            output.append(located(node))
        index = run_end
    return output


def _interleaved(run: Sequence[Stmt], depth: int) -> bool:
    """True when the run alternates guard polarity more than once
    (then folding into a single if/else would change execution order
    between the two branches' statements — which is only observable if
    they are dependent, but we stay conservative and keep source
    order)."""
    flips = 0
    previous = None
    for stmt in run:
        value = stmt.guards[depth].value
        if previous is not None and value != previous:
            flips += 1
        previous = value
    return flips > 1


def _emit_single(stmt: Stmt, depth: int) -> ast.stmt:
    node = copy.deepcopy(stmt.node)
    for guard in reversed(stmt.guards[depth:]):
        test: ast.expr = name_load(guard.var)
        if not guard.value:
            test = ast.UnaryOp(op=ast.Not(), operand=test)
        node = ast.If(test=test, body=[node], orelse=[])
    return located(node)


def _plain(stmt: Stmt) -> ast.stmt:
    return located(copy.deepcopy(stmt.node))
