"""Bounded-window (pipelined) fission — the paper's Discussion-section
extension for limiting memory overhead.

Plain Rule A materializes one record per iteration before any result is
consumed; for very long loops that is O(iterations) memory.  Wrapping
the two generated loops in a parent loop that submits at most ``window``
requests before draining them caps the record table at ``window``
entries::

    while p:                       while p:
        ...            ==>             __tab = []
                                       while p and len(__tab) < W:
                                           <submit body>
                                       <fetch loop>

For ``for`` loops the iterator is hoisted so it survives across chunks.
While-loop windowing requires a *pure* predicate (it is evaluated an
extra time per chunk); the engine refuses otherwise.
"""

from __future__ import annotations

import ast
from typing import List

from ..ir.defuse import harmless_to_reevaluate
from ..ir.nodes import copy_tree
from ..ir.purity import PurityEnv
from .codegen import located, name_load, name_store
from .errors import LoopNotTransformable, REASON_PRECONDITION
from .names import NameAllocator
from .rule_fission import FissionResult


def wrap_window(
    result: FissionResult,
    loop_node: ast.stmt,
    window: int,
    allocator: NameAllocator,
    purity: PurityEnv,
    registry,
) -> List[ast.stmt]:
    """Wrap a fission result in a bounded-window parent loop."""
    if window < 1:
        raise ValueError("window must be at least 1")
    table_init, submit_loop, fetch_loop = (
        result.nodes[0],
        result.submit_loop,
        result.fetch_loop,
    )
    tail = [node for node in result.nodes[3:]]

    if isinstance(loop_node, ast.While):
        if not harmless_to_reevaluate(loop_node.test, purity, registry):
            raise LoopNotTransformable(
                REASON_PRECONDITION,
                "bounded-window fission requires a side-effect-free loop "
                "predicate (it is re-evaluated once per window)",
            )
        bounded_test = ast.BoolOp(
            op=ast.And(),
            values=[
                copy_tree(loop_node.test),
                _len_below(result.table_var, window),
            ],
        )
        inner = ast.While(
            test=bounded_test, body=list(submit_loop.body), orelse=[]
        )
        outer = ast.While(
            test=copy_tree(loop_node.test),
            body=[copy_tree(table_init), inner, fetch_loop, *tail],
            orelse=[],
        )
        nodes = [located(outer)]
    elif isinstance(loop_node, ast.For):
        iterator_var = allocator.fresh("__async_iter")
        hoist = ast.Assign(
            targets=[name_store(iterator_var)],
            value=ast.Call(
                func=name_load("iter"),
                args=[copy_tree(loop_node.iter)],
                keywords=[],
            ),
        )
        chunk_body = list(submit_loop.body) + [
            ast.If(
                test=_len_at_least(result.table_var, window),
                body=[ast.Break()],
                orelse=[],
            )
        ]
        chunk_loop = ast.For(
            target=copy_tree(loop_node.target),
            iter=name_load(iterator_var),
            body=chunk_body,
            orelse=[],
        )
        stop = ast.If(
            test=_len_below(result.table_var, window),
            body=[ast.Break()],
            orelse=[],
        )
        outer = ast.While(
            test=ast.Constant(value=True),
            body=[copy_tree(table_init), chunk_loop, fetch_loop, *tail, stop],
            orelse=[],
        )
        nodes = [located(hoist), located(outer)]
    else:  # pragma: no cover - the engine only passes loops
        raise TypeError(f"not a loop: {loop_node!r}")
    return nodes


def _len_call(table_var: str) -> ast.Call:
    return ast.Call(func=name_load("len"), args=[name_load(table_var)], keywords=[])


def _len_below(table_var: str, window: int) -> ast.Compare:
    return ast.Compare(
        left=_len_call(table_var),
        ops=[ast.Lt()],
        comparators=[ast.Constant(value=window)],
    )


def _len_at_least(table_var: str, window: int) -> ast.Compare:
    return ast.Compare(
        left=_len_call(table_var),
        ops=[ast.GtE()],
        comparators=[ast.Constant(value=window)],
    )
