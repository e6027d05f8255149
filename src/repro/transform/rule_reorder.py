"""Statement reordering (paper Section IV: Rules C1–C3, Figures 2–4).

``reorder`` eliminates every loop-carried flow dependence crossing the
split boundary of the query statement, provided the query statement does
not lie on a true-dependence cycle (Theorem 4.1).  It repeatedly picks a
crossing LCFD edge ``(v1, v2)`` and either

* moves the query statement past ``v1`` (when a true-dependence path
  ``v1 -> sq`` exists — the common case: the crossing writer feeds the
  query through the loop predicate or its arguments), or
* moves ``v2`` past the query statement.

``move_after`` swaps adjacent statements (Rule C1), shifting anti
dependences with reader/writer stubs (Rule C2) and output dependences
with writer stubs (Rule C3); stub statements are recursively pushed past
the target, reproducing the paper's Example 10 stub placement exactly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..analysis.cycles import has_true_path
from ..analysis.ddg import DDG, build_ddg, edge_crosses, external_dependences
from ..ir.defuse import (
    RenameUnsupported,
    analyze_statement,
    rename_reads,
    rename_writes,
)
from ..ir.purity import PurityEnv
from ..ir.statements import CONTROL_VAR, Guard, Stmt, find_query_call, make_stmt
from .codegen import assign_name_to_name
from .errors import REASON_EXTERNAL, REASON_RENAME, ReorderFailed
from .names import NameAllocator


@dataclass
class ReorderOutcome:
    """What the reordering pass did (reported and asserted by tests)."""

    moves: int = 0
    reader_stubs: List[str] = field(default_factory=list)
    writer_stubs: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.moves > 0 or bool(self.reader_stubs or self.writer_stubs)


@dataclass
class _Ctx:
    """State threaded through the reordering helpers."""

    purity: PurityEnv
    registry: object
    allocator: NameAllocator
    sq: Stmt
    header: Stmt
    outcome: ReorderOutcome
    #: ``(v1, var)`` while the query statement is being moved past the
    #: crossing writer ``v1`` of ``var`` (Case 1), else None.
    crossing: Optional[Tuple[Stmt, str]] = None


def reorder(
    header: Stmt,
    body: List[Stmt],
    query: Stmt,
    purity: PurityEnv,
    registry,
    allocator: NameAllocator,
) -> Tuple[List[Stmt], ReorderOutcome]:
    """Reorder ``body`` so no LCFD edge crosses the boundary of ``query``.

    Returns ``(new_body, outcome)``; ``query`` keeps its object identity
    in the new list.  Raises :class:`ReorderFailed` when blocked by
    external dependences, unrenamable variables, a crossing dependence
    that moving the query can only recreate (see
    :func:`_shift_output_dep`), or failure to converge (which Theorem
    4.1 rules out for queries off true-dependence cycles; the round
    bound is a defensive backstop).

    The movement rules rewrite statements *in place* (writer stubs
    rename the statement's writes, reader stubs its reads) while the
    restore stubs live only in the returned list, so a caller that may
    discard the result — the engine retrying another query candidate —
    must pass statements it owns (copies), not ones it will reuse.
    """
    body = list(body)
    outcome = ReorderOutcome()
    ctx = _Ctx(purity, registry, allocator, query, header, outcome)
    rounds = 0
    limit = 10 * len(body) + 50
    while True:
        ddg = build_ddg(header, body)
        qpos = body.index(query) + 1  # +1: the header occupies position 0
        crossing = [
            edge
            for edge in ddg.edges
            if edge.kind == "FD"
            and edge.loop_carried
            and not edge.external
            and edge_crosses(edge, qpos, qpos)
        ]
        if not crossing:
            return body, outcome
        rounds += 1
        if rounds > limit:
            raise ReorderFailed(
                f"no convergence after {limit} rounds; remaining crossing "
                f"edges: {[edge.label() for edge in crossing]}"
            )
        # Deterministic pick: latest writer, earliest reader.
        edge = max(crossing, key=lambda e: (e.src, -e.dst))
        v1_pos, v2_pos = edge.src, edge.dst
        if v1_pos != qpos and not has_true_path(ddg, qpos, v1_pos):
            # Case 1: move the query statement past the writer v1.
            # Legal whenever the query does not (transitively) feed v1;
            # this covers the paper's case (a v1 -> sq path implies, by
            # acyclicity, no sq -> v1 path) and also the "no path either
            # way" case, where moving the reader instead can regenerate
            # submit-side reads of the crossing variable forever.
            stmt_to_move: Stmt = query
            target = body[v1_pos - 1]
            ctx.crossing = (target, edge.var)
        else:
            # Case 2: the query feeds the crossing writer; move the
            # reader v2 past the query statement instead.
            if v2_pos == 0:
                raise ReorderFailed(
                    "crossing LCFD edge targets the loop header and the "
                    "query statement feeds its writer"
                )
            stmt_to_move = body[v2_pos - 1]
            target = query
            ctx.crossing = None
        _move_with_src_deps(body, ddg, stmt_to_move, target, ctx)


def _move_with_src_deps(
    body: List[Stmt], ddg: DDG, stmt_to_move: Stmt, target: Stmt, ctx: _Ctx
) -> None:
    """Move ``stmt_to_move`` past ``target``, first relocating every
    statement between them that is flow-dependent on ``stmt_to_move``
    (closest to the target first) — procedure ``reorder``'s inner loop."""
    if body.index(stmt_to_move) >= body.index(target):
        return
    src_deps = _flow_dependents_between(ddg, body, stmt_to_move, target)
    while src_deps:
        src_deps.sort(key=body.index)  # closest to the target last
        dependent = src_deps.pop()
        move_after(body, dependent, target, ctx)
    move_after(body, stmt_to_move, target, ctx)


def _flow_dependents_between(
    ddg: DDG, body: List[Stmt], start: Stmt, stop: Stmt
) -> List[Stmt]:
    """Statements strictly between ``start`` and ``stop`` reachable from
    ``start`` over intra-iteration flow-dependence edges."""
    start_pos = body.index(start) + 1
    stop_pos = body.index(stop) + 1
    adjacency: dict = {}
    for edge in ddg.edges:
        if edge.kind == "FD" and not edge.loop_carried and not edge.external:
            if edge.var == CONTROL_VAR:
                continue
            adjacency.setdefault(edge.src, set()).add(edge.dst)
    reachable: Set[int] = set()
    frontier = [start_pos]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if start_pos < nxt < stop_pos and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return [body[pos - 1] for pos in sorted(reachable)]


# ----------------------------------------------------------------------
# move_after (paper Figure 4)
# ----------------------------------------------------------------------


def move_after(body: List[Stmt], stmt: Stmt, target: Stmt, ctx: _Ctx) -> None:
    """Move ``stmt`` to just after ``target`` by adjacent swaps,
    shifting anti/output dependences with stubs (Rules C1/C2/C3)."""
    if body.index(stmt) >= body.index(target):
        return
    while True:
        if ctx.outcome.moves > len(body) ** 2:
            # Theorem 4.1 guarantees termination off true-dependence
            # cycles, and no statement or stub has to pass another
            # twice; this backstop converts any analysis gap into a
            # clean "not transformable" instead of a hang.
            raise ReorderFailed("statement movement budget exhausted")
        _resolve_pair(body, stmt, target, ctx)
        position = body.index(stmt)
        nxt = body[position + 1]
        body[position], body[position + 1] = nxt, stmt
        ctx.outcome.moves += 1
        if nxt is target:
            return


def _resolve_pair(body: List[Stmt], stmt: Stmt, target: Stmt, ctx: _Ctx) -> None:
    """Remove every dependence between ``stmt`` and its successor."""
    rounds = 0
    while True:
        rounds += 1
        if rounds > 60:  # defensive: each round eliminates one dependence
            raise ReorderFailed("dependence resolution did not converge")
        position = body.index(stmt)
        nxt = body[position + 1]
        external = next(external_dependences(stmt, nxt), None)
        if external:
            raise ReorderFailed(
                f"{REASON_EXTERNAL}: cannot reorder across the external "
                f"dependence on {external[1]!r}"
            )
        flow = stmt.writes & nxt.reads
        if flow:
            raise ReorderFailed(
                f"flow dependence on {sorted(flow)} between the statement "
                "being moved and its successor"
            )
        output = stmt.writes & nxt.writes
        if output:
            _shift_output_dep(body, nxt, sorted(output)[0], target, ctx)
            continue
        anti = stmt.reads & nxt.writes
        if anti:
            _shift_anti_dep(body, stmt, nxt, sorted(anti)[0], target, ctx)
            continue
        return


def _shift_output_dep(
    body: List[Stmt], nxt: Stmt, var: str, target: Stmt, ctx: _Ctx
) -> None:
    """Rule C3: rename ``nxt``'s write of ``var`` to a temp, restore it
    with a stub, and push the stub past the target (the paper's
    ``moveAfter(as'v, t)`` — without it the moving statement would keep
    colliding with the stub it just created).

    Refused when ``nxt`` is the crossing writer the query statement is
    being moved past and ``var`` the variable that crosses: the stub
    would restore ``var`` after the target — on the fetch side again,
    as the write that reaches the next iteration's submit side — so the
    round ends with the crossing dependence it set out to remove, and
    so does every later one, one stub longer.
    """
    if ctx.crossing == (nxt, var):
        raise ReorderFailed(
            f"moving the query past the crossing write of {var!r} takes "
            f"another write of {var!r} along; the stub restoring it "
            "recreates the crossing dependence"
        )
    temp = ctx.allocator.fresh(var)
    _rewrite_in_place(nxt, _rename_writes_checked(nxt, var, temp), ctx)
    stub_node = assign_name_to_name(var, temp)
    stub = make_stmt(stub_node, ctx.purity, ctx.registry, guards=nxt.guards)
    body.insert(body.index(nxt) + 1, stub)
    ctx.outcome.writer_stubs.append(f"{var} = {temp}")
    move_after(body, stub, target, ctx)


def _shift_anti_dep(
    body: List[Stmt], stmt: Stmt, nxt: Stmt, var: str, target: Stmt, ctx: _Ctx
) -> None:
    """Rule C2: shift the anti dependence on ``var``.

    Reader stub (snapshot ``var`` before ``stmt`` and rename its reads
    — the paper's ``temp_category``) when a delayed write of ``var``
    could cross the split boundary: that is, when the query statement,
    the loop header or any statement currently on the submit side reads
    ``var``.  A writer stub there would push the variable's definition
    past the query and recreate the crossing LCFD edge the outer loop
    just eliminated, preventing convergence.  Otherwise the paper's
    writer stub (rename ``nxt``'s write, restore after the target).
    """
    temp = ctx.allocator.fresh(var)
    qpos = body.index(ctx.sq) if ctx.sq in body else len(body)
    early_readers = var in ctx.sq.reads or var in ctx.header.reads or any(
        var in body[i].reads for i in range(qpos)
    )
    renamed = None
    if early_readers:
        try:
            renamed = rename_reads(stmt.node, var, temp)
        except RenameUnsupported:
            renamed = None
    if renamed is not None:
        # A reader stub ``temp = var`` is an *alias*, not a copy: it
        # preserves the old value only when every later write of the
        # variable is a rebinding.  A mutation (``var[0] = ...``,
        # ``var.append(...)``) would still be visible through the alias,
        # so reordering across it is refused.
        mutators = [
            other
            for other in body
            if var in (other.writes - other.du.name_writes)
        ]
        if mutators:
            raise ReorderFailed(
                f"{REASON_RENAME}: {var!r} is mutated in the loop; a "
                "reader stub cannot snapshot its value"
            )
        stub_node = assign_name_to_name(temp, var)
        stub = make_stmt(stub_node, ctx.purity, ctx.registry, guards=())
        body.insert(body.index(stmt), stub)
        _rewrite_in_place(stmt, renamed, ctx, rename_guard=(var, temp))
        ctx.outcome.reader_stubs.append(f"{temp} = {var}")
    else:
        _rewrite_in_place(nxt, _rename_writes_checked(nxt, var, temp), ctx)
        stub_node = assign_name_to_name(var, temp)
        stub = make_stmt(stub_node, ctx.purity, ctx.registry, guards=nxt.guards)
        body.insert(body.index(nxt) + 1, stub)
        ctx.outcome.writer_stubs.append(f"{var} = {temp}")
        move_after(body, stub, target, ctx)


def _rename_writes_checked(stmt: Stmt, old: str, new: str) -> ast.stmt:
    try:
        return rename_writes(stmt.node, old, new)
    except RenameUnsupported as exc:
        raise ReorderFailed(f"{REASON_RENAME}: {exc}") from exc


def _rewrite_in_place(
    stmt: Stmt,
    new_node: ast.stmt,
    ctx: _Ctx,
    rename_guard: Optional[Tuple[str, str]] = None,
) -> None:
    """Swap ``stmt``'s AST in place (identity preserved — the algorithm
    tracks statements by object) and refresh its analysis facts."""
    stmt.node = new_node
    if rename_guard is not None:
        old, new = rename_guard
        stmt.guards = tuple(
            Guard(new, guard.value) if guard.var == old else guard
            for guard in stmt.guards
        )
    stmt.du = analyze_statement(new_node, ctx.purity, ctx.registry)
    if ctx.registry is not None:
        stmt.query = find_query_call(new_node, ctx.registry)
