"""Rule A: loop fission for asynchronous query submission.

Splits one loop at a query execution statement into a *submit loop* and
a *fetch loop*::

    while p:                      __tab = []
        ss1                       while p:
        v = recv.execute_query(q)     __rec = {}
        ss2                           ss1 (+ spills of split variables)
                          ==>          __rec["__h"] = recv.submit_query(q)
                                      __tab.append(__rec)
                                  for __rec in __tab:
                                      (conditional restores of split vars)
                                      v = recv.fetch_result(__rec["__h"])
                                      ss2

Split variables (the state each fetch iteration needs from its submit
iteration) are spilled into one dict per iteration, immediately after
each write and under the same guard, and restored conditionally —
exactly the paper's record-table construction (records are plain dicts
for readability; :mod:`repro.runtime.records` offers the class-based
equivalent for hand-written code).

A split variable whose submit-side writes are *all* guarded needs care:
restoring only "when the guard fired" would leave the fetch iterations
*before the first firing write* reading whatever value the completed
submit loop left behind, not the value those iterations actually
observed.  When every fetch-side read of the variable is itself guarded
by (at least) each writer's guard conjunction — the shape Rule B's
nested-guard flattening produces — the presence-based restore is sound:
a read only executes in iterations whose record carries the value.
Otherwise the variable is captured unconditionally at the end of the
submit half (its value there is exactly the read-point value, since
only the submit side writes it — fission refuses when the fetch side
writes it too).  The capture is wrapped in a ``NameError`` guard so a
variable that is still unbound in early iterations does not fault at
capture time; the restore's else-branch *unbinds* the variable in
those iterations, so a fetch-side read executes against exactly the
binding state the original iteration had — including faulting with
``UnboundLocalError`` where the original did.

The same machinery with ``query=None`` splits a loop at an arbitrary
boundary, which is how nested-loop fission (paper Example 5) splits the
outer loop between the inner submit and fetch loops.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..analysis.ddg import DDG, build_ddg, edge_crosses
from ..ir.defuse import base_name
from ..ir.purity import PurityEnv
from ..ir.statements import CONTROL_VAR, ROLE_ATTR, Stmt
from .codegen import (
    append_call,
    const,
    emit_stmt,
    empty_dict_assign,
    empty_list_assign,
    guard_test,
    if_stmt,
    key_in_record,
    located,
    name_load,
    name_store,
    split_query,
    subscript_load,
    subscript_store,
    unless_unbound,
)
from .errors import (
    REASON_PRECONDITION,
    REASON_RECEIVER_WRITTEN,
    LoopNotTransformable,
)
from .names import NameAllocator
from .readability import regroup

#: Roles attached (under ``ROLE_ATTR``) to generated nodes so the
#: nested-loop rule can find the submit/fetch pair when it later
#: transforms an enclosing loop.
ROLE_TABLE = "table-init"
ROLE_SUBMIT = "submit-loop"
ROLE_FETCH = "fetch-loop"


@dataclass
class FissionResult:
    nodes: List[ast.stmt]
    submit_loop: ast.stmt
    fetch_loop: ast.stmt
    table_var: str
    record_var: str
    fetch_record_var: str
    split_vars: List[str]
    handle_key: Optional[str]


# ----------------------------------------------------------------------
# preconditions (Rule A's LHS conditions (a) and (b))
# ----------------------------------------------------------------------


def check_preconditions(
    ddg: DDG, split_pos: int, query_pos: Optional[int]
) -> Optional[str]:
    """Return a human-readable violation, or None when fission is legal.

    (a) no loop-carried flow dependence (program-variable or external)
        may cross the split boundary;
    (b) no loop-carried external anti or output dependence may cross —
        and none may touch the query statement itself: asynchronous
        submissions complete in arbitrary relative order, so an ordered
        external read/write involving the async call is unsafe anywhere
        in the loop (commuting writes never generate these edges).
    """
    for edge in ddg.edges:
        if not edge.loop_carried:
            continue
        incident_to_query = query_pos is not None and (
            edge.src == query_pos or edge.dst == query_pos
        )
        if edge.external and edge.kind in ("AD", "OD") and incident_to_query:
            return (
                f"loop-carried external {edge.kind} dependence on "
                f"{edge.var!r} involves the asynchronous call "
                f"(s{edge.src} -> s{edge.dst}); completion order is not "
                "preserved"
            )
        if not edge_crosses(edge, split_pos, query_pos):
            continue
        if edge.kind == "FD":
            kind = "external " if edge.external else ""
            return (
                f"loop-carried {kind}flow dependence on {edge.var!r} "
                f"crosses the split boundary (s{edge.src} -> s{edge.dst})"
            )
        if edge.external and edge.kind in ("AD", "OD"):
            return (
                f"loop-carried external {edge.kind} dependence on "
                f"{edge.var!r} crosses the split boundary "
                f"(s{edge.src} -> s{edge.dst})"
            )
    return None


def split_variables(
    ddg: DDG,
    header: Stmt,
    body: Sequence[Stmt],
    split_index: int,
    query: Optional[Stmt],
) -> Set[str]:
    """The split-variable set SV of Rule A.

    Variables with a loop-carried anti or output dependence crossing the
    boundary, plus (equivalently under a conservative analysis, and kept
    as a belt-and-braces union) every variable read on the fetch side
    and written on the submit side.
    """
    split_pos = split_index + 1
    query_pos = split_pos if query is not None else None
    names: Set[str] = set()
    for edge in ddg.edges:
        if edge.external or not edge.loop_carried:
            continue
        if edge.kind in ("AD", "OD") and edge_crosses(edge, split_pos, query_pos):
            names.add(edge.var)
    fetch_side = body[split_index + 1 :]
    submit_side = body[: split_index + (0 if query is not None else 1)]
    fetch_reads: Set[str] = set()
    for stmt in fetch_side:
        fetch_reads.update(stmt.reads)
    submit_writes: Set[str] = set(header.writes)
    for stmt in submit_side:
        submit_writes.update(stmt.writes)
    names.update(fetch_reads & submit_writes)
    names.discard(CONTROL_VAR)
    # SV only transports values produced on the submit side.
    names &= submit_writes
    return names


# ----------------------------------------------------------------------
# fission proper
# ----------------------------------------------------------------------


def fission(
    loop_node: ast.stmt,
    header: Stmt,
    body: List[Stmt],
    split_index: int,
    query: Optional[Stmt],
    purity: PurityEnv,
    registry,
    allocator: NameAllocator,
    ddg: Optional[DDG] = None,
) -> FissionResult:
    """Apply Rule A (or the positional variant for nested loops).

    ``split_index`` is the body index of the query statement, or — when
    ``query`` is None — the index of the last statement that stays in
    the submit loop.  Preconditions must have been checked already
    (:func:`check_preconditions`); this function re-checks defensively,
    on ``ddg`` when the caller already holds the graph of ``header`` +
    ``body``.  The body's statement nodes move into the result, not
    copies of them; every refusal comes before the first one moves, so
    a refused loop is left whole.
    """
    if ddg is None:
        ddg = build_ddg(header, body)
    split_pos = split_index + 1
    query_pos = split_pos if query is not None else None
    violation = check_preconditions(ddg, split_pos, query_pos)
    if violation:
        raise LoopNotTransformable(REASON_PRECONDITION, violation)

    split_vars = split_variables(ddg, header, body, split_index, query)
    _check_spillable(header, body, split_index, query, split_vars)

    table_var = allocator.fresh("__async_tab")
    record_var = allocator.fresh("__async_rec")
    # The fetch loop iterates under a *different* variable so the two
    # generated loops share only the table — otherwise the nested-loop
    # rule would see a spurious record-variable dependence between them.
    fetch_record_var = allocator.fresh("__async_rec")
    handle_key = "__handle" if query is not None else None

    if query is not None:
        ss1 = body[:split_index]
        ss2 = body[split_index + 1 :]
        _check_receiver(query, header, body)
        submit, fetch = split_query(
            query.query,
            ast.Subscript(
                value=name_load(record_var), slice=const(handle_key), ctx=ast.Store()
            ),
            subscript_load(fetch_record_var, handle_key),
        )
    else:
        ss1 = body[: split_index + 1]
        ss2 = body[split_index + 1 :]

    guarded_vars = _guarded_only_vars(header, ss1, ss2, split_vars)

    # ---------------- submit loop ----------------
    loop1_body: List[ast.stmt] = [empty_dict_assign(record_var)]
    for var in sorted(split_vars & header.writes - guarded_vars):
        loop1_body.append(subscript_store(record_var, var, name_load(var)))
    for stmt in ss1:
        loop1_body.append(emit_stmt(stmt))
        written = sorted(stmt.writes & split_vars - guarded_vars)
        for var in written:
            spill = subscript_store(record_var, var, name_load(var))
            test = guard_test(stmt.guards)
            loop1_body.append(if_stmt(test, [spill]) if test is not None else spill)
    for var in sorted(guarded_vars):
        # Conditionally-written split variable with an uncovered fetch-
        # side read: capture the value every iteration (see the module
        # docstring) — when no guard fired yet, that is the pre-loop
        # value the fetch iteration must see.
        spill = subscript_store(record_var, var, name_load(var))
        loop1_body.append(unless_unbound(spill))
    if query is not None:
        test = guard_test(query.guards)
        loop1_body.append(if_stmt(test, [submit]) if test is not None else submit)
    loop1_body.append(append_call(table_var, record_var))

    submit_loop = _clone_loop_with_body(loop_node, loop1_body)
    setattr(submit_loop, ROLE_ATTR, ROLE_SUBMIT)

    # ---------------- fetch loop ----------------
    loop2_body: List[ast.stmt] = []
    for var in sorted(split_vars):
        restore = if_stmt(
            key_in_record(var, fetch_record_var),
            [ast.Assign(targets=[name_store(var)],
                        value=subscript_load(fetch_record_var, var))],
        )
        if var in guarded_vars:
            # A missing key means the variable was unbound at this point
            # of the original iteration (the capture hit NameError):
            # unbind it so a fetch-side read faults exactly as the
            # original did, instead of silently reading a later
            # iteration's value.
            restore.orelse = [
                unless_unbound(ast.Delete(targets=[ast.Name(id=var, ctx=ast.Del())]))
            ]
        loop2_body.append(restore)
    if query is not None:
        if query.guards:
            # Handle presence encodes "the guard held at submit time".
            fetch = if_stmt(key_in_record(handle_key, fetch_record_var), [fetch])
        loop2_body.append(fetch)
    loop2_body.extend(regroup(ss2))

    fetch_loop = ast.For(
        target=name_store(fetch_record_var),
        iter=name_load(table_var),
        body=loop2_body or [ast.Pass()],
        orelse=[],
    )
    located(fetch_loop)
    setattr(fetch_loop, ROLE_ATTR, ROLE_FETCH)

    table_init = empty_list_assign(table_var)
    setattr(table_init, ROLE_ATTR, ROLE_TABLE)

    return FissionResult(
        nodes=[table_init, submit_loop, fetch_loop],
        submit_loop=submit_loop,
        fetch_loop=fetch_loop,
        table_var=table_var,
        record_var=record_var,
        fetch_record_var=fetch_record_var,
        split_vars=sorted(split_vars),
        handle_key=handle_key,
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _guarded_only_vars(
    header: Stmt,
    ss1: Sequence[Stmt],
    ss2: Sequence[Stmt],
    split_vars: Set[str],
) -> Set[str]:
    """Split variables needing the unconditional end-of-submit capture.

    A variable some submit-side statement unbinds (``del v`` — the
    restore a previous fission emitted) always qualifies: only the
    capture survives the variable being unbound.  Otherwise it
    qualifies when every submit-side write is guarded *and*
    some fetch-side read is not covered by the writers' guards: the
    presence-based restore would then leave iterations before the first
    firing write reading the submit loop's final value.  A read is
    covered when its own guard set contains each writer's guards (as
    ``(var, value)`` pairs) — Rule B emits guard conjunctions
    outermost-first, so the covering prefix short-circuits the read in
    exactly the iterations whose record lacks the value.

    The capture reconstructs the read-point value only while the submit
    side is the sole writer, so a fetch-side write of the same variable
    makes fission refuse.
    """
    guarded: Set[str] = set()
    for var in split_vars:
        writers = [stmt for stmt in ss1 if var in stmt.writes]
        if any(var in stmt.du.unbinds for stmt in writers):
            # A spill right after a ``del`` would fault, guarded or not.
            guarded.add(var)
            continue
        if var in header.writes:
            continue  # spilled unconditionally at the top of the body
        if not writers or not all(stmt.guards for stmt in writers):
            continue
        readers = [stmt for stmt in ss2 if var in stmt.reads]
        if all(
            set(writer.guards) <= set(reader.guards)
            for writer in writers
            for reader in readers
        ):
            continue
        guarded.add(var)
    for var in sorted(guarded):
        if any(var in stmt.writes for stmt in ss2):
            raise LoopNotTransformable(
                REASON_PRECONDITION,
                f"split variable {var!r} is written conditionally on the "
                "submit side and written again on the fetch side; its "
                "per-iteration value cannot be reconstructed",
            )
    return guarded


def _check_spillable(
    header: Stmt,
    body: Sequence[Stmt],
    split_index: int,
    query: Optional[Stmt],
    split_vars: Set[str],
) -> None:
    """Split variables must hold per-iteration *values*.

    A variable written by plain name bindings is always spillable.  A
    variable updated by mutation (``tab.append(...)``) is spillable only
    when each iteration rebinds it to a fresh object before any mutation
    (``tab = []`` first) — then the spilled reference is private to its
    iteration.  This is exactly the nested-table case of Example 5.
    Anything else would spill a shared reference, so fission refuses —
    always when the mutation happens in the loop header (``while
    cursor.advance():``), which runs before any statement could rebind.
    """
    header_mutated = (header.writes - header.du.name_writes) & split_vars
    if header_mutated:
        raise LoopNotTransformable(
            REASON_PRECONDITION,
            f"split variable {min(header_mutated)!r} is updated by mutation "
            "in the loop header; its value cannot be spilled",
        )
    submit_side = body[: split_index + (0 if query is not None else 1)]
    mutated_vars: Set[str] = set()
    for stmt in submit_side:
        mutated_vars.update((stmt.writes - stmt.du.name_writes) & split_vars)
    for var in sorted(mutated_vars):
        rebind_index = None
        first_mutation = None
        for index, stmt in enumerate(submit_side):
            if rebind_index is None and var in stmt.kills:
                rebind_index = index
            if first_mutation is None and var in (stmt.writes - stmt.du.name_writes):
                first_mutation = index
        if rebind_index is None or (
            first_mutation is not None and first_mutation < rebind_index
        ):
            raise LoopNotTransformable(
                REASON_PRECONDITION,
                f"split variable {var!r} is updated by mutation without a "
                "fresh per-iteration rebinding; its value cannot be spilled",
            )


def _check_receiver(query: Stmt, header: Stmt, body: Sequence[Stmt]) -> None:
    assert query.query is not None
    receiver = query.query.receiver
    if receiver is None:
        raise LoopNotTransformable(
            REASON_PRECONDITION,
            "only method-style query calls (conn.execute_query(...)) are "
            "transformable; register a method-style wrapper",
        )
    base = base_name(receiver)
    # The fetch half evaluates the receiver again: an index expression
    # would be read there without being a split variable.
    indexed = any(isinstance(node, ast.Subscript) for node in ast.walk(receiver))
    if base is None or indexed:
        raise LoopNotTransformable(
            REASON_PRECONDITION, "query receiver is not a simple variable"
        )
    writers = set(header.writes)
    for stmt in body:
        writers.update(stmt.writes)
    if base in writers:
        raise LoopNotTransformable(
            REASON_RECEIVER_WRITTEN,
            f"the query receiver {base!r} is written inside the loop",
        )


def _clone_loop_with_body(loop_node: ast.stmt, new_body: List[ast.stmt]) -> ast.stmt:
    """The submit loop: ``loop_node``'s header over ``new_body``.  The
    header's nodes move too — the original loop is replaced, and the
    window wrapper copies what it needs from it."""
    if isinstance(loop_node, ast.While):
        clone: ast.stmt = ast.While(test=loop_node.test, body=new_body, orelse=[])
    elif isinstance(loop_node, ast.For):
        clone = ast.For(
            target=loop_node.target,
            iter=loop_node.iter,
            body=new_body,
            orelse=[],
        )
    else:  # pragma: no cover - engine only passes loops
        raise TypeError(f"not a loop: {loop_node!r}")
    return located(clone)
