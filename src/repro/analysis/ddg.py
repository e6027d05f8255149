"""Data Dependence Graph construction (paper Section III-A).

Nodes are the loop header (position 0) followed by the body statements
(positions 1..n).  Edges carry their kind (FD/AD/OD), the variable or
external resource, and whether they are loop-carried.

Loop-carried flow edges use a *kill* analysis: a definition reaches the
next iteration's read only if no unconditional later write in the same
iteration (or earlier write in the next) kills it first.  Anti edges are
kept fully conservative — they feed the split-variable set, where over-
approximation costs only an unnecessary spill, never correctness.

This module owns every question about *two* statements: the variable
edges are the three set intersections in :func:`build_ddg`, and whether
two statements conflict on an external resource — wildcard barrier,
commuting exception — is :func:`external_dependences`, which the
reordering rules and the prefetch hoist call too.
"""

from __future__ import annotations

from typing import (
    FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..ir.statements import Stmt

FD = "FD"
AD = "AD"
OD = "OD"


class Edge(NamedTuple):
    """One dependence edge between node positions."""

    src: int
    dst: int
    kind: str  # FD | AD | OD
    var: str
    loop_carried: bool = False
    external: bool = False

    def label(self) -> str:
        prefix = "LC" if self.loop_carried else ""
        suffix = "*" if self.external else ""
        return f"{prefix}{self.kind}({self.var}){suffix}"


class DDG:
    """The dependence graph over one loop's header + body."""

    def __init__(self, nodes: List[Stmt], edges: List[Edge]) -> None:
        self.nodes = nodes
        self.edges = edges

    def true_edges(self) -> List[Edge]:
        """FD and loop-carried FD edges (Definition 4.1)."""
        return [edge for edge in self.edges if edge.kind == FD]


def build_ddg(header: Stmt, body: Sequence[Stmt]) -> DDG:
    """Build the DDG of one loop: header at position 0, body after it.

    Each statement's sets are read once, before the pair loops."""
    nodes: List[Stmt] = [header, *body]
    edges: List[Edge] = []
    add = edges.append
    count = len(nodes)
    reads = [node.reads for node in nodes]
    writes = [node.writes for node in nodes]
    external = [bool(node.external_reads or node.external_writes) for node in nodes]

    # ------------------------------------------------------------------
    # within-iteration edges: ordered pairs (i, j), i executes first
    # ------------------------------------------------------------------
    for i in range(count):
        reads_i, writes_i = reads[i], writes[i]
        for j in range(i + 1, count):
            for var in writes_i & reads[j]:
                add(Edge(i, j, FD, var))
            for var in reads_i & writes[j]:
                add(Edge(i, j, AD, var))
            for var in writes_i & writes[j]:
                add(Edge(i, j, OD, var))
            if external[i] and external[j]:
                _external_edges(edges, i, j, nodes[i], nodes[j], False)

    # ------------------------------------------------------------------
    # loop-carried edges: a in iteration k, b in iteration k+1
    # ------------------------------------------------------------------
    kills_after, kills_before = _kills(nodes)
    for i in range(count):
        reads_i, writes_i, after_i = reads[i], writes[i], kills_after[i]
        for j in range(count):
            # flow: a's write reaches around the back edge to b's read
            for var in writes_i & reads[j]:
                if var in after_i or var in kills_before[j]:
                    continue
                add(Edge(i, j, FD, var, True))
            # anti: a reads in iteration k, b writes in iteration k+1
            for var in reads_i & writes[j]:
                add(Edge(i, j, AD, var, True))
            # output: both write; source must reach the end of its
            # iteration for the ordering to be observable
            for var in writes_i & writes[j]:
                if var in after_i:
                    continue
                add(Edge(i, j, OD, var, True))
            # external loop-carried edges (never killed)
            if external[i] and external[j]:
                _external_edges(edges, i, j, nodes[i], nodes[j], True)

    return DDG(nodes, edges)


#: The wildcard resource written by transaction barrier calls
#: (begin/commit/rollback): conflicts with every external access.
WILDCARD = "*"


def conflicting_resources(a: frozenset, b: frozenset) -> frozenset:
    """External resources on which two access sets conflict.

    Plain sets conflict on their intersection.  The wildcard ``"*"``
    (transaction barriers) conflicts with *everything*: the result is
    then every concrete resource mentioned by either side, or the
    wildcard itself when nothing concrete appears.
    """
    if not a or not b:
        return frozenset()
    if WILDCARD in a or WILDCARD in b:
        concrete = (a | b) - {WILDCARD}
        return concrete or frozenset({WILDCARD})
    return a & b


def external_dependences(a, b) -> Iterator[Tuple[str, str]]:
    """``(kind, resource)`` for every external conflict between ``a``
    and a later ``b`` — the one test the DDG, the reordering rules and
    the prefetch hoist share.  ``a`` and ``b`` are :class:`Stmt` or
    :class:`~repro.ir.defuse.DefUse` (anything with ``external_reads``,
    ``external_writes`` and ``commuting``)."""
    for resource in conflicting_resources(a.external_writes, b.external_reads):
        yield FD, resource
    for resource in conflicting_resources(a.external_reads, b.external_writes):
        yield AD, resource
    for resource in conflicting_resources(a.external_writes, b.external_writes):
        if resource in a.commuting and resource in b.commuting:
            # Declared-commuting writes (e.g. key-distinct INSERTs) may
            # reorder freely with each other — the paper's "more
            # accurate analysis on the external writes" escape hatch.
            continue
        yield OD, resource


def _external_edges(
    edges: List[Edge], i: int, j: int, a: Stmt, b: Stmt, loop_carried: bool
) -> None:
    """The pair's external edges; the caller skips the (most) pairs in
    which one side touches no external resource."""
    for kind, resource in external_dependences(a, b):
        edges.append(Edge(i, j, kind, resource, loop_carried, external=True))


def _kills(
    nodes: Sequence[Stmt],
) -> Tuple[List[FrozenSet[str]], List[FrozenSet[str]]]:
    """``kills_after[i]``: vars unconditionally rewritten strictly after
    ``i``; ``kills_before[j]``: strictly before ``j`` (within the next
    iteration, header included)."""
    kills = [node.kills for node in nodes]
    count = len(nodes)
    after: List[FrozenSet[str]] = [frozenset()] * count
    before: List[FrozenSet[str]] = [frozenset()] * count
    acc: Set[str] = set()
    for i in range(count - 1, -1, -1):
        after[i] = frozenset(acc)
        acc.update(kills[i])
    acc = set()
    for j in range(count):
        before[j] = frozenset(acc)
        acc.update(kills[j])
    return after, before


# ----------------------------------------------------------------------
# split-boundary crossing (Rule A preconditions, split-variable set)
# ----------------------------------------------------------------------


def edge_crosses(edge: Edge, split_pos: int, query_pos: Optional[int] = None) -> bool:
    """Does a *loop-carried* ``edge`` cross the split boundary?

    After fission, all iterations of the first loop (positions <=
    ``split_pos``, plus the submit half of the query statement) run
    before any iteration of the second loop.  A loop-carried edge whose
    source lands in the second loop and whose target lands in the first
    is therefore violated by fission — it "crosses".

    When ``query_pos`` is given, that statement is split in two: its
    reads (query arguments) execute at submit time (first loop), its
    writes (the fetched result) at fetch time (second loop).  FD/OD
    sources act through writes; FD/AD targets act through reads.
    """
    if not edge.loop_carried:
        return False
    if query_pos is not None and edge.src == query_pos:
        # The query statement's write (its result) lands in loop 2.
        source_late = edge.kind in (FD, OD)
    else:
        source_late = edge.src > split_pos
    if query_pos is not None and edge.dst == query_pos:
        # The query statement's reads (its arguments) stay in loop 1.
        target_early = edge.kind in (FD, AD)
    else:
        target_early = edge.dst <= split_pos
    return source_late and target_early
