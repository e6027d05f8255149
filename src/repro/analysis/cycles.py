"""True-dependence paths and cycles (paper Definition 4.1, Theorem 4.1).

A *true-dependence path* uses only FD and loop-carried FD edges — anti
and output dependences are excluded because the reordering rules (C2,
C3) can always shift those with temporary variables.  A query statement
on a true-dependence cycle cannot be made non-blocking: its execution in
some iteration depends (transitively) on the value it returned in an
earlier iteration (the paper's Example 11).
"""

from __future__ import annotations

from typing import Dict, List, Set

from .ddg import DDG


def true_adjacency(ddg: DDG) -> Dict[int, Set[int]]:
    """Adjacency map of the FD/LCFD subgraph."""
    adjacency: Dict[int, Set[int]] = {pos: set() for pos in range(len(ddg.nodes))}
    for edge in ddg.true_edges():
        adjacency[edge.src].add(edge.dst)
    return adjacency


def has_true_path(ddg: DDG, source: int, target: int) -> bool:
    """Is there a non-empty FD/LCFD path from ``source`` to ``target``?"""
    adjacency = true_adjacency(ddg)
    visited: Set[int] = set()
    frontier: List[int] = list(adjacency[source])
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        if node in visited:
            continue
        visited.add(node)
        frontier.extend(adjacency[node] - visited)
    return False


def on_true_cycle(ddg: DDG, position: int) -> bool:
    """Does ``position`` lie on a true-dependence cycle?

    Theorem 4.1's sufficient condition: if the query statement is *not*
    on such a cycle, procedure ``reorder`` terminates with no LCFD edge
    crossing the split boundary.
    """
    return has_true_path(ddg, position, position)
