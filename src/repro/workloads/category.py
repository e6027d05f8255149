"""Experiment 3 workload: category-hierarchy traversal.

From the paper (and [3]): find the part with maximum size under a given
category — including all its sub-categories — by a DFS of the category
hierarchy, querying the item table at every node visited.

The category table mirrors the paper's: ~1000 categories, roughly 10 top
level, 90 middle, 900 leaves; the part table plays the 10M-row TPC-H
``part`` role at a scaled size, with a secondary index on category_id
(so cold-cache lookups really scatter across the heap).  The paper
clusters ``category`` on ``category_id``, but no kernel probes that
column (they read ``part`` by ``category_id`` and ``category`` by
``parent_id``), so the reproduction does not model the clustering.  The
traversal kernel is the paper's Example 9 shape: the loop needs the
statement reordering algorithm before Rule A applies, because the stack
update follows the query.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..db.database import Database
from ..db.latency import INSTANT, LatencyProfile

MAX_SIZE_SQL = "SELECT max(size) FROM part WHERE category_id = ?"
COUNT_SQL = "SELECT count(*) FROM part WHERE category_id = ?"
CHILDREN_SQL = "SELECT category_id FROM category WHERE parent_id = ?"

TOP_LEVEL = 10
MID_PER_TOP = 9
LEAF_PER_MID = 10
#: 10 top + 90 mid + 900 leaves = 1000 categories, as in the paper.
TOTAL_CATEGORIES = TOP_LEVEL * (1 + MID_PER_TOP * (1 + LEAF_PER_MID))


def build_database(
    profile: LatencyProfile = INSTANT,
    parts: int = 120_000,
    rows_per_page: int = 48,
    seed: int = 31,
    **db_kwargs,
) -> Database:
    """Category hierarchy plus a part table scattered over many pages."""
    rng = random.Random(seed)
    db = Database(profile, **db_kwargs)
    db.create_table(
        "category",
        ("category_id", "int"), ("parent_id", "int"), ("level", "int"),
    )
    db.create_table(
        "part",
        ("part_key", "int"), ("category_id", "int"), ("size", "int"),
        rows_per_page=rows_per_page,
    )
    categories: List[Tuple[int, int, int]] = []
    next_id = 0
    for _top in range(TOP_LEVEL):
        top_id = next_id
        next_id += 1
        categories.append((top_id, -1, 0))
        for _mid in range(MID_PER_TOP):
            mid_id = next_id
            next_id += 1
            categories.append((mid_id, top_id, 1))
            for _leaf in range(LEAF_PER_MID):
                leaf_id = next_id
                next_id += 1
                categories.append((leaf_id, mid_id, 2))
    db.bulk_load("category", categories)
    total = next_id
    # Parts land on random categories in random heap order, so equality
    # lookups through the secondary index touch scattered pages.
    db.bulk_load(
        "part",
        (
            (pk, rng.randrange(total), rng.randint(1, 50_000))
            for pk in range(parts)
        ),
    )
    db.create_index("idx_cat_parent", "category", "parent_id")
    db.create_index("idx_part_cat", "part", "category_id")
    return db


def load_children(db: Database) -> Dict[int, List[int]]:
    """Materialize the child map (the traversal's in-memory hierarchy)."""
    children: Dict[int, List[int]] = {}
    for _rid, row in db.catalog.table("category").heap.iter_rows():
        children.setdefault(row[1], []).append(row[0])
    return children


def roots_for_iterations(iterations: int) -> List[int]:
    """Category roots whose subtree sizes match the paper's x-axis.

    1 node -> a single leaf; 11 nodes -> one mid + its 10 leaves;
    100 nodes -> one top + 9 mids + 90 leaves.  Larger counts combine
    several top-level subtrees.
    """
    top_subtree = 1 + MID_PER_TOP * (1 + LEAF_PER_MID)
    if iterations <= 1:
        return [2]  # first leaf (ids: 0 top, 1 mid, 2 first leaf)
    if iterations <= 1 + LEAF_PER_MID:
        return [1]  # first mid-level category
    roots = []
    needed = iterations
    top_id = 0
    while needed > 0 and top_id < TOP_LEVEL * top_subtree:
        roots.append(top_id)
        needed -= top_subtree
        top_id += top_subtree
    return roots


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


def max_part_size(conn, children, roots):
    """The Experiment 3 loop (paper Example 9 shape): DFS with an
    explicit stack, one item-table query per category visited.

    The stack update (``extend``) follows the query, creating the
    loop-carried flow dependence into the next iteration's ``pop`` that
    only the reordering algorithm can untangle.
    """
    stack = list(roots)
    best = 0
    visited = 0
    while len(stack) > 0:
        current = stack.pop()
        size = conn.execute_query(MAX_SIZE_SQL, [current]).scalar()
        if size is not None and size > best:
            best = size
        visited += 1
        kids = children.get(current, [])
        stack.extend(kids)
    return best, visited


def subtree_part_count(conn, children, roots):
    """Companion kernel: total parts under the roots (same structure)."""
    stack = list(roots)
    total = 0
    while len(stack) > 0:
        current = stack.pop()
        count = conn.execute_query(COUNT_SQL, [current]).scalar()
        total += count
        kids = children.get(current, [])
        stack.extend(kids)
    return total


def max_part_size_querying_children(conn, roots):
    """Variant that discovers children *through the database*.

    The children query feeds the traversal stack, putting it on a
    true-dependence cycle — it must stay blocking — while the item
    query remains transformable.  Demonstrates partial transformation
    (paper Example 11's situation in the Experiment 3 setting).
    """
    stack = list(roots)
    best = 0
    while len(stack) > 0:
        current = stack.pop()
        size = conn.execute_query(MAX_SIZE_SQL, [current]).scalar()
        if size is not None and size > best:
            best = size
        kid_rows = conn.execute_query(CHILDREN_SQL, [current])
        kid_ids = [row[0] for row in kid_rows]
        stack.extend(kid_ids)
    return best
