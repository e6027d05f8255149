"""Ablation: statement reordering ON vs OFF.

The paper's central novelty claim is that the Section IV reordering
algorithm "greatly increases the applicability of the other
transformation rules".  With reordering disabled, the worklist/DFS
loops (Experiments 3 and 4 shapes, plus the Example 2 worklists) fail
Rule A's preconditions and stay blocking.
"""

from __future__ import annotations

from conftest import run_once


def test_ablation_reorder(benchmark):
    text, counts = run_once(benchmark, "ablation-reorder")
    assert counts["transformed_with_reorder"] == counts["loops"]
    assert counts["transformed_without_reorder"] < counts["transformed_with_reorder"]

