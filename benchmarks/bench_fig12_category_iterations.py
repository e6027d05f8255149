"""Figure 12: category-hierarchy traversal, varying iterations.

This workload requires the statement reordering algorithm before Rule A
applies (the stack update follows the query).  Paper shape: large cold
win at 100 iterations (190s vs 6.3s), smaller warm effect, transformed
roughly break-even at a single iteration.
"""

from __future__ import annotations

from conftest import run_once


def test_fig12_category_iterations(benchmark):
    figure = run_once(benchmark, "fig12")
    speedup_cold = figure.speedup("orig-cold", "trans-cold", 100)
    assert speedup_cold is not None and speedup_cold > 2.0
    speedup_warm = figure.speedup("orig-warm", "trans-warm", 100)
    assert speedup_warm is not None and speedup_warm > 1.5

