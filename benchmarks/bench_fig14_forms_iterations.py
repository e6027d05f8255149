"""Figure 14: value-range expansion (INSERT loop), varying iterations.

This workload needs statement reordering, nested-loop fission, and the
commuting-writes declaration for the key-distinct INSERTs.  Paper
shape: results independent of cache state; transformed wins by well
over an order of magnitude at 100k inserts (73s vs 1.1s).
"""

from __future__ import annotations

from conftest import run_once


def test_fig14_forms_iterations(benchmark):
    figure = run_once(benchmark, "fig14")
    top = max(figure.xs())
    speedup = figure.speedup("orig", "trans", top)
    assert speedup is not None and speedup > 3.0

