"""Figure 11: RUBBoS top-stories listing, varying iterations (warm).

Paper shape: transformed slightly slower at the smallest count, and a
clear win (3.6s vs 0.8s, ~4.5x) at the top of the range.
"""

from __future__ import annotations

from conftest import run_once


def test_fig11_rubbos_iterations(benchmark):
    figure = run_once(benchmark, "fig11")
    top = max(figure.xs())
    speedup = figure.speedup("orig-warm", "trans-warm", top)
    assert speedup is not None and speedup > 2.0

