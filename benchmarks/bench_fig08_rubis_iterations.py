"""Figure 8: RUBiS comment/author loop, varying iterations (warm+cold).

Paper shape to reproduce: the transformed program is slower at the
smallest iteration counts (thread startup dominates) and wins by a
large factor at the top of the range; cold-cache times sit above warm
for both variants.
"""

from __future__ import annotations

from conftest import run_once


def test_fig08_rubis_iterations(benchmark):
    figure = run_once(benchmark, "fig08")
    xs = figure.xs()
    top = max(xs)
    # Shape assertions (who wins, not absolute numbers):
    speedup = figure.speedup("orig-warm", "trans-warm", top)
    assert speedup is not None and speedup > 2.0, (
        f"transformed must win clearly at {top} iterations, got {speedup}"
    )
    cold_top = max(x for x, _s in figure.series[0].points)
    cold_speedup = figure.speedup("orig-cold", "trans-cold", cold_top)
    assert cold_speedup is not None and cold_speedup > 2.0

