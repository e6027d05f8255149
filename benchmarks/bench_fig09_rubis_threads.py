"""Figure 9: RUBiS loop, varying client threads (SYS1, warm cache).

Paper shape: execution time drops sharply as threads increase, then
plateaus once the server-side parallelism is saturated.
"""

from __future__ import annotations

from conftest import run_once


def test_fig09_rubis_threads(benchmark):
    figure = run_once(benchmark, "fig09")
    trans = {x: s for x, s in figure.series[1].points}
    # Sharp drop: 10 threads at least 2.5x faster than 1 thread.
    assert trans[1] / trans[10] > 2.5
    # Plateau: beyond ~10 threads more threads stop helping; allow GIL
    # jitter but the curve must stay far below the 1-thread time and
    # near the best plateau value.
    best = min(trans.values())
    for threads in (20, 30, 40, 50):
        assert trans[threads] < trans[1] * 0.6
        assert trans[threads] < best * 2.5

