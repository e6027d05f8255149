"""Figure 13: category traversal, varying threads (cold cache).

Paper shape: time falls steeply up to ~10-20 threads, then flattens;
the concurrent submissions let the disk scheduler reorder requests and
keep several spindles busy.
"""

from __future__ import annotations

from conftest import run_once


def test_fig13_category_threads(benchmark):
    figure = run_once(benchmark, "fig13")
    trans = {x: s for x, s in figure.series[1].points}
    orig = {x: s for x, s in figure.series[0].points}
    assert trans[1] / trans[20] > 1.8, "threads must help on cold cache"
    assert orig[1] / trans[20] > 2.0, "transformed must beat blocking original"
    assert abs(trans[30] - trans[50]) / trans[30] < 0.5, "plateau expected"

