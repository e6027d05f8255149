"""Figure 15: web-service entity traversal, varying threads.

Demonstrates the transformations beyond SQL: the same rules rewrite the
blocking HTTP-style ``get_entity`` loop.  Paper shape: steady drop from
1 to ~15 threads against the Freebase sandbox, then flat.
"""

from __future__ import annotations

from conftest import run_once


def test_fig15_webservice_threads(benchmark):
    figure = run_once(benchmark, "fig15")
    trans = {x: s for x, s in figure.series[1].points}
    orig = {x: s for x, s in figure.series[0].points}
    assert trans[1] / trans[15] > 2.0
    assert orig[1] / trans[15] > 2.0

