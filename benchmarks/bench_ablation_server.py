"""Ablation: server-side IO mechanisms.

Compares the cold-cache category traversal with the disk elevator
(shortest-seek-first service) enabled vs disabled — isolating how much
of the transformed program's cold-cache win comes from the request
reordering that concurrent submission enables.
"""

from __future__ import annotations

from conftest import run_once


def test_ablation_server(benchmark):
    figure = run_once(benchmark, "ablation-server")
    trans = {x: s for x, s in figure.series[1].points}
    orig = {x: s for x, s in figure.series[0].points}
    # The transformed program must beat the original in both configs
    # (spindle parallelism remains), and the elevator must not hurt.
    assert trans[0] < orig[0]
    assert trans[1] < orig[1]
    assert trans[0] <= trans[1] * 1.15

