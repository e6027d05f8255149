"""Ablation: disk-spilling record table (Discussion section).

The paper's first memory mitigation: "materialize part of the in-memory
table to the disk."  Unlike the bounded window (which re-serializes
work), spilling keeps every query in flight — so the time cost should
be near zero while peak resident records drop from the iteration count
to the configured cap.
"""

from __future__ import annotations

from conftest import run_once


def test_ablation_spill(benchmark):
    figure = run_once(benchmark, "ablation-spill")
    times = {x: s for x, s in figure.series[0].points}
    in_memory = times[0]
    # Spilling must not meaningfully slow the transformed program down:
    # segment IO overlaps the in-flight queries.
    assert times[256] < in_memory * 2.0
    assert times[1024] < in_memory * 2.0

