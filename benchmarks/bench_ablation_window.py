"""Ablation: bounded-window (pipelined) fission (Discussion section).

Plain Rule A stores one record per iteration before any fetch; the
window variant caps in-flight records.  This measures the time cost of
the cap at several window sizes — small windows re-serialize part of
the work, large windows approach the unbounded time.
"""

from __future__ import annotations

from conftest import run_once


def test_ablation_window(benchmark):
    figure = run_once(benchmark, "ablation-window")
    times = {x: s for x, s in figure.series[0].points}
    unbounded = times[0]
    # A generous window should be within 2x of unbounded.
    assert times[1024] < unbounded * 2.0
    # Tiny windows cost more than large ones (pipelining overhead).
    assert times[64] >= times[1024] * 0.8

