"""Section VI aside: program transformation time.

The paper reports that transformation "took very little time (less than
a second)" per program; ours must as well.
"""

from __future__ import annotations

from conftest import run_once


def test_transform_time(benchmark):
    figure = run_once(benchmark, "transform-time")
    for _x, seconds in figure.series[0].points:
        assert seconds < 1.0, "transformation must stay under one second"

