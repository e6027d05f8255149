"""Figure 10: the Figure 9 thread sweep against the PostgreSQL profile.

Paper shape: "follow the same pattern as in the case of SYS1", at lower
absolute times.
"""

from __future__ import annotations

from conftest import run_once


def test_fig10_rubis_threads_postgres(benchmark):
    figure = run_once(benchmark, "fig10")
    trans = {x: s for x, s in figure.series[1].points}
    assert trans[1] / trans[10] > 2.5
    assert abs(trans[20] - trans[50]) / trans[20] < 0.4

