"""Validation: the Discussion-section cost model against measurements.

Checks that the analytic estimates (``repro.transform.costmodel``)
reproduce the two shapes they exist to predict:

* the Figure 8 crossover — below the predicted break-even iteration
  count the transformed program loses, above it it wins;
* the Figure 9 plateau — the recommended thread count is within the
  measured plateau.
"""

from __future__ import annotations

from conftest import run_once


def test_costmodel_predictions(benchmark):
    figure = run_once(benchmark, "costmodel")
    measured_orig = dict(figure.series[0].points)
    measured_trans = dict(figure.series[1].points)
    predicted_orig = dict(figure.series[2].points)
    predicted_trans = dict(figure.series[3].points)
    # Direction agreement at the extremes of the sweep:
    top = 2000
    assert measured_trans[top] < measured_orig[top]
    assert predicted_trans[top] < predicted_orig[top]
    bottom = 4
    assert predicted_trans[bottom] > predicted_orig[bottom]
    # Predictions within a factor of five of measurements at the top:
    # the model is first-order (no OS timer slack, no thread handoffs) —
    # it exists to predict shape and break-even, not absolute times.
    ratio = measured_trans[top] / predicted_trans[top]
    assert 1 / 5 < ratio < 5, f"prediction off by {ratio}"

