"""Ablation: asynchronous submission vs batching (paper Introduction).

The paper positions the two techniques precisely:

* batching removes per-iteration round trips — with *light* client work
  it is the cheapest discipline;
* but "it does not overlap client computation with that of the server,
  as the client completely blocks after submitting the batch" — with
  *heavy* per-iteration client work, asynchronous submission wins
  because the computation runs while requests are in flight.

The ``ablation-batching`` figure measures blocking / batched / async
under both regimes and this module asserts exactly that crossover.  A
fourth discipline — *set* — is the batch through the server's truly
set-oriented path (the binding-demux operator answers all bindings in
one statement execution); it must beat the statement-fan-out batch in
both regimes, since it pays the per-statement fixed cost once instead of
N times, while still blocking the client exactly like any batch.
"""

from __future__ import annotations

from conftest import run_once


def test_ablation_batching(benchmark):
    figure = run_once(benchmark, "ablation-batching")
    times = {x: s for x, s in figure.series[0].points}
    # Light client work: both optimizations beat blocking decisively.
    assert times[1] < times[0]
    assert times[2] < times[0]
    # Heavy client work: async must beat batching — the overlap the
    # paper's introduction argues batching cannot provide.
    assert times[11] < times[10]
    assert times[12] < times[10]
    assert times[12] < times[11], (
        "async must overlap the heavy client work that batching "
        f"serializes (async {times[12]:.3f}s vs batched {times[11]:.3f}s)"
    )
    # Set-oriented batching must beat the statement-fan-out batch in
    # both regimes: same single round trip, but the binding-demux
    # operator pays the per-statement server cost once instead of N
    # times.
    assert times[3] < times[1], (
        "set-oriented batch must beat the fan-out batch "
        f"(set {times[3]:.3f}s vs batched {times[1]:.3f}s)"
    )
    assert times[13] < times[11], (
        "set-oriented batch must beat the fan-out batch under heavy "
        f"client work too (set {times[13]:.3f}s vs batched {times[11]:.3f}s)"
    )

