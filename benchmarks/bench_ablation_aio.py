"""Ablation: thread-pool observer model vs asyncio event loop.

The paper coordinates asynchronous submissions with client threads; the
asyncio front end (repro.runtime.aio) coordinates them with coroutines.
Both express the same Rule A two-loop shape and pay the same substrate
costs, so this isolates client-coordination overhead.  The expectation:
comparable times, with the same improvement-then-plateau as the
in-flight budget grows.

The cached series runs the asyncio client over the shared submission
pipeline with a ResultCache attached: the steady-state repeat batch is
served at submit time, so it must not lose to plain asyncio and must
report a non-zero hit rate.
"""

from __future__ import annotations

from conftest import run_once


def test_ablation_aio(benchmark):
    figure = run_once(benchmark, "ablation-aio")
    threads = {x: s for x, s in figure.series[0].points}
    aio = {x: s for x, s in figure.series[1].points}
    cached = {x: s for x, s in figure.series[2].points}
    # Both runtimes must improve substantially from 1 to 20 in flight.
    assert threads[20] < threads[1] * 0.6
    assert aio[20] < aio[1] * 0.6
    # At matched budgets the runtimes stay within 3x of each other.
    for budget in threads:
        ratio = aio[budget] / threads[budget]
        assert 1 / 3 < ratio < 3, f"budget {budget}: ratio {ratio:.2f}"
    # The cache-aware asyncio path serves the repeat batch locally: it
    # must at least match plain asyncio (tiny noise allowance) and must
    # actually be hitting the cache.
    top = max(aio)
    assert cached[top] < aio[top] * 1.1, (
        f"asyncio+cache must not lose to asyncio at budget {top}: "
        f"{cached[top]:.4f}s vs {aio[top]:.4f}s"
    )
    hit_note = [n for n in figure.notes if "hit-rate" in n]
    assert hit_note and "hit-rate 0.00" not in hit_note[0]

