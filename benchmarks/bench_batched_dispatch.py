"""Set-oriented dispatch ablation: blocking / async / async+coalesce.

The paper's introduction frames batching and asynchronous submission as
alternatives; the dispatch coalescer makes them a hybrid.  A loop of
hoisted point lookups over one prepared template (the hotset profile
workload — exactly what prefetch hoisting produces) submits faster than
the executor drains, so submits of the same statement pile up behind
the workers.  Plain async answers each with its own round trip and its
own server statement; with ``coalesce=True`` the pile is merged into
batched server calls — one round trip and *one* demuxed statement
execution per batch — while keeping the asynchronous overlap that plain
batching gives up.

On the skewed point-lookup workload, async+coalesce must therefore beat
plain async by a measurable margin (asserted below): the per-statement
fixed server cost is paid once per batch instead of once per query, and
the demux operator collapses the hot set's duplicate bindings for free.

A scan-bound aggregate loop rides along as one more point
(``scan:columnar``): pure executor work (INSTANT profile, no usable
index), so ``BENCH_batched_dispatch.json`` keeps scan latency
percentiles.  Its correctness and speed are gated by the oracle-checked
``scan_agg`` workload of ``perfbench``, not here.
"""

from __future__ import annotations

from conftest import run_once

#: Margin async+coalesce must beat plain async by on the skewed
#: point-lookup loop.  The expected win is several-fold (one fixed
#: statement cost per ~window queries instead of per query); 1.2x
#: leaves headroom for noisy CI machines while still failing if the
#: coalescer stops merging.
COALESCE_SPEEDUP = 1.2


def test_batched_dispatch(benchmark):
    figure = run_once(benchmark, "batched-dispatch")
    times = {x: s for x, s in figure.series[0].points}
    # Asynchronous submission beats blocking (the paper's core result)…
    assert times[1] < times[0]
    # …and set-oriented dispatch beats plain async on the skewed
    # point-lookup loop, by an asserted margin.
    assert times[2] < times[1], (
        "async+coalesce must beat plain async "
        f"({times[2]:.3f}s vs {times[1]:.3f}s)"
    )
    speedup = times[1] / times[2]
    assert speedup >= COALESCE_SPEEDUP, (
        f"coalescing speedup {speedup:.2f}x below the asserted "
        f"{COALESCE_SPEEDUP}x margin "
        f"(async {times[1]:.3f}s vs coalesced {times[2]:.3f}s)"
    )
    # The figure itself asserts that at least one batch formed.
    assert figure.notes[0].startswith("coalesced: ")
