"""Prefetch + result cache on the skewed hot-set read workload.

Shape to demonstrate (ISSUE 1 acceptance): with ~90% of reads landing on
a small hot set, prefetch+cache must *strictly* beat blocking execution,
be at least as fast as plain asynchronous submission, and report a
non-zero cache hit rate — the repeats are served client-side with no
round trip and no server work.
"""

from __future__ import annotations

from conftest import run_once


def test_prefetch_cache_beats_blocking_and_matches_async(benchmark):
    figure = run_once(benchmark, "prefetch-cache")
    top = max(figure.xs())
    vs_blocking = figure.speedup("blocking", "prefetch+cache", top)
    assert vs_blocking is not None and vs_blocking > 1.0, (
        f"prefetch+cache must strictly beat blocking at {top} iterations, "
        f"got {vs_blocking}"
    )
    vs_async = figure.speedup("async", "prefetch+cache", top)
    # ">= matching": allow a sliver of measurement noise, no more.
    assert vs_async is not None and vs_async > 0.95, (
        f"prefetch+cache must at least match plain async at {top} "
        f"iterations, got {vs_async}"
    )
    assert any("hit-rate 0." in note or "hit-rate 1." in note for note in figure.notes)
    top_note = [note for note in figure.notes if note.startswith(f"{top} ")][0]
    assert "hit-rate 0.00" not in top_note, "cache hit rate must be > 0"


def test_speculative_prefetch_hides_latency(benchmark):
    """ISSUE 4 acceptance: the speculative series must beat the
    guarded-only baseline on the hotset card workload (the detail
    lookup's guard depends on the first query's result, so only an
    unguarded submit can overlap the two round trips), and the
    submission stats must account for every speculation as a hit or a
    waste."""
    figure = run_once(benchmark, "speculative-prefetch")
    top = max(figure.xs())
    vs_guarded = figure.speedup("guarded", "speculative", top)
    assert vs_guarded is not None and vs_guarded > 1.0, (
        f"speculative must beat the guarded-only baseline at {top} "
        f"iterations, got {vs_guarded}"
    )
    vs_blocking = figure.speedup("blocking", "speculative", top)
    assert vs_blocking is not None and vs_blocking > 1.0
    top_note = [note for note in figure.notes if note.startswith(f"{top} ")][0]
    # The figure itself asserts hits + wasted == speculations per point.
    assert " hits / " in top_note and " speculations" in top_note
    assert "hit-rate 0.00" not in top_note, "speculation hit rate must be > 0"


def test_mixed_sync_aio_invalidation_under_load(benchmark):
    """Mixed multi-client series (ISSUE 2): a sync client and an aio
    client share one cache while a cache-less writer churns the hot
    set.  The runner itself asserts every cached read stays fresh; the
    bench additionally requires the correctness note and a useful hit
    rate despite the invalidation churn."""
    figure = run_once(benchmark, "mixed-clients")
    assert len(figure.series) == 3
    assert all(note.endswith("fresh-read check ok") for note in figure.notes)
    assert any("hit-rate 0.00" not in note for note in figure.notes)

