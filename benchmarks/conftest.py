"""Shared helpers for the figure benchmarks.

Each benchmark runs its figure (``repro.bench.figures.run``) exactly
once (``pedantic`` with one round): the sweep itself already contains
the repeated measurements, and re-running multi-second sweeps would make
the suite needlessly slow.  The modules here only assert the shapes.
Run with ``-s`` to see the figure tables; they are also printed into the
captured output.
"""

from __future__ import annotations

from repro.bench import figures
from repro.bench.harness import FigureData


def run_once(benchmark, figure_id):
    """Run one registered figure once under pytest-benchmark, print its
    table and return it."""
    result = benchmark.pedantic(
        figures.run, args=(figure_id,), rounds=1, iterations=1
    )
    print()
    print(result.format() if isinstance(result, FigureData) else result[0])
    return result

