"""Benchmark harness reproducing every table and figure of the paper.

:mod:`repro.bench.figures` describes every figure (8–15, Table I, the
transformation-time measurement, the ablations and the beyond-the-paper
sweeps) as data over the one skeleton in :mod:`repro.bench.sweep`;
``figures.run(figure_id)`` runs one and returns a
:class:`~repro.bench.harness.FigureData` whose ``format()`` prints the
same series the paper plots.  The figure index is in
docs/ARCHITECTURE.md.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — multiplies every simulated latency (default 1.0).
* ``REPRO_BENCH_FULL``  — set to 1 to extend the iteration grids to the
  paper's full ranges (minutes instead of seconds).

The open/closed-loop load driver (:mod:`repro.bench.driver`, CLI face
``repro workload run``) measures tail latency under sustained
concurrency — per-op p50/p90/p95/p99 histograms, ``BENCH_workload.json``
emission, and percentile SLO gating.
"""

from .harness import FigureData, FigureSeries, bench_scale, full_mode
from . import figures

__all__ = [
    "FigureData",
    "FigureSeries",
    "bench_scale",
    "full_mode",
    "figures",
]
