"""Timing utilities and result containers for the benchmark harness.

Besides wall-clock series, a figure can carry *per-series latency
histograms* (one :class:`~repro.obs.metrics.Histogram` per measured
discipline, absorbed from the per-variant
:class:`~repro.obs.metrics.MetricsRegistry` the runner attached to its
connection).  :func:`write_bench_json` renders the whole figure —
points, notes, and per-series p50/p90/p95/p99 — into a
``BENCH_<figure_id>.json`` document, the machine-readable perf
trajectory CI archives and diffs.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import Histogram, MetricsRegistry


def bench_scale() -> float:
    """Latency scale factor from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def full_mode() -> bool:
    """True when ``REPRO_BENCH_FULL`` requests the paper-size grids."""
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0", "false")


def measure(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once, returning (result, wall seconds)."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


@dataclass
class FigureSeries:
    """One plotted line: (x, seconds) points."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, seconds: float) -> None:
        self.points.append((x, seconds))

    def at(self, x: float) -> Optional[float]:
        for px, seconds in self.points:
            if px == x:
                return seconds
        return None


@dataclass
class FigureData:
    """All series of one figure, plus provenance notes."""

    figure_id: str
    title: str
    x_label: str
    series: List[FigureSeries] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: str = ""
    #: Per-series operation-latency histograms, keyed by series name
    #: (populated by :meth:`absorb_latencies`; empty when the runner
    #: collected no metrics).
    op_latencies: Dict[str, Histogram] = field(default_factory=dict)
    #: Extra per-series JSON fields (e.g. the load driver's
    #: ``throughput`` block), merged into the series entry by
    #: :meth:`bench_json`.
    series_meta: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def new_series(self, name: str) -> FigureSeries:
        created = FigureSeries(name)
        self.series.append(created)
        return created

    def op_histogram(
        self, label: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get-or-create the accumulated latency histogram for one
        series label; ``bounds`` applies only on creation."""
        hist = self.op_latencies.get(label)
        if hist is None:
            hist = self.op_latencies[label] = Histogram(label, bounds)
        return hist

    def absorb_latencies(self, label: str, registry: MetricsRegistry) -> None:
        """Fold every histogram of a per-variant ``registry`` into this
        figure's accumulated histogram for ``label`` (runners reset the
        registry between warm-up and measured runs, so only measured
        observations land here).

        A figure-side histogram is created with the *source's* bucket
        bounds, so custom-bounds instruments (``scan.selectivity``)
        absorb cleanly; a source whose bounds disagree with an already
        accumulated histogram is skipped with a warning instead of
        crashing the bench mid-run.
        """
        for hist in registry.histograms().values():
            if not hist.count:
                continue
            target = self.op_histogram(label, bounds=hist.bounds)
            if target.bounds != hist.bounds:
                warnings.warn(
                    f"figure {self.figure_id!r}: skipping histogram "
                    f"{hist.name!r} for series {label!r} — bucket bounds "
                    f"differ from the accumulated histogram's",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            target.merge(hist)

    def xs(self) -> List[float]:
        seen: List[float] = []
        for series in self.series:
            for x, _seconds in series.points:
                if x not in seen:
                    seen.append(x)
        return sorted(seen)

    def speedup(self, base: str, improved: str, x: float) -> Optional[float]:
        """base_time / improved_time at ``x`` (None when either missing)."""
        base_series = self._series(base)
        improved_series = self._series(improved)
        if base_series is None or improved_series is None:
            return None
        base_at = base_series.at(x)
        improved_at = improved_series.at(x)
        if base_at is None or improved_at is None or improved_at == 0:
            return None
        return base_at / improved_at

    def _series(self, name: str) -> Optional[FigureSeries]:
        for series in self.series:
            if series.name == name:
                return series
        return None

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render the figure as an aligned text table."""
        names = [series.name for series in self.series]
        width = max(14, *(len(name) + 2 for name in names)) if names else 14
        header = f"{self.x_label:>14} " + " ".join(
            f"{name:>{width}}" for name in names
        )
        lines = [
            f"== {self.figure_id}: {self.title} ==",
        ]
        if self.paper_reference:
            lines.append(f"   (paper: {self.paper_reference})")
        lines.append(header)
        lines.append("-" * len(header))
        for x in self.xs():
            cells = []
            for series in self.series:
                value = series.at(x)
                cells.append(
                    f"{value:>{width}.4f}" if value is not None else " " * width
                )
            x_text = f"{int(x)}" if float(x).is_integer() else f"{x:g}"
            lines.append(f"{x_text:>14} " + " ".join(cells))
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def bench_json(self) -> Dict[str, Any]:
        """The figure as one JSON-ready dict: every series' wall-clock
        points plus its latency-histogram percentiles (p50/p90/p95/p99),
        the schema ``BENCH_*.json`` documents carry."""
        series_out: List[Dict[str, Any]] = []
        for series in self.series:
            entry: Dict[str, Any] = {
                "name": series.name,
                "points": [
                    {"x": x, "seconds": seconds}
                    for x, seconds in series.points
                ],
            }
            hist = self.op_latencies.get(series.name)
            if hist is not None and hist.count:
                entry["latency"] = hist.snapshot()
            entry.update(self.series_meta.get(series.name, {}))
            series_out.append(entry)
        # Histograms without a matching wall-clock series still emit.
        named = {series.name for series in self.series}
        for label, hist in self.op_latencies.items():
            if label not in named and hist.count:
                entry = {"name": label, "points": [], "latency": hist.snapshot()}
                entry.update(self.series_meta.get(label, {}))
                series_out.append(entry)
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "paper_reference": self.paper_reference,
            "series": series_out,
            "notes": list(self.notes),
        }


def write_bench_json(
    figure: FigureData,
    filename: Optional[str] = None,
    directory: Optional[str] = None,
) -> str:
    """Write ``figure.bench_json()`` to ``BENCH_<figure_id>.json``.

    ``directory`` defaults to ``REPRO_BENCH_OUT`` (or the working
    directory); dashes in the figure id become underscores, so figure
    ``batched-dispatch`` lands in ``BENCH_batched_dispatch.json``.
    Returns the written path.
    """
    if filename is None:
        slug = figure.figure_id.replace("-", "_").replace("/", "_")
        filename = f"BENCH_{slug}.json"
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_OUT", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w") as out:
        json.dump(figure.bench_json(), out, indent=2, default=str)
        out.write("\n")
    return path
