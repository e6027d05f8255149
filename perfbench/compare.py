"""``python -m perfbench compare BASE.json CHANGE.json``.

One row per workload and end-to-end metric: both medians with their
quartiles, the ratio change/base, and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — it did not;
* ``unresolved`` — the run-to-run spread is wider than the bound and the
  two sets of runs interleave, so the data cannot tell.

Exits 1 on any ``worse`` row or a higher share of failed operations.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import load_spec
from .stats import summarize


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> str:
    a, b = summarize(base), summarize(change)
    toward_worse = 1 if better == "lower" else -1
    moved = toward_worse * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (s["q3"] - s["q1"]) if s["q1"] is not None else 0.0 for s in (a, b)
    ) / a["median"]
    apart = max(change) < min(base) or min(change) > max(base)
    if spread > bound and not apart:
        return "unresolved"
    if moved > bound:
        return "worse"
    if moved < -bound:
        return "better"
    return "same"


def _cell(values: List[float]) -> str:
    s = summarize(values)
    if s["q1"] is None:
        return f"{s['median']:.5g}"
    return f"{s['median']:.5g} [{s['q1']:.5g} .. {s['q3']:.5g}]"


def compare_files(base_path: str, change_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)["workloads"]
    with open(change_path) as handle:
        change = json.load(handle)["workloads"]
    bounds: Dict[str, dict] = {m["name"]: m for m in load_spec()["end_to_end"]}
    bad = False
    print("workload metric unit | base | change | change/base | verdict")
    for name in base:
        if name not in change:
            continue
        for metric, entry in base[name]["end_to_end"].items():
            other = change[name]["end_to_end"][metric]
            limit = bounds[metric]
            found = verdict(entry["values"], other["values"],
                            limit["better"], limit["bound"])
            bad |= found == "worse"
            ratio = other["median"] / entry["median"]
            print(f"{name} {metric} {entry['unit']} | {_cell(entry['values'])}"
                  f" | {_cell(other['values'])} | {ratio:.4f} of "
                  f"{entry['median']:.5g} | {found} (bound {limit['bound']:g})")
        before = base[name]["failed_ops_pct"]
        after = change[name]["failed_ops_pct"]
        if after > before:
            bad = True
            print(f"{name} failed_ops_pct % | {before:g} | {after:g} | worse")
    return 1 if bad else 0
