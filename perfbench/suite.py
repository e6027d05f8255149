"""``python -m perfbench run`` without ``--workload``: every workload, one
after another, each pass in a fresh subprocess, repeated ``--runs`` times.

Writes ``perfbench/out/results.json`` (every value of every metric, with
median and quartiles) and ``perfbench/out/trace.json`` (the layers
passes' spans).
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict, List, Optional

from . import OUT, ROOT, load_spec, stats
from .spans import FIELDS
from .workloads import WORKLOADS

#: Never used while the benchmark or a change is written; a claim must
#: also hold on it.
HOLD_OUT_SEED = 29


def run_child(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One pass in a fresh interpreter; echoes its report and returns the
    result object of its last line."""
    command = [
        sys.executable, "-m", "perfbench", "run", "--workload", name,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        held = ""
        for line in child.stdout:
            if held:
                print(held, end="", flush=True)
            held = line
    if child.returncode:
        raise RuntimeError(f"{' '.join(command)} exited {child.returncode}")
    return json.loads(held)


def summarized(values: List[float], unit: str) -> Dict[str, Any]:
    return {"unit": unit, "values": values, **stats.summarize(values)}


def merge_traces(names: List[str]) -> None:
    spans: List[list] = []
    for name in names:
        part = OUT / f"trace-{name}.json"
        with open(part) as handle:
            spans.extend(json.load(handle)["spans"])
        part.unlink()
    with open(OUT / "trace.json", "w") as out:
        json.dump({"fields": FIELDS, "spans": spans}, out,
                  separators=(",", ":"))
        out.write("\n")


def run_suite(seed: int, seconds: float, runs: int, layers: bool,
              out: Optional[str]) -> int:
    spec = load_spec()
    collected: Dict[str, Dict[str, Any]] = {
        name: {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for name in WORKLOADS
    }
    for run in range(runs):
        for name, found in collected.items():
            print(f"--- run {run + 1}/{runs}: {name}", flush=True)
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                if trace and not layers:
                    continue
                result = run_child(name, seed, seconds, trace)
                found["attempted"] += result["attempted"]
                found["failed"] += result["failed"]
                for metric, reading in result["metrics"].items():
                    found[section].setdefault(metric, []).append(reading["value"])
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    workloads = {}
    for name, found in collected.items():
        workloads[name] = {
            "params": WORKLOADS[name](seed).params,
            "attempted": found["attempted"],
            "failed": found["failed"],
            "failed_ops_pct": 100.0 * found["failed"] / found["attempted"],
        }
        for section in ("end_to_end", "per_layer"):
            workloads[name][section] = {
                metric: summarized(values, units[metric])
                for metric, values in found[section].items()
            }
    document = {
        "seed": seed,
        "hold_out_seed": HOLD_OUT_SEED,
        "run_seconds": seconds,
        "runs": runs,
        "workloads": workloads,
        "claim": None,
    }
    path = out or OUT / "results.json"
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    if layers:
        merge_traces(list(WORKLOADS))

    print(f"\n=== medians of {runs} run(s), seed {seed} "
          "(workload metric value unit [q1 .. q3])")
    for name, found in workloads.items():
        for metric, summary in found["end_to_end"].items():
            spread = ""
            if summary["q1"] is not None:
                spread = f"  [{summary['q1']:.6g} .. {summary['q3']:.6g}]"
            print(f"{name} {metric} {summary['median']:.6g} "
                  f"{summary['unit']}{spread}")
        print(f"{name} failed_ops_pct {found['failed_ops_pct']:.6g} %  "
              f"{found['failed']} of {found['attempted']}")
    print(f"results: {path}")
    return 1 if any(found["failed"] for found in workloads.values()) else 0
