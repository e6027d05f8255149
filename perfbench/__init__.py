"""perfbench — the repository's benchmark (see perfbench/README.md).

Seven seeded closed-loop workloads drive the stack under ``src/repro``
from outside, through its public functions only.  ``BENCHMARK.json`` at
the repository root names the command, the workloads and the metrics;
this package is the only code that produces them.
"""

import json
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
#: Results and traces land here (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are written down."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
