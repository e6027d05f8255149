"""The benchmark smoke CI and the verify recipe both run.

``--figures`` RUNS every figure of the registry at its ``figures.SMOKE``
size: a crash anywhere on a figure's path (sweep skeleton, demux
operator, dispatch coalescer, BatchExecutor, asyncio front end, spill
table...) or a variant disagreeing with its reference fails the build.
Timing *shapes* are asserted by the full pytest-benchmark runs, not
here — tiny scales are too noisy for that.  Every figure that carries
latency histograms also lands as a ``BENCH_<id>.json`` document (under
``REPRO_BENCH_OUT``) for the JSON check and the artifact upload.

``--check-json DIR`` checks what was emitted: every ``DIR/BENCH_*.json``
must parse, carry at least one series with latency percentiles, and
every latency block must contain p50 and p99; ``--expect-note TEXT``
also requires each document's notes to record TEXT (the sqlite job
passes ``backend=sqlite``).

Run from the repo root: ``PYTHONPATH=src python tools/bench_smoke.py
--figures --check-json bench-out``.
"""

import argparse
import json
import pathlib
import sys


def run_figures() -> None:
    from repro.bench import figures
    from repro.bench.harness import FigureData, write_bench_json

    for figure_id in figures.REGISTRY:
        result = figures.run(figure_id, **figures.SMOKE.get(figure_id, {}))
        if not isinstance(result, FigureData):
            print(result[0])
            continue
        print(result.format())
        if result.op_latencies:
            print("wrote", write_bench_json(result))
    print(f"benchmark smoke ok: {len(figures.REGISTRY)} figures ran end to end")


def check_json(directory: str, expect_note: str = None) -> None:
    paths = sorted(pathlib.Path(directory).glob("BENCH_*.json"))
    if not paths:
        sys.exit(f"no BENCH_*.json documents were emitted into {directory}")
    failures = []
    for path in paths:
        doc = json.loads(path.read_text())
        with_latency = 0
        for series in doc.get("series", []):
            latency = series.get("latency")
            if latency is None:
                continue
            with_latency += 1
            for key in ("p50", "p99"):
                if key not in latency:
                    failures.append(
                        f"{path}: series {series['name']!r} latency lacks {key}"
                    )
        if not with_latency:
            failures.append(f"{path}: no series carries latency data")
        if expect_note and expect_note not in " ".join(doc.get("notes", [])):
            failures.append(f"{path}: notes do not record {expect_note}")
    if failures:
        sys.exit("bench JSON smoke failed:\n" + "\n".join(failures))
    print(f"bench JSON smoke ok: {len(paths)} document(s) checked")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--figures", action="store_true",
                        help="run every registered figure at smoke size")
    parser.add_argument("--check-json", metavar="DIR",
                        help="check every DIR/BENCH_*.json document")
    parser.add_argument("--expect-note", metavar="TEXT",
                        help="with --check-json: notes must record TEXT")
    args = parser.parse_args()
    if not (args.figures or args.check_json):
        parser.error("nothing to do: pass --figures and/or --check-json DIR")
    if args.expect_note and not args.check_json:
        parser.error("--expect-note needs --check-json")
    if args.figures:
        run_figures()
    if args.check_json:
        check_json(args.check_json, args.expect_note)


if __name__ == "__main__":
    main()
