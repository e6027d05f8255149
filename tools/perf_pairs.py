"""Alternating parent/change pairs of the repo benchmark's workloads.

``BENCHMARK.json`` fixes the command, the run length and which way each
end-to-end metric is better; this tool runs that command for each
workload asked for alternately in BASE_DIR (a checkout of the commit to compare
against — ``git clone`` or ``git archive`` it somewhere outside the
repository) and in this checkout, swapping which side goes first every
pair, and prints what a perf claim has to report: each side's median
and quartiles per end-to-end metric, the ratio with its base, how many
pairs the change won (ties count for neither) and the failed-operation
totals.  The last column is the verdict (:func:`judge`): ``gain`` when
the change wins at least nine tenths of the pairs and the medians differ
by more than the distance between the base's own quartiles, ``WORSE``
when its median is worse than the base's by more than the metric's
bound, ``unresolved`` when the base's own quartiles lie further apart
than that bound and the change did not win every pair (such a cell
cannot be read as unchanged), else ``within bound``.

``--workload`` repeats and ``--all`` runs every workload the benchmark
declares, one after the other; the run closes with a table of one row
per workload (change/base and verdict per end-to-end metric, failed
operations per side) — the "no other workload got worse"
half of a perf claim.  The exit status is 1 if any metric read
``WORSE``, the change failed a larger share of its operations than the
base did, or any change pass reported incorrect outputs
(:func:`rejected`).

``--layers WORKLOAD`` runs one layers pass (``--trace 1``) of that
workload on each side instead and prints the per-layer metrics side by
side — the engine's (``backends.memory.execute_us``,
``db.plan.scan_us_per_krow``, ``db.scan.*``) and the request path's
(``runtime.hop_us``, ``core.window_us_per_op``,
``prefetch.cache.hit_us``, ``prefetch.cache.layer_us``,
``client.front_us``) — so a change shows where its time went.

Run from the repository root, with nothing else on the CPU::

    python tools/perf_pairs.py BASE --workload hotset_mixed
    python tools/perf_pairs.py BASE --workload hotset_read --pairs 4 --seed 29
    python tools/perf_pairs.py BASE --all --pairs 4
    python tools/perf_pairs.py BASE --layers scan_agg

``perfbench/`` itself is not touched: each pass is the benchmark's own
subprocess, and the last line it prints is the result read here.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def one_pass(directory, command):
    """Run the benchmark command in ``directory``; its last stdout line
    is the result object."""
    done = subprocess.run(
        command, cwd=directory, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        sys.exit(f"{directory}: {' '.join(command)} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pass_command(benchmark, workload, seed, seconds, trace):
    """The benchmark's command for one pass of ``workload``; ``trace=1``
    makes it the layers pass."""
    return benchmark["command"] + [
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]


def quartiles(values):
    """``(q1, median, q3)`` (inclusive method; one value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(base, change, higher, bound):
    """The verdict on one end-to-end metric from its per-pair values
    (``base[i]`` and ``change[i]`` ran as pair ``i``): ``higher`` says
    which way is better, ``bound`` is the worsening BENCHMARK.json allows
    (a fraction of the base's median).  Returns ``(wins, verdict)``; ties
    win for neither side."""
    pairs = len(base)
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    (b1, b2, b3), c2 = quartiles(base), quartiles(change)[1]
    gain = (c2 - b2) if higher else (b2 - c2)
    if wins >= 0.9 * pairs and gain > b3 - b1:
        return wins, "gain"
    if b2 and -gain / b2 > bound:
        return wins, f"WORSE (bound {bound:.0%})"
    if b2 and (b3 - b1) / b2 > bound and wins < pairs:
        return wins, "unresolved"
    return wins, "within bound"


def objections(verdicts, failures):
    """What refuses the change on one workload, as the closing table's
    markers (empty when nothing does): a metric read ``WORSE``, the
    change failed a larger share of its operations than the base
    (``MORE FAILED``), or a change pass reported incorrect outputs
    (``INCORRECT``).  ``verdicts`` maps a metric to ``(change/base,
    verdict)``, ``failures`` a side to ``(failed, attempted, incorrect
    passes)``."""
    (base_failed, base_ops, _), (failed, ops, wrong) = failures["base"], failures["change"]
    found = []
    if any(verdict.startswith("WORSE") for _ratio, verdict in verdicts.values()):
        found.append("WORSE")
    if failed * base_ops > base_failed * ops:
        found.append("MORE FAILED")
    if wrong:
        found.append("INCORRECT")
    return found


def compare(benchmark, sides, workload, pairs, seconds, seed):
    """Run ``pairs`` alternating passes of ``workload`` and print its
    block; returns ``({metric: (change/base, verdict)}, {side: (failed,
    attempted, incorrect passes)})`` for the closing table."""
    command = pass_command(benchmark, workload, seed, seconds, trace=0)
    runs = {side: [] for side in sides}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(one_pass(sides[side], command))
        print(
            f"{workload} pair {pair + 1}/{pairs} ({order[0]} first): "
            + ", ".join(
                f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.4g} ops/s"
                for side in sides
            ),
            file=sys.stderr,
        )

    print(
        f"{workload}  seed {seed}  {seconds:g} s/pass  {pairs} pairs"
        "  (median [q1, q3])"
    )
    verdicts = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]]
            for side in sides
        }
        wins, verdict = judge(
            values["base"], values["change"], metric["better"] == "higher", metric["bound"]
        )
        (b1, b2, b3), (c1, c2, c3) = quartiles(values["base"]), quartiles(values["change"])
        ratio = c2 / b2 if b2 else float("nan")
        verdicts[name] = (ratio, verdict)
        print(
            f"{name:12s} base {b2:10.4g} [{b1:.4g}, {b3:.4g}]"
            f"  change {c2:10.4g} [{c1:.4g}, {c3:.4g}] {metric['unit']:4s}"
            f"  change/base {ratio:.3f}"
            f"  wins {wins}/{pairs}"
            f"  {verdict}"
        )
    failures = {}
    for side in sides:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        wrong = sum(not run["correct"] for run in runs[side])
        failures[side] = (failed, attempted, wrong)
        print(f"{side:6s} failed {failed} of {attempted} ops; {wrong} passes incorrect")
    return verdicts, failures


#: The per-layer metrics ``--layers`` prints (every ``BENCHMARK.json``
#: per-layer name with one of these prefixes, in its declared order):
#: the engine's own time and work, then the request path's — the thread
#: hop, the windowed dispatch, the cache layer and its hit, the
#: connection front end.
LAYERS = (
    "backends.memory.execute_us", "db.plan.scan_us_per_krow", "db.scan.",
    "runtime.hop_us", "core.window_us_per_op", "prefetch.cache.hit_us",
    "prefetch.cache.layer_us", "client.front_us",
)


def layers(benchmark, sides, workload, seconds, seed):
    """One layers pass (``--trace 1``) of ``workload`` per side; prints
    :data:`LAYERS` side by side.  Informational: one pass each, no
    verdict."""
    command = pass_command(benchmark, workload, seed, seconds, trace=1)
    runs = {side: one_pass(directory, command) for side, directory in sides.items()}
    print(f"{workload} layers pass  seed {seed}  {seconds:g} s/pass  one pass per side")
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        if name.startswith(LAYERS):
            base, change = (runs[side]["metrics"][name]["value"] for side in ("base", "change"))
            ratio = change / base if base else float("nan")
            print(
                f"{name:28s} base {base:10.4g}  change {change:10.4g} {metric['unit']:5s}"
                f"  change/base {ratio:.3f}"
            )
    for side in sides:
        print(f"{side:6s} correct: {runs[side]['correct']}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Alternating base/change pairs of BENCHMARK.json workloads."
    )
    parser.add_argument("base_dir", help="checkout of the commit to compare against")
    parser.add_argument(
        "--workload", action="append", default=[], help="repeatable"
    )
    parser.add_argument(
        "--all", action="store_true", help="every workload BENCHMARK.json declares"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, help="per pass (default: BENCHMARK.json run_seconds)"
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--layers",
        metavar="WORKLOAD",
        help="instead: one layers pass of WORKLOAD per side, layer metrics side by side",
    )
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in benchmark["workloads"]]
    for workload in args.workload + ([args.layers] if args.layers else []):
        if workload not in declared:
            parser.error(f"unknown workload {workload!r}")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    sides = {"base": pathlib.Path(args.base_dir).resolve(), "change": ROOT}
    if args.layers:
        layers(benchmark, sides, args.layers, seconds, args.seed)
        return 0
    workloads = declared if args.all else list(dict.fromkeys(args.workload))
    if not workloads:
        parser.error("name a --workload (repeatable), --all or --layers WORKLOAD")

    results = {}
    for workload in workloads:
        if results:
            print()
        results[workload] = compare(
            benchmark, sides, workload, args.pairs, seconds, args.seed
        )

    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    print("\nall workloads  (change/base verdict; failed ops base / change)")
    print(f"{'':18s}" + "".join(f"{name:>22s}" for name in metrics) + "  failed")
    bad = False
    for workload, (verdicts, failures) in results.items():
        found = objections(verdicts, failures)
        bad = bad or bool(found)
        cells = "".join(
            "{:>22s}".format(f"{ratio:.3f} {verdict.split(' (')[0]}")
            for ratio, verdict in (verdicts[name] for name in metrics)
        )
        print(
            f"{workload:18s}{cells}  {failures['base'][0]} / {failures['change'][0]}"
            + "".join(f"  {marker}" for marker in found)
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
