"""``python -m perfbench run|compare`` — see perfbench/README.md.

Run from the repository root.  With ``--workload``, ``run`` is the command
of ``BENCHMARK.json``: one workload, one pass, one JSON line.  Without it
``run`` drives every workload, each pass in a fresh subprocess.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from . import OUT, ROOT, load_spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", help="run only this workload, in-process")
    run.add_argument("--seed", type=int, default=17)
    run.add_argument("--seconds", type=float,
                     help="measuring time per pass (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="with --workload: 1 runs the layers pass")
    run.add_argument("--runs", type=int, default=1,
                     help="repeat the whole sequence this many times")
    run.add_argument("--no-layers", dest="layers", action="store_false",
                     help="skip the layers pass")
    run.add_argument("--out", help="where to write the results "
                     "(default perfbench/out/results.json)")
    run.add_argument("--selftest", action="store_true",
                     help="every workload at small scale, plus checks that "
                     "the oracles can fail")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import compare_files

        return compare_files(args.base, args.change)

    # The program under test is this checkout's, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found: nothing to "
              "measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from . import runner, selftest, stats, suite

    # The sqlite backend keeps its store in a temporary directory: inside
    # the checkout, like everything else a run writes.
    OUT.mkdir(exist_ok=True)
    tempfile.tempdir = str(OUT)

    if args.selftest:
        return selftest.selftest()
    seconds = args.seconds or load_spec()["run_seconds"]
    if args.workload:
        if args.workload not in runner.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r} "
                         f"(one of {', '.join(runner.WORKLOADS)})")
        try:
            result = runner.run_workload(
                args.workload, args.seed, seconds, bool(args.trace))
        except stats.TooFewSamples as refusal:
            print(f"perfbench: {args.workload}: {refusal}; a longer --seconds "
                  "gives more samples", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0
    return suite.run_suite(args.seed, seconds, args.runs, args.layers, args.out)


if __name__ == "__main__":
    sys.exit(main())
