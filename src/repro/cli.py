"""Command line front end: ``python -m repro <file.py>``.

Rewrites a Python source file for asynchronous query submission and
prints (or writes) the result, plus the per-loop transformation report
— the command-line equivalent of the paper's source-to-source tool.

Three subcommands ride alongside the transformer:

* ``repro stats [--json]`` — run a small demonstration workload through
  the full pipeline (cache + set-oriented dispatch + metrics) and print
  the unified :class:`~repro.obs.metrics.MetricsRegistry` snapshot;
* ``repro trace [--json]`` — run traced queries and print the recorded
  span trees (or the raw span export as JSON);
* ``repro workload run`` — the open/closed-loop load driver
  (:mod:`repro.bench.driver`): sustained concurrent traffic over the
  hotset workload with per-op p50–p99, ``BENCH_workload.json``
  emission, and ``--slo`` gating.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis.applicability import analyze_source
from .transform import asyncify_source, prefetch_source
from .transform.errors import TransformError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Rewrite blocking query loops for asynchronous submission "
            "(Chavan et al., ICDE 2011)."
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("source", help="Python source file to transform")
    parser.add_argument(
        "-o", "--output",
        help="write the transformed source here (default: stdout)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help=(
            "print the transformation report (per-loop outcomes and, "
            "with --prefetch, per-site hoists) to stderr"
        ),
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="only analyze applicability (Table I style); do not rewrite",
    )
    parser.add_argument(
        "--no-reorder", action="store_true",
        help="disable the statement reordering algorithm (Section IV)",
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="bound in-flight submissions per loop (Discussion section)",
    )
    parser.add_argument(
        "--prefetch", action="store_true",
        help=(
            "additionally run prefetch insertion: hoist remaining "
            "straight-line query submissions to their earliest safe "
            "point (repro.prefetch)"
        ),
    )
    parser.add_argument(
        "--speculate", action="store_true",
        help=(
            "enable speculative (unguarded) prefetch: a read-only "
            "submit may be hoisted above its consuming conditional even "
            "when the guard is unknown, as a speculate_query dispatch "
            "whose handle is abandoned if the guard turns out false; "
            "each site is gated by the cost model's breakeven advice "
            "(requires --prefetch)"
        ),
    )
    parser.add_argument(
        "--speculate-threshold", type=float, default=None, metavar="P",
        help=(
            "minimum hit probability (0..1) the pass's static estimate "
            "(0.5 for every site) must clear to speculate — in effect "
            "an on/off confidence gate today: above 0.5 disables all "
            "speculation, otherwise the profile's breakeven point "
            "decides (requires --speculate; per-site estimates are "
            "policy/API-level)"
        ),
    )
    parser.add_argument(
        "--commuting-updates", action="store_true",
        help="declare execute_update calls commutative (Experiment 4)",
    )
    parser.add_argument(
        "--barrier", action="append", default=[], metavar="METHOD",
        help=(
            "treat METHOD calls as transaction-scope barriers that no "
            "statement may cross (begin/commit/rollback/transaction are "
            "built in); repeatable"
        ),
    )
    return parser


def _demo_workload(db, conn, ops: int) -> None:
    """A tiny hotset workload exercising every pipeline stage: repeated
    reads (cache hits), bursts of same-statement submits (coalescing),
    and blocking calls — enough signal for stats/trace output."""
    db.create_table("part", ("part_key", "int"), ("category_id", "int"))
    db.bulk_load("part", [(i, i % 7) for i in range(200)])
    sql = "SELECT count(*) FROM part WHERE category_id = ?"
    for round_no in range(max(1, ops // 10)):
        handles = [conn.submit_query(sql, [c % 7]) for c in range(10)]
        for handle in handles:
            conn.fetch_result(handle)
        conn.execute_query(sql, [round_no % 7])


def stats_main(argv: Sequence[str]) -> int:
    """``repro stats``: run the demo workload, print the unified
    metrics snapshot (counters, histogram percentiles, every registered
    stats source)."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Run a demonstration workload through the cache-aware, "
            "set-oriented submission pipeline and print the unified "
            "metrics registry snapshot."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )
    parser.add_argument(
        "--ops", type=int, default=100, metavar="N",
        help="approximate number of queries to run (default 100)",
    )
    args = parser.parse_args(argv)
    from .db import Database, INSTANT
    from .prefetch.cache import ResultCache

    with Database(INSTANT) as db:
        with db.connect(
            result_cache=ResultCache(capacity=256),
            coalesce=True,
            metrics=True,
        ) as conn:
            _demo_workload(db, conn, args.ops)
            snapshot = db.stats_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, default=str))
    else:
        _print_tree(snapshot)
    return 0


def trace_main(argv: Sequence[str]) -> int:
    """``repro trace``: run traced queries and print the span trees."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Run traced queries through the submission pipeline and "
            "print the recorded span trees (submit -> cache -> coalesce "
            "-> dispatch -> server execute -> fetch)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the raw span export as JSON instead of the tree view",
    )
    parser.add_argument(
        "--ops", type=int, default=20, metavar="N",
        help="approximate number of queries to run (default 20)",
    )
    args = parser.parse_args(argv)
    from .db import Database, INSTANT
    from .prefetch.cache import ResultCache

    with Database(INSTANT) as db:
        with db.connect(
            result_cache=ResultCache(capacity=256),
            coalesce=True,
            trace=True,
        ) as conn:
            _demo_workload(db, conn, args.ops)
            if args.json:
                print(json.dumps(db.tracer.export(), indent=2, default=str))
            else:
                print(db.tracer.format_traces())
    return 0


def _print_tree(value, indent: int = 0) -> None:
    """Plain-text rendering of a nested snapshot dict."""
    pad = "  " * indent
    for key, item in value.items():
        if isinstance(item, dict):
            print(f"{pad}{key}:")
            _print_tree(item, indent + 1)
        elif isinstance(item, float):
            print(f"{pad}{key}: {item:.6g}")
        else:
            print(f"{pad}{key}: {item}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed the pipe (``repro app.py | head``): point
        # stdout at devnull so the interpreter's exit-time flush cannot
        # fail again, and exit quietly (the ``signal`` module docs'
        # recipe for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: Optional[Sequence[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stats":
        return stats_main(list(argv[1:]))
    if argv and argv[0] == "trace":
        return trace_main(list(argv[1:]))
    if argv and argv[0] == "workload":
        from .bench.driver import workload_main

        return workload_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.speculate and not args.prefetch:
        parser.error("--speculate requires --prefetch")
    if args.speculate_threshold is not None:
        if not args.speculate:
            parser.error("--speculate-threshold requires --speculate")
        if not 0.0 <= args.speculate_threshold <= 1.0:
            parser.error(
                "--speculate-threshold must be within [0, 1], got "
                f"{args.speculate_threshold}"
            )
    path = Path(args.source)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"repro: cannot read {path}: {exc}", file=sys.stderr)
        return 2

    registry = None
    if args.commuting_updates or args.barrier:
        from .transform.registry import default_registry

        registry = default_registry()
        if args.commuting_updates:
            registry = registry.with_effect("execute_update", "commuting_write")
        for method in args.barrier:
            registry.register_barrier(method)

    if args.analyze:
        report = analyze_source(source, application=path.name, registry=registry)
        print(report.details())
        return 0

    try:
        if args.prefetch:
            result = prefetch_source(
                source,
                registry=registry,
                reorder=not args.no_reorder,
                window=args.window,
                speculate=args.speculate,
                speculate_threshold=args.speculate_threshold,
            )
        else:
            result = asyncify_source(
                source,
                registry=registry,
                reorder=not args.no_reorder,
                window=args.window,
            )
    except (TransformError, SyntaxError) as exc:
        print(f"repro: transformation failed: {exc}", file=sys.stderr)
        return 1

    if args.output:
        try:
            Path(args.output).write_text(result.source + "\n")
        except OSError as exc:
            print(f"repro: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(result.source)
    if args.report:
        print(result.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
