#!/usr/bin/env python3
"""Which functions under ``src/repro`` does real traffic reach?

    python tools/traffic.py               # run every traffic command, list what none entered
    python tools/traffic.py --list        # only print the commands
    python tools/traffic.py --base ../base  # ... and only what changed against another checkout
    python tools/traffic.py --statements  # ... and every SQL text the traffic prepared

A function-level call trace that makes "did we verify or guess the
traffic?" reproducible.  ``sys.setprofile`` and ``threading.setprofile``
record every Python function entered while each traffic command runs in
this process, through ``runpy`` (as ``python -m ...`` or ``python
file.py`` would run it).  Then every function defined under
``src/repro`` that no command entered is printed, grouped by module.
Tests are not traffic: a function only the test suite calls is listed.

The traffic: the repo benchmark (every workload of ``BENCHMARK.json``,
its layers pass at ``--seconds 1``), the figure smoke, the load-driver
lines CI runs, every example, the transform CLI under its main
options, and the ``repro stats`` and ``repro trace`` subcommands.
Everything they write (perfbench results and traces, bench
JSON, the sqlite stores' scratch files) goes to a temporary directory
that is removed at exit: nothing lands in the checkout.  A full run
takes a few minutes; it exits 1 if a command failed.

With ``--base DIR`` the traffic of the checkout at ``DIR`` (its own
``tools/traffic.py`` and command list, ``src/``, ``perfbench/``,
examples and ``BENCHMARK.json``) runs as well, in a child process, and only the functions that joined or left the
unreached list are printed, with both totals, as ``tools/sloc.py
--base`` prints lines.

With ``--statements`` the trace also records the ``sql`` text each
``Backend.prepare`` parses (a prepare-cache miss), and then prints every
distinct text — with ``--base``, only the texts that joined or left —
so "which SQL does the traffic send?" is measured, not grepped for.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``python -m repro workload run`` as CI's load-driver smoke runs it.
WORKLOAD_RUNS = (
    "--mode closed -c 4 -d 2 --read-pct 90 --coalesce --users 400 --quiet"
    " --slo p99=2.0 --slo write:p99=2.0",
    "--mode open --rate 120 -d 2 --read-pct 80 --detail-pct 20 --speculate"
    " --coalesce --users 400 --quiet --slo p99=2.0 --csv bench-out/workload.csv",
    "--mode closed -c 4 -d 2 --read-pct 90 --coalesce --backend sqlite"
    " --users 400 --quiet --slo p99=2.0 --slo write:p99=2.0",
)

#: The documented subcommands beside the transformer (docs/CLI.md), each
#: over a small demonstration workload.
SUBCOMMANDS = (
    ("stats", "--ops", "20"),
    ("trace", "--ops", "10"),
)

#: The transform CLI's option sets, each run over the quickstart example.
CLI_OPTIONS = (
    ("--report",),
    ("--analyze",),
    ("--prefetch", "--speculate"),
    ("--window", "8", "--no-reorder", "--commuting-updates"),
)


def commands(root: Path = ROOT) -> List[Tuple[str, ...]]:
    """Every traffic command of the checkout at ``root``, as the
    arguments after ``python``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    runs: List[Tuple[str, ...]] = [
        ("-m", "perfbench", "run", "--workload", workload["name"],
         "--seconds", "1", "--trace", "1")
        for workload in spec["workloads"]
    ]
    runs.append((str(root / "tools" / "bench_smoke.py"), "--figures"))
    runs += [("-m", "repro", "workload", "run", *line.split()) for line in WORKLOAD_RUNS]
    runs += [("-m", "repro", *subcommand) for subcommand in SUBCOMMANDS]
    runs += [(str(path),) for path in sorted((root / "examples").glob("*.py"))]
    quickstart = str(root / "examples" / "quickstart.py")
    runs += [("-m", "repro", quickstart, *options) for options in CLI_OPTIONS]
    return runs


def _run(argv: Sequence[str]) -> None:
    """Run ``python *argv`` in this process."""
    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    elif argv[0] == "-c":
        sys.argv = ["-c", *argv[2:]]
        exec(compile(argv[1], "<traffic>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = list(argv)
        runpy.run_path(argv[0], run_name="__main__")


def trace(
    runs: Iterable[Sequence[str]], root: Path = ROOT
) -> Tuple[Set[Tuple[str, int]], List[str], Set[str]]:
    """Run every command under the call trace, in a temporary working
    directory, importing ``root``'s ``repro`` and ``perfbench``; returns
    ``(reached, failed, statements)``: the ``(file, first line)`` of
    every code object entered, the commands that exited non-zero or
    raised, and every SQL text ``Backend.prepare`` parsed."""
    codes: Set[object] = set()
    statements: Set[str] = set()
    tracing = [True]  # a thread a command left running stops recording
    saved = (os.getcwd(), sys.argv, dict(os.environ), tempfile.tempdir, list(sys.path))
    sys.path[:0] = [str(root / "src"), str(root)]
    # Known by name: importing ``repro`` here, outside the trace, would
    # hide the functions its import runs.
    parser_file = os.path.join("repro", "db", "sql", "parser.py")

    def profile(frame, event, _arg):
        if event == "call" and tracing[0]:
            code = frame.f_code
            codes.add(code)
            if (
                code.co_name == "parse"
                and frame.f_back.f_code.co_name == "prepare"
                and code.co_filename.endswith(parser_file)
            ):
                statements.add(frame.f_locals["sql"])

    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-traffic-") as scratch:
        os.chdir(scratch)
        os.environ["REPRO_BENCH_OUT"] = os.path.join(scratch, "bench-out")
        import perfbench

        # perfbench writes its results, traces and sqlite stores here.
        out, perfbench.OUT = perfbench.OUT, Path(scratch) / "perfbench"
        try:
            for argv in runs:
                shown = " ".join(argv).replace(f"{root}{os.sep}", "")
                started = time.perf_counter()
                tempfile.tempdir = scratch
                threading.setprofile(profile)
                sys.setprofile(profile)
                try:
                    with open("output.log", "a") as output, contextlib.redirect_stdout(
                        output
                    ), contextlib.redirect_stderr(output):
                        _run(argv)
                except SystemExit as exit_:
                    if exit_.code not in (None, 0):
                        failed.append(f"{shown} (exit {exit_.code})")
                except Exception as exc:  # reported, not fatal
                    failed.append(f"{shown} ({type(exc).__name__}: {exc})")
                finally:
                    sys.setprofile(None)
                    threading.setprofile(None)
                elapsed = time.perf_counter() - started
                print(f"traffic: {shown}  ({elapsed:.1f} s)", file=sys.stderr)
        finally:
            tracing[0] = False
            perfbench.OUT = out
            cwd, sys.argv, environ, tempfile.tempdir, sys.path[:] = saved
            os.environ.clear()
            os.environ.update(environ)
            os.chdir(cwd)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
    return reached, failed, statements


def defined(src: Path = SRC) -> Dict[Tuple[str, int], Tuple[str, str]]:
    """``(file, first line) -> (module, qualified name)`` for every
    function under ``src``; the first line is the one its code object
    reports, a decorated function's first decorator."""
    functions: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for path in sorted(src.rglob("*.py")):
        parts = ("repro",) + path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        filename = os.path.realpath(path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(filename, line)] = (module, prefix + child.name)
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return functions


def unreached(reached: Set[Tuple[str, int]], src: Path = SRC) -> Dict[str, List[str]]:
    """Module -> the qualified names of its functions not in ``reached``."""
    modules: Dict[str, List[str]] = {}
    for key, (module, name) in defined(src).items():
        if key not in reached:
            modules.setdefault(module, []).append(name)
    return modules


def report(root: Path = ROOT) -> dict:
    """Run the traffic of the checkout at ``root``: ``{"unreached":
    {module: [name, ...]}, "total": functions defined, "failed":
    [command, ...], "statements": [sql, ...]}``."""
    reached, failed, statements = trace(commands(root), root)
    src = root / "src" / "repro"
    return {
        "unreached": unreached(reached, src),
        "total": len(defined(src)),
        "failed": failed,
        "statements": sorted(statements),
    }


def _base_report(base: Path) -> dict:
    """The base checkout's own :func:`report` — its ``tools/traffic.py``,
    so its own command list — run in a child process so that it imports
    that checkout's modules, not ours."""
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import traffic; "
        "print(json.dumps(traffic.report(traffic.Path(sys.argv[2]))))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(base / "tools"), str(base)],
        cwd=base,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode or not lines:
        raise SystemExit(f"traffic: the base run failed (exit {child.returncode})")
    return json.loads(lines[-1])


def _names(found: Dict[str, List[str]]) -> Set[Tuple[str, str]]:
    return {(module, name) for module, names in found.items() for name in names}


def _count(found: Dict[str, List[str]]) -> int:
    return sum(len(names) for names in found.values())


def _print_changes(head: dict, base: dict, base_src: Path) -> None:
    """The functions that joined or left the unreached list, then both
    totals.  A function one side does not define is marked."""
    now, was = _names(head["unreached"]), _names(base["unreached"])
    defined_now = set(defined().values())
    defined_then = set(defined(base_src).values())
    for title, names, other_side in (
        ("joined the unreached list:", now - was, defined_then),
        ("left the unreached list:", was - now, defined_now),
    ):
        print(title)
        for module, name in sorted(names):
            note = "" if (module, name) in other_side else "  (not defined on the other side)"
            print(f"    {module}  {name}{note}")
        if not names:
            print("    (none)")
    print(
        f"unreached: {_count(head['unreached'])} of {head['total']} functions under"
        f" src/repro (base: {_count(base['unreached'])} of {base['total']})"
    )


def _print_statements(head: dict, base=None) -> None:
    """Every SQL text the traffic prepared or, against ``base``, the
    texts that joined or left, then both counts."""
    now = set(head["statements"])
    if base is None:
        for sql in sorted(now):
            print(f"    {sql}")
        print(f"{len(now)} distinct statement texts prepared by the traffic")
        return
    was = set(base["statements"])
    for title, texts in (("statements joined:", now - was), ("statements left:", was - now)):
        print(title)
        for sql in sorted(texts):
            print(f"    {sql}")
        if not texts:
            print("    (none)")
    print(f"statements: {len(now)} distinct texts (base: {len(was)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the commands and exit")
    parser.add_argument(
        "--base",
        metavar="DIR",
        help="another checkout: run its traffic too, print only what changed",
    )
    parser.add_argument(
        "--statements",
        action="store_true",
        help="also print the SQL texts the traffic prepared (with --base: what changed)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for run in commands():
            print("python", " ".join(run).replace(f"{ROOT}{os.sep}", ""))
        return 0
    head = report()
    failed = list(head["failed"])
    if args.base:
        base_root = Path(args.base).resolve()
        base = _base_report(base_root)
        failed += [f"{command} (base)" for command in base["failed"]]
        _print_changes(head, base, base_root / "src" / "repro")
        if args.statements:
            _print_statements(head, base)
    else:
        missing = head["unreached"]
        for module in sorted(missing):
            print(module)
            for name in missing[module]:
                print(f"    {name}")
        print(
            f"{_count(missing)} of {head['total']} functions under src/repro"
            " entered by no traffic command"
        )
        if args.statements:
            _print_statements(head)
    for command in failed:
        print(f"traffic: FAILED {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
