"""The docs check CI and the verify recipe both run: relative links in
README/docs resolve, every ``repro`` docstring example passes doctest,
``docs/CLI.md``'s flag tables match the argparse parsers,
ARCHITECTURE.md's figure index matches the figure registry and every
`` `path.py::Name` `` in README/docs names a definition in that file.

Run from the repo root: ``PYTHONPATH=src python tools/check_docs.py``.
"""

import argparse
import ast
import doctest
import importlib
import pathlib
import pkgutil
import re
import sys

import repro
from repro.bench import figures
from repro.bench.driver import build_workload_parser
from repro.cli import build_parser


def main() -> None:
    failures = []

    # --- 1. every relative link in README/docs must resolve ---
    link = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
    docs = [pathlib.Path("README.md"), *pathlib.Path("docs").glob("*.md")]
    for doc in docs:
        for target, _anchor in link.findall(doc.read_text()):
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                failures.append(f"{doc}: broken link -> {target}")

    # --- 2. doctest every repro module's docstring examples ---
    attempted = 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        result = doctest.testmod(module, verbose=False)
        attempted += result.attempted
        if result.failed:
            failures.append(
                f"{info.name}: {result.failed} doctest failure(s)"
            )

    # --- 3. docs/CLI.md flag tables == the argparse parsers ---
    # The load-driver section documents `repro workload run`;
    # every other table documents the transform command.
    def long_flags(parser):
        return {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }

    subcommands = next(
        action
        for action in build_workload_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    heading = "## The load driver"
    before, _, rest = pathlib.Path("docs/CLI.md").read_text().partition(heading)
    driver, _, after = rest.partition("\n## ")
    for name, parser, text in (
        ("repro", build_parser(), before + after),
        ("repro workload run", subcommands.choices["run"], driver),
    ):
        documented = {
            flag
            for row in text.splitlines()
            if row.startswith("| `")
            for flag in re.findall(r"--[a-z][a-z-]*", row.split("|")[1])
        }
        registered = long_flags(parser)
        for flag in sorted(registered - documented):
            failures.append(f"docs/CLI.md: `{name}` flag {flag} is undocumented")
        for flag in sorted(documented - registered):
            failures.append(f"docs/CLI.md: {flag} is not a `{name}` flag")

    # --- 4. ARCHITECTURE.md figure index == the figure registry ---
    section = pathlib.Path("docs/ARCHITECTURE.md").read_text().partition(
        "## `repro.bench` + `benchmarks/`"
    )[2].partition("\n## ")[0]
    indexed = {
        row.split("|")[1].strip().strip("`")
        for row in section.splitlines()
        if row.startswith("| `")
    }
    for figure_id in sorted(set(figures.REGISTRY) - indexed):
        failures.append(f"docs/ARCHITECTURE.md: figure {figure_id} is not indexed")
    for figure_id in sorted(indexed - set(figures.REGISTRY)):
        failures.append(f"docs/ARCHITECTURE.md: {figure_id} is not a registered figure")

    # --- 5. every `path.py::Name` reference names a definition ---
    # ``path`` is any tail of a file's path (``plan/planner.py``,
    # ``tests/test_layering.py``); ``Name`` is dotted or ``::``-joined
    # (``HeapTable.live_selection``, ``TestX::test_y``), a call's
    # arguments after it ignored.
    sources = [
        path
        for top in ("src", "tests", "tools", "benchmarks", "perfbench", "examples")
        for path in pathlib.Path(top).glob("**/*.py")
    ]
    reference = re.compile(r"`([\w/.-]+\.py)::\s*([\w.:]+)")
    references = 0
    for doc in docs:
        for path, name in reference.findall(doc.read_text()):
            references += 1
            dotted = name.replace("::", ".").rstrip(".")
            files = [
                source
                for source in sources
                if source.as_posix() == path or source.as_posix().endswith("/" + path)
            ]
            if not any(dotted in defined_names(source) for source in files):
                failures.append(f"{doc}: `{path}::{name}` names no definition")

    if failures:
        sys.exit("docs check failed:\n" + "\n".join(failures))
    print(f"docs ok: {len(docs)} files link-checked, "
          f"{attempted} doctest example(s) passed, CLI flag tables "
          f"and figure index in sync, {references} `path.py::Name` "
          f"reference(s) resolved")


def defined_names(path: pathlib.Path) -> set:
    """Every function, class and assigned name ``path`` defines, dotted
    by the classes it is nested in (``Class.method``)."""
    names = set()

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(
                    prefix + target.id for target in targets if isinstance(target, ast.Name)
                )

    walk(ast.parse(path.read_text()).body, "")
    return names


if __name__ == "__main__":
    main()
