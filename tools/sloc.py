#!/usr/bin/env python3
"""Code-only line counts: how "net line count should trend down" is measured.

    python tools/sloc.py [PATH...]             # default: src
    python tools/sloc.py --base ../base src    # ... and the delta against another checkout

A *code line* is a physical line carrying at least one token that is not
a comment — blank lines, comment-only lines and docstrings (the leading
string statement of a module, class or function) are not counted, so a
file's 115-line narrative docstring does not read as 115 lines of
program the way ``wc -l`` reads it.  Counts are printed per file, per
package (directory) and in total; with ``--base DIR`` every row also
shows the same path's count under ``DIR`` and the difference (a file
present on one side only counts as 0 on the other).  Standard library
only (``tokenize`` + ``ast``); exits 2 on a file that does not parse.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from typing import Dict, Iterable, Set

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Physical lines of ``source`` that carry code."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def _python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def count_tree(paths: Iterable[str], root: str = ".") -> Dict[str, int]:
    """``{path relative to root: code lines}`` for every ``.py`` under
    ``paths`` (themselves relative to ``root``); missing paths count
    nothing."""
    counts: Dict[str, int] = {}
    for path in paths:
        for filename in _python_files(os.path.join(root, path)):
            with open(filename, encoding="utf-8") as handle:
                counts[os.path.relpath(filename, root)] = count_code_lines(
                    handle.read()
                )
    return counts


def _by_package(counts: Dict[str, int]) -> Dict[str, int]:
    packages: Dict[str, int] = {}
    for path, lines in counts.items():
        package = os.path.dirname(path) or "."
        packages[package] = packages.get(package, 0) + lines
    return packages


def _rows(title: str, head: Dict[str, int], base) -> Iterable[str]:
    yield title
    for name in sorted(set(head) | set(base or ())):
        now = head.get(name, 0)
        if base is None:
            yield f"  {now:7d}  {name}"
        else:
            was = base.get(name, 0)
            yield f"  {now:7d}  {was:7d}  {now - was:+6d}  {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="code-only line counts (no blanks, comments, docstrings)"
    )
    parser.add_argument("paths", nargs="*", default=["src"], metavar="PATH")
    parser.add_argument(
        "--base",
        metavar="DIR",
        help="another checkout: print its counts and the delta beside ours",
    )
    args = parser.parse_args(argv)
    try:
        head = count_tree(args.paths)
        base = count_tree(args.paths, args.base) if args.base else None
    except (SyntaxError, tokenize.TokenError) as exc:
        print(f"sloc: cannot parse: {exc}", file=sys.stderr)
        return 2
    lines = ["     code     base   delta" if base is not None else "     code"]
    lines.extend(_rows("files:", head, base))
    lines.extend(
        _rows(
            "packages:",
            _by_package(head),
            None if base is None else _by_package(base),
        )
    )
    total = {"total": sum(head.values())}
    lines.extend(
        _rows("total:", total, None if base is None else {"total": sum(base.values())})
    )
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
