"""What the transformer emits for the benchmark corpus, base against change.

For every function of ``perfbench/data.py::corpus_sources()`` under the
three option sets the repo benchmark uses —

    asyncify_source(src)
    asyncify_source(src, prefetch=True)
    prefetch_source(src, speculate=True)

— one line: the sha1 of the emitted source, loops found/transformed,
each ``LoopReport`` as ``(function, kind, [(status, reason, label)])``
and each ``PrefetchSite`` as ``(function, label, hoisted_past, guarded,
speculative)``, so a change to the engine or the insertion pass shows
whether it kept the report (every outcome's and site's label included)
as well as the text.  The emitter runs in a subprocess whose working
directory is the checkout it reports on, so BASE_DIR (a ``git clone`` /
``git archive`` of the commit to compare against, outside the
repository) and this checkout each import their own ``src/`` and
``perfbench/``.  Whatever differs is then
printed as a unified diff of the report line and of the emitted source.
A change that means to keep the transformer's output runs it with
``--strict`` (exit 1 on any difference); a change that means to alter it
reads here exactly what it altered, and names the corpus functions it
meant to alter with ``--expect`` (repeatable): ``--strict`` then exits 0
only if the functions whose emission differs are exactly those.

Run from the repository root::

    python tools/emit_diff.py BASE_DIR --strict
    python tools/emit_diff.py BASE_DIR --strict --expect rubis.flag_risky_sellers
"""

import argparse
import difflib
import hashlib
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def emit():
    """This process's checkout (its working directory), as JSON:
    ``{option set: {corpus name: {"line": ..., "source": ...}}}``."""
    here = pathlib.Path.cwd()
    sys.path[:0] = [str(here / "src"), str(here)]
    from perfbench.data import corpus_sources
    from repro.transform import asyncify_source, prefetch_source

    transforms = {
        "asyncify": lambda src: asyncify_source(src),
        "asyncify+prefetch": lambda src: asyncify_source(src, prefetch=True),
        "prefetch+speculate": lambda src: prefetch_source(src, speculate=True),
    }
    out = {}
    for option_set, transform in transforms.items():
        rows = out[option_set] = {}
        for name, source in corpus_sources():
            result = transform(source)
            rows[name] = {
                "line": report_line(result),
                "source": result.source,
                "found": result.opportunities,
                "transformed": result.transformed_loops,
            }
    json.dump(out, sys.stdout)


def report_line(result):
    """One ``TransformResult`` as the line both sides are compared on."""
    reports = [
        (r.function, r.kind, [(o.status, o.reason, o.label) for o in r.outcomes])
        for r in result.reports
    ]
    sites = [
        (s.function, s.label, s.hoisted_past, s.guarded, s.speculative)
        for s in result.prefetch_sites
    ]
    digest = hashlib.sha1(result.source.encode()).hexdigest()
    line = (
        f"{digest}  loops {result.opportunities}/{result.transformed_loops}"
        f"  {reports}"
    )
    return f"{line}  sites {sites}" if sites else line


def emission_of(directory):
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--emit"],
        cwd=directory, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{directory}: emitter failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Emitted source and loop reports of the corpus, base vs change."
    )
    parser.add_argument("base_dir", nargs="?", help="checkout to compare against")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 if anything differs (beyond the --expect functions)",
    )
    parser.add_argument(
        "--expect", action="append", default=[], metavar="NAME",
        help="corpus function meant to change (repeatable); with --strict, "
        "exit 0 only if exactly these differ",
    )
    parser.add_argument(
        "--emit", action="store_true",
        help="print the working directory's emission as JSON (what each side runs)",
    )
    args = parser.parse_args(argv)
    if args.emit:
        emit()
        return 0
    if args.base_dir is None:
        parser.error("name the checkout to compare against")

    base = emission_of(pathlib.Path(args.base_dir).resolve())
    change = emission_of(ROOT)
    differing = 0
    changed = set()
    for option_set, rows in change.items():
        found = sum(row["found"] for row in rows.values())
        transformed = sum(row["transformed"] for row in rows.values())
        print(
            f"{option_set}: {len(rows)} functions, {found} loops found, "
            f"{transformed} transformed"
        )
        for name in sorted(set(rows) | set(base[option_set])):
            ours = rows.get(name, {"line": "(absent)", "source": ""})
            theirs = base[option_set].get(name, {"line": "(absent)", "source": ""})
            same = ours["line"] == theirs["line"]
            print(f"  {'=' if same else '!'} {name:44s} {ours['line']}")
            if same:
                continue
            differing += 1
            changed.add(name)
            print(f"    base: {theirs['line']}")
            for line in difflib.unified_diff(
                theirs["source"].splitlines(),
                ours["source"].splitlines(),
                "base", "change", lineterm="",
            ):
                print(f"    {line}")
    print(
        f"{differing} of {sum(len(rows) for rows in change.values())} "
        "(function, option set) emissions differ from the base"
    )
    expected = set(args.expect)
    if expected:
        print(f"expected to differ: {sorted(expected)}; differ: {sorted(changed)}")
    return 1 if args.strict and changed != expected else 0


if __name__ == "__main__":
    sys.exit(main())
