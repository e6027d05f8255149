"""User-facing front ends: source-to-source and decorator transforms."""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from typing import Callable, Optional

from .engine import TransformEngine, TransformResult
from .errors import TransformError


def asyncify_source(source: str, *, reorder: bool = True, **options) -> TransformResult:
    """Transform module source text; returns the rewritten source plus a
    per-loop report (see :class:`~repro.transform.engine.TransformResult`).
    ``reorder=False`` disables Section IV's statement reordering; every
    other option is :class:`~repro.transform.engine.TransformEngine`'s."""
    engine = TransformEngine(reorder_enabled=reorder, **options)
    return engine.transform_source(source)


def asyncify(func: Optional[Callable] = None, **options):
    """Decorator / wrapper that rewrites a function for asynchronous
    query submission::

        @asyncify
        def load_authors(conn, comments):
            out = []
            for comment in comments:
                row = conn.execute_query(AUTHOR_SQL, [comment["author"]])
                out.append(row.scalar())
            return out

    The rewritten function exposes its transformed source as
    ``func.__repro_source__`` and the transformation report as
    ``func.__repro_report__``.  ``options`` are
    :func:`asyncify_source`'s.  Functions with closures cannot be
    recompiled faithfully and are rejected.
    """

    def wrap(target: Callable) -> Callable:
        if getattr(target, "__closure__", None):
            raise TransformError(
                f"{target.__name__} closes over outer variables; "
                "asyncify can only recompile top-level functions"
            )
        try:
            source = textwrap.dedent(inspect.getsource(target))
        except (OSError, TypeError) as exc:
            raise TransformError(
                f"source of {target!r} is unavailable: {exc}"
            ) from exc
        if not hasattr(target, "__globals__"):
            # e.g. a functools.lru_cache wrapper, whose source is reachable.
            raise TransformError(
                f"{target!r} is not a plain function; apply asyncify to "
                "the function itself, beneath other decorators"
            )
        tree = ast.parse(source)
        if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
            raise TransformError("asyncify expects a plain function definition")
        # Drop decorators (including asyncify itself) before recompiling.
        tree.body[0].decorator_list = []
        result = asyncify_source(ast.unparse(tree), **options)
        namespace = dict(target.__globals__)
        # Round-trip through source: generated nodes carry synthetic line
        # numbers that the compiler may reject as inconsistent ranges.
        code = compile(result.source, f"<asyncified {target.__name__}>", "exec")
        exec(code, namespace)
        transformed = namespace[target.__name__]
        functools.update_wrapper(transformed, target)
        transformed.__repro_source__ = result.source
        transformed.__repro_report__ = result.reports
        transformed.__repro_result__ = result
        return transformed

    if func is not None:
        return wrap(func)
    return wrap
