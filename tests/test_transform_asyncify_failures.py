"""Tests: the asyncify front ends, error propagation, failure injection."""

import pytest

from repro.db import Database, INSTANT
from repro.transform import (
    TransformError,
    asyncify,
    asyncify_source,
    prefetch_source,
)
from repro.ir.defuse import harmless_to_reevaluate
from repro.ir.purity import PurityEnv
from repro.transform.registry import default_registry
from tests.helpers import FakeConnection


def is_pure_expression(node, purity):
    return harmless_to_reevaluate(node, purity, default_registry())


# Module-level kernels (asyncify needs retrievable source).
def simple_kernel(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out


def failing_consumer_kernel(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(10 // r.scalar())
    return out


class TestAsyncifyDecorator:
    def test_decorator_transforms(self):
        transformed = asyncify(simple_kernel)
        conn = FakeConnection()
        assert transformed(conn, [1, 2, 3]) == simple_kernel(FakeConnection(), [1, 2, 3])
        assert "submit_query" in transformed.__repro_source__
        assert transformed.__repro_report__[0].transformed

    def test_wraps_metadata(self):
        transformed = asyncify(simple_kernel)
        assert transformed.__name__ == "simple_kernel"

    def test_decorator_with_options(self):
        transformed = asyncify(simple_kernel, window=4)
        conn = FakeConnection()
        assert transformed(conn, list(range(9))) == [
            FakeConnection().execute_query("q", [i]).scalar() for i in range(9)
        ]

    def test_closure_rejected(self):
        outer = 5

        def closes_over(conn, items):
            return [outer for _ in items]

        with pytest.raises(TransformError):
            asyncify(closes_over)

    def test_builtin_rejected(self):
        with pytest.raises(TransformError):
            asyncify(len)

    def test_non_function_with_reachable_source_rejected(self):
        """``inspect.getsource`` follows ``__wrapped__``, so the source of
        an ``lru_cache`` wrapper is found — but there is no module
        namespace to recompile it into."""
        import functools

        with pytest.raises(TransformError, match="not a plain function"):
            asyncify(functools.lru_cache(simple_kernel))

    @pytest.mark.parametrize(
        "front_end",
        [
            lambda **options: asyncify_source("x = 1", **options),
            lambda **options: prefetch_source("x = 1", **options),
            lambda **options: asyncify(simple_kernel, **options),
        ],
        ids=["asyncify_source", "prefetch_source", "asyncify"],
    )
    def test_front_ends_forward_options_to_the_engine(self, front_end):
        """The option list is ``TransformEngine.__init__``'s; the front
        ends forward, so an unknown option is the engine's TypeError."""
        with pytest.raises(TypeError, match="no_such_option"):
            front_end(no_such_option=1)
        front_end(window=2, select=lambda function, label: True)

    def test_decorator_syntax(self):
        @asyncify
        def decorated(conn, items):
            out = []
            for item in items:
                r = conn.execute_query("q", [item])
                out.append(r.scalar())
            return out

        conn = FakeConnection()
        assert decorated(conn, [5, 6]) == simple_kernel(FakeConnection(), [5, 6])


class TestErrorPropagation:
    def test_query_error_surfaces_at_fetch_in_iteration_order(self):
        transformed = asyncify(simple_kernel)
        conn = FakeConnection(fail_on=lambda sql, params: params == (3,))
        progress = []
        original = FakeConnection(fail_on=lambda sql, params: params == (3,))
        with pytest.raises(RuntimeError):
            simple_kernel(original, [1, 2, 3, 4])
        with pytest.raises(RuntimeError):
            transformed(conn, [1, 2, 3, 4])
        # Every request was still submitted (submission happens first),
        # but the failure surfaced when iteration 3's result was fetched.
        submitted = [params for _k, _s, params in conn.calls]
        assert (1,) in submitted and (4,) in submitted

    def test_consumer_error_propagates(self):
        transformed = asyncify(failing_consumer_kernel)
        conn = FakeConnection(answer=lambda sql, params: 0)
        with pytest.raises(ZeroDivisionError):
            transformed(conn, [1])

    def test_real_database_error_at_fetch(self):
        db = Database(INSTANT)
        db.create_table("t", ("a", "int"))
        db.bulk_load("t", [(1,)])
        conn = db.connect(async_workers=2)

        @asyncify
        def bad_loop(connection, items):
            out = []
            for item in items:
                r = connection.execute_query("SELECT a FROM nope WHERE a = ?", [item])
                out.append(r.scalar())
            return out

        from repro.db.errors import UnknownTableError

        with pytest.raises(UnknownTableError):
            bad_loop(conn, [1, 2])
        conn.close()
        db.close()


class TestSourceFrontEnd:
    def test_asyncify_source_reports(self):
        result = asyncify_source(
            """
def k(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
"""
        )
        assert result.transformed_loops == 1
        assert "submit_query" in result.source

    def test_methods_inside_classes_transform(self):
        result = asyncify_source(
            """
class Repo:
    def load(self, conn, items):
        out = []
        for item in items:
            r = conn.execute_query("q", [item])
            out.append(r.scalar())
        return out
"""
        )
        assert result.transformed_loops == 1

    def test_self_receiver_supported(self):
        result = asyncify_source(
            """
class Repo:
    def load(self, items):
        out = []
        for item in items:
            r = self.conn.execute_query("q", [item])
            out.append(r.scalar())
        return out
"""
        )
        assert result.transformed_loops == 1
        assert "self.conn.submit_query" in result.source


class TestPurityPredicate:
    def test_pure_expressions(self):
        purity = PurityEnv()
        import ast

        assert is_pure_expression(ast.parse("len(x) > 0", mode="eval").body, purity)
        assert is_pure_expression(ast.parse("a + b * c", mode="eval").body, purity)
        assert is_pure_expression(
            ast.parse("d.get(k) is not None", mode="eval").body, purity
        )

    def test_impure_expressions(self):
        purity = PurityEnv()
        import ast

        assert not is_pure_expression(
            ast.parse("stack.pop() > 0", mode="eval").body, purity
        )
        assert not is_pure_expression(
            ast.parse("mystery(x) > 0", mode="eval").body, purity
        )
