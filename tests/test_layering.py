"""Prepare means prepared: the seam between statements and requests.

What depends only on a statement is decided once, at prepare: the plan
owns its value semantics, ``PreparedStatement`` carries its shape, and a
store compiles its SQL in ``_plan``.  These tests pin that seam three
ways — by reading the source (who may import the SQL front end, who may
touch an AST), by tabulating the shape every statement kind gets on
both stores, and by counting dialect translations during execution
(there must be none).
"""

import ast
import pathlib

import pytest

import repro
from repro.backends import BACKENDS, dialect
from repro.backends import sqlite as sqlite_store
from repro.backends.ledger import stripe_of
from repro.db import Database, INSTANT

SRC = pathlib.Path(repro.__file__).parent


def modules(package):
    """``(dotted package of the file, parsed tree)`` for every module
    under ``repro.<package>`` (a single module when it is a file)."""
    root = SRC / package
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root.with_suffix(".py")]
    assert paths, package
    for path in paths:
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts[:-1]), ast.parse(path.read_text())


def imports(package_of_file, tree):
    """``(module, name)`` for every import in ``tree``, relative imports
    resolved against the importing file's package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package_of_file.split(".")
            if node.level:
                base = base[: len(base) - (node.level - 1)]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            for alias in node.names:
                yield module, alias.name


REQUEST_PATH = ("core", "client", "runtime", "web")


class TestLayering:
    @pytest.mark.parametrize("package", REQUEST_PATH + ("prefetch",))
    def test_request_path_never_imports_the_sql_front_end(self, package):
        for package_of_file, tree in modules(package):
            for module, name in imports(package_of_file, tree):
                full = module if name is None else f"{module}.{name}"
                assert not full.startswith("repro.db.sql"), (
                    f"{package_of_file} imports {full}"
                )

    @pytest.mark.parametrize("package", REQUEST_PATH)
    def test_request_path_reads_no_ast(self, package):
        for package_of_file, tree in modules(package):
            for node in ast.walk(tree):
                assert not (
                    isinstance(node, ast.Attribute) and node.attr == "ast"
                ), f"{package_of_file}:{node.lineno} reads .ast"

    @pytest.mark.parametrize("package", ("backends", "db"))
    def test_no_store_reaches_for_a_cache(self, package):
        """Cache coherence is pull-only: a store publishes write epochs
        and never learns that a result cache exists."""
        for package_of_file, tree in modules(package):
            for module, name in imports(package_of_file, tree):
                assert not module.startswith("repro.prefetch"), (
                    f"{package_of_file} imports {module}"
                )
            for node in ast.walk(tree):
                assert not (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("invalidate_table", "invalidate_all")
                ), f"{package_of_file}:{node.lineno} calls {node.attr}"

    def test_nothing_waits_on_a_backend_future_it_just_made(self):
        """``backend.submit*(...).result()`` is a second thread hop
        around a statement the caller is about to wait for anyway: the
        blocking entries (``execute`` / ``execute_prepared`` /
        ``execute_prepared_batch``) run it in the caller's thread under
        the same admission gate.  The Future surface is for callers that
        overlap several statements before waiting."""
        futures = ("submit", "submit_prepared", "submit_prepared_batch")
        for package_of_file, tree in modules(""):
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "result"
                ):
                    continue
                made = node.func.value
                assert not (
                    isinstance(made, ast.Call)
                    and isinstance(made.func, ast.Attribute)
                    and made.func.attr in futures
                ), f"{package_of_file}:{node.lineno} {made.func.attr}(...).result()"

    def test_sqlite_store_reads_only_public_plan_members(self):
        ((package_of_file, tree),) = modules("backends/sqlite")
        for module, name in imports(package_of_file, tree):
            if module.startswith("repro.db.plan"):
                assert not name.startswith("_"), f"imports {module}.{name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                owner = node.value
                owner = getattr(owner, "id", getattr(owner, "attr", ""))
                assert owner != "plan", f"line {node.lineno}: plan.{node.attr}"


TRANSFORMER = ("ir", "analysis", "transform", "prefetch")


def functions(package):
    """``(dotted package of the file, function definition)`` for every
    function under ``repro.<package>``."""
    for package_of_file, tree in modules(package):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield package_of_file, node


def calls_of(function, attr):
    return [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


class TestTransformerOwners:
    """One owner per question the transformer asks: ``ir`` about one
    statement, ``analysis.ddg`` about two, ``transform.codegen`` about
    emitted AST, ``TransformEngine.__init__`` about the options.  The
    rule modules and the prefetch pass ask; they keep no copy."""

    def test_external_conflicts_are_asked_of_the_ddg(self):
        """``conflicting_resources`` is the raw set test inside
        ``ddg.external_dependences``; a module importing it is about to
        re-derive the wildcard / commuting rules beside the owner."""
        for package_of_file, tree in modules(""):
            for module, name in imports(package_of_file, tree):
                assert name != "conflicting_resources", (
                    f"{package_of_file} imports {module}.{name}"
                )

    def test_generated_nodes_are_positioned_in_one_place(self):
        stores = [
            node
            for package in ("transform", "prefetch")
            for _package_of_file, tree in modules(package)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "lineno"
            and isinstance(node.ctx, ast.Store)
        ]
        assert len(stores) == 1  # codegen.located

    def test_registered_calls_are_found_by_the_ir_only(self):
        """Walking an AST for ``registry.lookup(name)`` matches is
        ``ir.statements.query_calls``; nothing else does both."""
        for package_of_file, function in functions(""):
            if package_of_file == "repro.ir":
                continue
            assert not (
                calls_of(function, "walk") and calls_of(function, "lookup")
            ), f"{package_of_file}: {function.name} walks an AST for registry names"

    def test_reevaluation_is_asked_of_the_ir(self):
        """"Is evaluating this expression again harmless?" is
        ``ir.defuse.harmless_to_reevaluate``; a module asking the purity
        environment call by call is about to answer it a second way
        (the window wrapper's copy called a registered query pure)."""
        for package_of_file, function in functions(""):
            if package_of_file == "repro.ir":
                continue
            asked = calls_of(function, "is_pure_function") + calls_of(
                function, "method_mutates_receiver"
            )
            assert not asked, f"{package_of_file}: {function.name} decides purity"

    @pytest.mark.parametrize(
        "option,declared_by",
        [
            ("select", ["__init__"]),
            ("speculation", ["__init__", "__init__", "prefetch_source"]),
        ],
    )
    def test_engine_options_are_declared_once(self, option, declared_by):
        """``TransformEngine.__init__`` declares the options and the front
        ends forward ``**options``; ``speculation`` is also the prefetch
        pass's own constructor argument and what ``prefetch_source``
        adjusts by ``speculate_threshold``."""
        declaring = sorted(
            function.name
            for package in TRANSFORMER
            for _package_of_file, function in functions(package)
            if option
            in [a.arg for a in (*function.args.args, *function.args.kwonlyargs)]
        )
        assert declaring == declared_by


REQUEST_CORE = ("core", "web/client")


def parameters(function):
    args = function.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


class TestRequestPathOwners:
    """One request record through the submission core (the table in
    ``docs/ARCHITECTURE.md``): the front end builds a ``Request`` once
    and every stage takes it whole — nobody re-describes it as
    keywords, a pending entry, a tuple or a closure."""

    def test_no_stage_takes_a_callback_for_what_the_request_knows(self):
        for package in REQUEST_CORE:
            for package_of_file, function in functions(package):
                handed = {"still_valid", "on_dispatch", "cleanup"} & set(
                    parameters(function)
                )
                assert not handed, f"{package_of_file}: {function.name}({handed})"

    def test_no_stage_takes_the_request_apart(self):
        parts = {"key", "tables", "ticket", "lease", "watcher"}
        for package in REQUEST_CORE:
            for package_of_file, function in functions(package):
                taken = parts & set(parameters(function))
                assert len(taken) <= 1, f"{package_of_file}: {function.name}({taken})"

    def test_the_coalescer_queues_requests(self):
        from repro.core import coalescer

        assert not hasattr(coalescer, "_PendingDispatch")
        classes = {
            node.name
            for _package_of_file, tree in modules("core/coalescer")
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        assert classes == {"_Group", "DispatchCoalescer"}

    @pytest.mark.parametrize("module", ["core/calls", "core/submission"])
    def test_no_function_object_per_request(self, module):
        """Nothing ``execute`` / ``submit`` / ``speculate`` runs through
        builds a ``lambda`` or a nested ``def``: the executor task is the
        request under ``CallPipeline.run``."""
        for package_of_file, function in functions(module):
            made = [
                node
                for node in ast.walk(function)
                if node is not function
                and isinstance(
                    node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
                )
            ]
            assert not made, (
                f"{module}: {function.name} builds a function at line "
                f"{made[0].lineno}"
            )

    def test_the_sql_pipeline_is_the_call_pipeline(self):
        """No forwarder: ``SubmissionPipeline`` inherits what it used to
        delegate, so none of its methods is a lone
        ``return self.<held object>.<member>...``."""
        from repro.core.submission import CallPipeline, SubmissionPipeline

        ((_package_of_file, tree),) = modules("core/submission")
        (pipeline,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "SubmissionPipeline"
        ]
        for method in pipeline.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            body = [
                statement
                for statement in method.body
                if not (
                    isinstance(statement, ast.Expr)
                    and isinstance(statement.value, ast.Constant)
                )
            ]
            if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
                continue
            value = body[0].value
            target = value.func if isinstance(value, ast.Call) else value
            held = target.value if isinstance(target, ast.Attribute) else None
            assert not (
                isinstance(held, ast.Attribute)
                and isinstance(held.value, ast.Name)
                and held.value.id == "self"
            ), f"SubmissionPipeline.{method.name} only forwards to self.{held.attr}"
        assert issubclass(SubmissionPipeline, CallPipeline)

    @pytest.mark.parametrize("coalesce", [False, True], ids=["task", "coalesced"])
    def test_a_refused_dispatch_strands_nobody(self, users_db, coalesce):
        """Whichever ``start`` a request took, an executor that refuses
        its task ends it in ``CallPipeline.settle``: the owner lease's
        followers are failed, and a transaction's in-flight count is
        given back."""
        from concurrent.futures import Future

        from repro.core.submission import SubmissionPipeline
        from repro.prefetch import ResultCache
        from repro.runtime.executor import AsyncExecutor

        sql = "SELECT name FROM users WHERE id = ?"
        cache = ResultCache(8)
        backend = users_db.server
        followers = []

        class Refusing:
            def submit(self, task):
                # A second pipeline on the same cache joins the flight
                # before the refusal is unwound.
                followers.append(other.submit(sql, (3,)))
                raise RuntimeError("executor refused the task")

        live = AsyncExecutor(1)
        other = SubmissionPipeline(backend, live, cache=cache)
        pipeline = SubmissionPipeline(backend, Refusing(), cache=cache, coalesce=coalesce)
        try:
            with pytest.raises(RuntimeError, match="refused"):
                pipeline.submit(sql, (3,))
            (follower,) = followers
            assert isinstance(follower.future, Future)
            assert cache.stats.shared_flights == 1
            with pytest.raises(RuntimeError, match="refused"):
                follower.result(timeout=5)
            # Nothing was retained; the next reader executes afresh.
            assert other.execute(sql, (3,)).rows == [("user-3",)]
            txn = backend.begin_transaction()
            followers_before = len(followers)
            with pytest.raises(RuntimeError, match="refused"):
                pipeline.submit(sql, (3,), txn)
            assert txn.in_flight == 0
            assert len(followers) == followers_before + 1
            txn.commit()  # would wait forever on a leaked count
        finally:
            live.close()


@pytest.fixture
def users_db():
    db = Database(INSTANT)
    db.create_table("users", ("id", "int"), ("name", "text"))
    db.create_table("marks", ("id", "int"), ("score", "float"), ("ok", "bool"))
    db.bulk_load("users", [(i, f"user-{i}") for i in range(8)])
    yield db
    db.close()


#: One row per statement kind:
#: (sql, write, ddl, table, param_count, demuxable, footprint).
SHAPES = [
    ("SELECT name AS n, id FROM users WHERE id = ?", False, False, "users", 1, True, ("id", 0, int)),
    ("INSERT INTO users VALUES (?, ?)", True, False, "users", 2, False, None),
    ("UPDATE users SET name = ? WHERE id = ?", True, False, "users", 2, False, ("id", 1, int)),
    ("DELETE FROM users WHERE name = ?", True, False, "users", 1, False, ("name", 0, str)),
    ("CREATE TABLE fresh (a int)", True, True, "fresh", 0, False, None),
    ("CREATE INDEX ix ON users (id)", True, True, "users", 0, False, None),
]
KINDS = ["select", "insert", "update", "delete", "create-table", "create-index"]

#: (sql, footprint) — the first top-level ``col = ?`` conjunct on an INT
#: or TEXT column the statement does not assign, else None.
FOOTPRINTS = [
    ("SELECT count(*) FROM users WHERE ? = id LIMIT ?", ("id", 0, int)),
    ("SELECT id FROM users WHERE id > ? AND name = ? ORDER BY id", ("name", 1, str)),
    ("SELECT id FROM users WHERE id = ? OR name = ?", None),
    ("SELECT id FROM users WHERE NOT (id = ?)", None),
    ("SELECT id FROM users WHERE id = ? + 1", None),
    ("SELECT id FROM users WHERE id = 3", None),
    ("SELECT id FROM users WHERE id >= ?", None),
    ("SELECT id FROM marks WHERE score = ?", None),
    ("SELECT id FROM marks WHERE ok = ?", None),
    ("SELECT id FROM marks WHERE score = ? AND id = ?", ("id", 1, int)),
    ("UPDATE users SET id = ? WHERE id = ?", None),
    ("UPDATE users SET id = ? WHERE id = ? AND name = ?", ("name", 2, str)),
    ("UPDATE users SET name = ? WHERE id >= ?", None),
    ("DELETE FROM users", None),
]

#: (sql, output_names, star, point_key) — what a store reads off a
#: SELECT plan instead of the AST.
SELECT_SHAPES = [
    ("SELECT name AS n, id FROM users WHERE id = ?", ("n", "id"), False, "id"),
    ("SELECT * FROM users WHERE ? = name", ("id", "name"), True, "name"),
    ("SELECT count(*) FROM users WHERE id = ?", ("count(*)",), False, None),
    ("SELECT id FROM users WHERE id = ? LIMIT 1", ("id",), False, None),
    ("SELECT id FROM users WHERE id = ? AND name = ?", ("id",), False, None),
]
SELECT_KINDS = ["aliased", "star-flipped", "aggregate", "limit", "two-params"]


def shape(prepared):
    return (
        prepared.write,
        prepared.ddl,
        prepared.table,
        prepared.tables,
        prepared.param_count,
        prepared.demuxable,
        prepared.label,
        prepared.footprint,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestStatementShape:
    @pytest.mark.parametrize(
        "sql,write,ddl,table,param_count,demuxable,footprint", SHAPES, ids=KINDS
    )
    def test_shape_is_fixed_at_prepare(
        self, users_db, backend, sql, write, ddl, table, param_count, demuxable,
        footprint,
    ):
        prepared = users_db.backend(backend).prepare(sql)
        assert shape(prepared) == (
            write,
            ddl,
            table,
            frozenset({table}),
            param_count,
            demuxable,
            sql[:40],
            footprint,
        )
        assert not hasattr(prepared, "ast")

    @pytest.mark.parametrize("sql,footprint", FOOTPRINTS)
    def test_footprint_is_decided_at_plan_time(self, users_db, backend, sql, footprint):
        prepared = users_db.backend(backend).prepare(sql)
        assert prepared.footprint == prepared.plan.footprint == footprint

    def test_point_needs_the_footprints_exact_type(self, users_db, backend):
        store = users_db.backend(backend)
        by_id = store.prepare("UPDATE users SET name = ? WHERE id = ?")
        assert by_id.point(("x", 3)) == ("users", "id", stripe_of(3))
        for inexact in ("3", 3.0, True, None):
            assert by_id.point(("x", inexact)) is None
        assert by_id.point(("x",)) is None  # the arity error is execute's
        by_name = store.prepare("SELECT id FROM users WHERE name = ?")
        assert by_name.point(("3",)) == ("users", "name", stripe_of("3"))
        assert by_name.point((3,)) is None
        assert store.prepare("SELECT id FROM users").point(()) is None

    @pytest.mark.parametrize(
        "sql,output_names,star,point_key", SELECT_SHAPES, ids=SELECT_KINDS
    )
    def test_select_plan_members(
        self, users_db, backend, sql, output_names, star, point_key
    ):
        plan = users_db.backend(backend).prepare(sql).plan
        assert (plan.output_names, plan.star, plan.point_key) == (
            output_names,
            star,
            point_key,
        )

    def test_stale_statement_is_re_prepared_with_the_same_shape(
        self, users_db, backend
    ):
        store = users_db.backend(backend)
        sql = "SELECT name FROM users WHERE id = ?"
        stale = store.prepare(sql)
        users_db.create_index("ix", "users", "id")  # DDL: every plan is stale
        fresh = store.prepare(sql)
        assert fresh is not stale
        assert shape(fresh) == shape(stale)
        assert fresh.plan.point_key == stale.plan.point_key == "id"
        # A holder of the stale handle still gets an answer.
        assert store.submit_prepared(stale, (3,)).result().rows == [("user-3",)]


class TestPreparedMeansPrepared:
    def test_execution_translates_nothing(self, users_db, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(dialect, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("translate_expr", "translate_statement"):
            wrapper = counted(name)
            monkeypatch.setattr(dialect, name, wrapper)
            monkeypatch.setattr(sqlite_store, name, wrapper)

        store = users_db.backend("sqlite")
        select = store.prepare("SELECT name FROM users WHERE id = ?")
        insert = store.prepare("INSERT INTO users (name, id) VALUES (?, ? + 100)")
        update = store.prepare("UPDATE users SET name = ? WHERE id % 2 = ?")
        delete = store.prepare("DELETE FROM users WHERE id = ?")
        assert calls, "prepare compiles the SQL (the counter works)"
        del calls[:]

        def run(prepared, *params):
            return store.submit_prepared(prepared, params).result()

        assert run(select, 3).rows == [("user-3",)]
        assert run(insert, "new", 1).rowcount == 1
        assert run(update, "odd", 1).rowcount == 5  # 1, 3, 5, 7 and 101
        assert run(delete, 0).rowcount == 1
        looked_up = store.execute_prepared_batch(select, [(1,), (2,), (1,)])
        assert [outcome.rows for outcome in looked_up] == [
            [("odd",)],
            [("user-2",)],
            [("odd",)],
        ]
        inserted = store.execute_prepared_batch(insert, [("a", 2), ("b", 3)])
        assert [outcome.rowcount for outcome in inserted] == [1, 1]
        assert run(select, 103).rows == [("b",)]
        assert calls == []


def test_sloc_counts_code_not_prose():
    """``tools/sloc.py`` is how a PR's "less code" is measured: blank
    lines, comments and docstrings are not program."""
    import importlib.util

    path = SRC.parent.parent / "tools" / "sloc.py"
    spec = importlib.util.spec_from_file_location("sloc", path)
    sloc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sloc)
    source = '''"""Module
docstring."""

import os  # trailing comments do not make a line prose

# a comment line
class K:
    """Class docstring."""

    #: attribute comment
    x = (
        1,
    )

    def f(self):
        """One-line docstring."""
        return """a string that is a value,
        not documentation"""
'''
    # import, class, x = ( / 1, / ), def, return (two physical lines)
    assert sloc.count_code_lines(source) == 8
