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
        """``backend.submit_prepared(...).result()`` wraps a statement
        the caller waits for anyway: the blocking entries (``execute`` /
        ``execute_prepared`` / ``execute_prepared_batch``) run it in the
        caller's thread under the same admission gate, and nothing in
        ``src/`` needs the resolved Future."""
        futures = ("submit_prepared",)
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

    def test_every_future_is_a_request_future(self):
        """A request's outcome is set on one future class: nothing in
        ``src/`` builds a ``concurrent.futures.Future`` but the module
        that subclasses it."""
        for package_of_file, tree in modules(""):
            if package_of_file == "repro.runtime" and any(
                isinstance(node, ast.ClassDef) and node.name == "RequestFuture"
                for node in tree.body
            ):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    assert name != "Future", f"{package_of_file}:{node.lineno} Future()"

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

    @pytest.mark.parametrize(
        "attr,owners",
        [
            # ``located`` positions what each builder builds, down to the
            # first positioned node: no finished result, moved body or
            # module is walked again.
            ("fix_missing_locations", set()),
            # One allocator per module: the engine's, handed to the
            # prefetch pass.
            ("for_tree", {("repro.transform", "transform_source")}),
        ],
    )
    def test_whole_tree_passes_have_named_owners(self, attr, owners):
        callers = {
            (package_of_file, function.name)
            for package_of_file, function in functions("")
            if calls_of(function, attr)
        }
        assert callers == owners

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

    def test_flushers_and_requests_are_jobs(self):
        """Nothing under ``core/`` wraps work in an executor task: a
        request and a coalescer's flusher (its batch key's group) are
        queued as themselves with ``executor.execute``."""
        for package_of_file, function in functions("core"):
            for call in calls_of(function, "submit"):
                owner = call.func.value
                name = owner.attr if isinstance(owner, ast.Attribute) else getattr(
                    owner, "id", None
                )
                assert name != "executor", (
                    f"{package_of_file}: {function.name} calls executor.submit "
                    f"at line {call.lineno}"
                )

    def test_the_only_store_batch_hook_is_the_select_batch(self):
        """A store answers a batch as one demuxed SELECT or as its
        bindings one by one through the single-statement path: no
        ``Backend`` class under ``src/`` defines another batch hook, and
        ``Backend`` has one batch body."""
        from repro.backends.base import Backend

        backends = {"Backend"}
        hooks = {}
        for _pass in range(2):  # a subclass may precede its base
            for _package_of_file, tree in modules("."):
                for node in ast.walk(tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    bases = {
                        base.attr if isinstance(base, ast.Attribute) else base.id
                        for base in node.bases
                        if isinstance(base, (ast.Attribute, ast.Name))
                    }
                    if node.name in backends or bases & backends:
                        backends.add(node.name)
                        hooks[node.name] = {
                            item.name
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name.startswith("_")
                            and "batch" in item.name
                        }
        assert {"Backend", "DatabaseServer", "SqliteBackend"} <= backends
        for owner, names in hooks.items():
            allowed = {"_execute_select_batch"}
            if owner == "Backend":
                allowed.add("_run_prepared_batch")
            assert names <= allowed, f"{owner} defines {sorted(names - allowed)}"
        bodies = [name for name in vars(Backend) if name.startswith("_run_")]
        assert [name for name in bodies if "batch" in name] == ["_run_prepared_batch"]

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

    def test_one_request_one_future_one_handle(self):
        """The executor's worker calls one method on each job it dequeues
        — no ``(future, task)`` tuple, no ``hasattr`` probe — and a
        request is that job, not a callable; the handle is built whole
        before the dispatch, and the asyncio front end hands out the
        pipeline's own."""
        from repro.core.calls import Request, SpeculativeHandle
        from repro.runtime import aio

        ((_package_of_file, tree),) = modules("runtime/executor")
        (work,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_work"
        ]
        called = [
            node.func.id
            for node in ast.walk(work)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert "hasattr" not in called
        assert not any(isinstance(node, ast.Tuple) for node in ast.walk(work))
        assert not callable(Request())
        assert not hasattr(Request, "cancelled")
        assert not hasattr(SpeculativeHandle, "_attach")
        for name in ("AioQueryHandle", "AioSpeculativeHandle", "_book_keep"):
            assert not hasattr(aio, name)
        assert not hasattr(aio.AioConnection, "_wrap")

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
            def execute(self, job):
                # A request and a coalescer's flusher are both queued as
                # themselves.  A second pipeline on the same cache joins
                # the flight before the refusal is unwound.
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


PLAN = sorted(path.stem for path in (SRC / "db" / "plan").glob("*.py"))


class TestPlanOwners:
    """``Predicate`` alone classifies a WHERE conjunct: the planner, the
    access operators and the demux read its compiled conjuncts and the
    execution's bound constants, never the expression AST."""

    @pytest.mark.parametrize("module", [m for m in PLAN if m != "expr_eval"])
    def test_only_the_predicate_imports_conjunct_shapes(self, module):
        shapes = {"BinaryOp", "Between", "InList", "IsNull"}
        for package_of_file, tree in modules(f"db/plan/{module}"):
            taken = shapes & {name for _, name in imports(package_of_file, tree)}
            assert not taken, f"{module} imports {sorted(taken)}"

    @pytest.mark.parametrize("module", ["operators", "demux"])
    def test_no_operator_builds_a_row_evaluator(self, module):
        for _package_of_file, tree in modules(f"db/plan/{module}"):
            built = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "RowEvaluator"
            ]
            assert not built, f"{module} builds a RowEvaluator at {built}"


@pytest.fixture
def users_db():
    db = Database(INSTANT)
    db.create_table("users", ("id", "int"), ("name", "text"))
    db.create_table("marks", ("id", "int"), ("score", "float"), ("ok", "bool"))
    db.bulk_load("users", [(i, f"user-{i}") for i in range(8)])
    yield db
    db.close()


#: One row per statement kind:
#: (sql, write, table, param_count, demuxable, footprint).
SHAPES = [
    ("SELECT name AS n, id FROM users WHERE id = ?", False, "users", 1, True, ("id", 0, int)),
    ("INSERT INTO users VALUES (?, ?)", True, "users", 2, False, None),
    ("UPDATE users SET name = ? WHERE id = ?", True, "users", 2, False, ("id", 1, int)),
    ("DELETE FROM users WHERE name = ?", True, "users", 1, False, ("name", 0, str)),
]
KINDS = ["select", "insert", "update", "delete"]

#: (sql, footprint) — the first top-level ``col = ?`` conjunct on an INT
#: or TEXT column the statement does not assign, else None.
FOOTPRINTS = [
    ("SELECT count(*) FROM users WHERE ? = id", ("id", 0, int)),
    ("SELECT id FROM users WHERE id > ? AND name = ?", ("name", 1, str)),
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
    ("SELECT id FROM users WHERE id = ? GROUP BY id", ("id",), False, None),
    ("SELECT id FROM users WHERE id = ? AND name = ?", ("id",), False, None),
]
SELECT_KINDS = ["aliased", "star-flipped", "aggregate", "grouped", "two-params"]


def shape(prepared):
    return (
        prepared.write,
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
        "sql,write,table,param_count,demuxable,footprint", SHAPES, ids=KINDS
    )
    def test_shape_is_fixed_at_prepare(
        self, users_db, backend, sql, write, table, param_count, demuxable,
        footprint,
    ):
        prepared = users_db.backend(backend).prepare(sql)
        assert shape(prepared) == (
            write,
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
        users_db.create_index("ix", "users", "id")  # every plan is stale
        fresh = store.prepare(sql)
        assert fresh is not stale
        assert shape(fresh) == shape(stale)
        assert fresh.plan.point_key == stale.plan.point_key == "id"
        # A holder of the stale handle still gets an answer.
        assert store.execute_prepared(stale, (3,)).rows == [("user-3",)]


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
            return store.execute_prepared(prepared, params)

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


def test_traffic_reports_what_a_command_entered():
    """``tools/traffic.py`` is how "which code does real traffic reach"
    is measured: a function the traced command ran is reported reached,
    one it never entered unreached, and each text a store prepared is
    recorded once."""
    import importlib.util

    path = SRC.parent.parent / "tools" / "traffic.py"
    spec = importlib.util.spec_from_file_location("traffic", path)
    traffic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic)
    command = (
        "from repro.db import Database\n"
        "db = Database()\n"
        "db.create_table('t', ('a', 'int'))\n"
        "db.server.execute('SELECT a FROM t')\n"
        "db.server.execute('SELECT a FROM t')\n"
        "db.close()"
    )
    reached, failed, statements = traffic.trace([("-c", command)])
    assert failed == []
    assert statements == {"SELECT a FROM t"}
    missing = traffic.unreached(reached)
    assert "Database.__init__" not in missing["repro.db.database"]
    assert "Database.connect" in missing["repro.db.database"]
    assert "SqliteBackend._run_update" in missing["repro.backends.sqlite"]
    assert "repro.transform.engine" in missing  # nothing of it ran


def test_traffic_base_prints_only_what_changed(capsys):
    """``tools/traffic.py --base DIR`` prints the functions that joined
    or left the unreached list, marks one a side does not define, and
    both totals."""
    import importlib.util

    path = SRC.parent.parent / "tools" / "traffic.py"
    spec = importlib.util.spec_from_file_location("traffic", path)
    traffic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic)
    head = {"unreached": {"repro.db.database": ["Database.explain", "both"]}, "total": 9}
    base = {
        "unreached": {"repro.db.database": ["both", "Database.connect", "Database.gone"]},
        "total": 10,
    }
    traffic._print_changes(head, base, SRC)
    assert capsys.readouterr().out.splitlines() == [
        "joined the unreached list:",
        "    repro.db.database  Database.explain",
        "left the unreached list:",
        "    repro.db.database  Database.connect",
        "    repro.db.database  Database.gone  (not defined on the other side)",
        "unreached: 2 of 9 functions under src/repro (base: 3 of 10)",
    ]
    head["statements"] = ["SELECT a FROM t", "UPDATE t SET a = ?"]
    base["statements"] = ["SELECT a FROM t", "SELECT a FROM t LIMIT 1"]
    traffic._print_statements(head, base)
    assert capsys.readouterr().out.splitlines() == [
        "statements joined:",
        "    UPDATE t SET a = ?",
        "statements left:",
        "    SELECT a FROM t LIMIT 1",
        "statements: 2 distinct texts (base: 2)",
    ]


#: Where a definition under ``src/`` may be referenced from.
REFERENCING = ("src", "tests", "tools", "benchmarks", "perfbench", "examples")


def test_every_definition_under_src_is_referenced():
    """Nothing in ``src/`` lacks a caller: every ``def`` and ``class``
    name must appear somewhere in the repo's code as a name, an
    attribute, an imported name, a keyword argument or an
    identifier-shaped string (``getattr`` targets, endpoint names).
    Dunders and ``visit_*`` are called by protocol, so they are exempt."""
    root = SRC.parent.parent
    referenced, defined = set(), []
    for directory in REFERENCING:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.update(node.name.split("."))
                elif isinstance(node, ast.keyword) and node.arg:
                    referenced.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        referenced.add(node.value)
                elif directory == "src" and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defined.append((path.relative_to(root), node.lineno, node.name))
    unreferenced = [
        f"{path}:{line} {name}"
        for path, line, name in defined
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith("visit_")
    ]
    assert not unreferenced, "\n".join(unreferenced)
