"""Unit tests: AST construction helpers and the name allocator."""

import ast

import pytest

from repro.ir.statements import Guard
from repro.transform.codegen import (
    append_call,
    assign,
    assign_name_to_name,
    emit_stmt,
    empty_dict_assign,
    empty_list_assign,
    guard_test,
    if_stmt,
    key_in_record,
    method_call,
    name_load,
    subscript_load,
    subscript_store,
)
from repro.transform.names import NameAllocator


def text(node) -> str:
    return ast.unparse(node)


class TestCodegen:
    def test_assigns(self):
        assert text(assign("x", ast.Constant(value=1))) == "x = 1"
        assert text(assign_name_to_name("a", "b")) == "a = b"
        assert text(empty_list_assign("t")) == "t = []"
        assert text(empty_dict_assign("r")) == "r = {}"

    def test_subscripts(self):
        assert text(subscript_store("r", "v", name_load("v"))) == "r['v'] = v"
        assert text(subscript_load("r", "h")) == "r['h']"

    def test_key_in_record(self):
        assert text(key_in_record("v", "rec")) == "'v' in rec"

    def test_append(self):
        assert text(append_call("tab", "rec")) == "tab.append(rec)"

    def test_method_call_copies_receiver(self):
        receiver = ast.parse("self.conn", mode="eval").body
        call = method_call(receiver, "submit_query", [name_load("q")])
        assert text(call) == "self.conn.submit_query(q)"
        assert call.func.value is not receiver  # deep copy

    def test_guard_test_single(self):
        assert text(guard_test((Guard("c", True),))) == "c"
        assert text(guard_test((Guard("c", False),))) == "not c"

    def test_guard_test_conjunction(self):
        test = guard_test((Guard("a", True), Guard("b", False)))
        assert text(test) == "a and (not b)" or text(test) == "a and not b"

    def test_guard_test_empty(self):
        assert guard_test(()) is None

    def test_emit_guarded_statement(self):
        from repro.ir.purity import PurityEnv
        from repro.ir.statements import make_stmt

        stmt = make_stmt(
            ast.parse("x = 1").body[0], PurityEnv(), None, (Guard("c", True),)
        )
        emitted = emit_stmt(stmt)
        assert isinstance(emitted, ast.If)
        assert text(emitted.test) == "c"

    def test_emit_block_compiles(self):
        from repro.ir.purity import PurityEnv
        from repro.ir.statements import make_block

        stmts = make_block(ast.parse("a = 1\nb = a + 1").body, PurityEnv())
        module = ast.Module(body=[emit_stmt(stmt) for stmt in stmts], type_ignores=[])
        ast.fix_missing_locations(module)
        namespace: dict = {}
        exec(compile(module, "<t>", "exec"), namespace)
        assert namespace["b"] == 2

    def test_if_stmt(self):
        node = if_stmt(name_load("c"), [assign("x", ast.Constant(value=1))])
        assert text(node) == "if c:\n    x = 1"


class TestNameAllocator:
    def test_avoids_existing_names(self):
        allocator = NameAllocator.for_source("total_1 = 1\ndef helper(total_2): pass")
        fresh = allocator.fresh("total")
        assert fresh not in ("total_1", "total_2")

    def test_sequential_uniqueness(self):
        allocator = NameAllocator()
        names = {allocator.fresh("v") for _ in range(50)}
        assert len(names) == 50

    def test_dunder_style(self):
        allocator = NameAllocator()
        assert allocator.fresh("__async_tab").startswith("__async_tab")

    def test_reserve(self):
        allocator = NameAllocator()
        allocator.reserve("v_1")
        assert allocator.fresh("v") != "v_1"

    def test_contains(self):
        allocator = NameAllocator(["x"])
        assert "x" in allocator
        fresh = allocator.fresh("y")
        assert fresh in allocator

    def test_collects_attributes_and_classes(self):
        allocator = NameAllocator.for_source("class C:\n    pass\nobj.field_1 = 2")
        assert "C" in allocator
        assert "field_1" in allocator

    def test_the_seed_holds_every_name_of_the_tree(self):
        """The seed reads the text, not the tree: every identifier the
        parser keeps is in it, spelled as the parser normalizes it (NFKC:
        ``ﬁeld`` is ``field``), import aliases, keywords and names that
        start with a symbol or hold a combining mark included."""
        source = (
            "import os.path as p_1\n"
            "def f(ﬁeld, *args, k=1, **kw):\n"
            "    global g\n"
            "    \u2118x = x\u0301_1 = 0\n"
            "    return [x for x in args if ﬁeld.attr_2(k=k)]\n"
        )
        allocator = NameAllocator.for_source(source)
        tree = ast.parse(source)
        names = set()
        for node in ast.walk(tree):
            for value in node.__dict__.values():
                values = value if isinstance(value, list) else [value]
                names.update(v for v in values if isinstance(v, str) and v.isidentifier())
        assert "field" in names and "ﬁeld" not in names
        assert {"\u2118x", "x\u0301_1"} <= names
        assert all(name in allocator for name in names)

    def test_a_name_in_a_string_or_comment_is_taken_too(self):
        allocator = NameAllocator.for_source("s = '__async_tab1'  # sum_1\n")
        assert allocator.fresh("__async_tab") == "__async_tab2"
        assert allocator.fresh("sum") == "sum_2"
