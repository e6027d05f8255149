"""Unit tests: Rule B (guard flattening) and the readability regrouping."""

import ast

import pytest

from repro.ir.purity import PurityEnv
from repro.ir.statements import Guard, StatementFacts, contains_loop
from repro.transform.names import NameAllocator
from repro.transform.readability import regroup
from repro.transform.rule_guards import flatten_block

PURITY = PurityEnv()


def flatten(code):
    tree = ast.parse(code)
    allocator = NameAllocator.for_tree(tree)
    return flatten_block(tree.body, StatementFacts(PURITY), allocator)


class TestRuleB:
    def test_simple_if_flattened(self):
        stmts = flatten("cv = p\nif cv2:\n    a = 1\n    b = 2")
        # cv assign, guard assign, two guarded statements
        assert len(stmts) == 4
        guarded = stmts[2:]
        assert all(len(stmt.guards) == 1 for stmt in guarded)
        assert guarded[0].guards == guarded[1].guards

    def test_else_branch_negated(self):
        stmts = flatten("if c:\n    a = 1\nelse:\n    b = 2")
        guard_assign, then_stmt, else_stmt = stmts
        assert then_stmt.guards[0].value is True
        assert else_stmt.guards[0].value is False
        assert then_stmt.guards[0].var == else_stmt.guards[0].var

    def test_guard_variable_holds_condition(self):
        stmts = flatten("if x > 0:\n    a = 1")
        assign = ast.unparse(stmts[0].node)
        assert "x > 0" in assign

    def test_nested_ifs_accumulate_guards(self):
        stmts = flatten("if a:\n    if b:\n        x = 1")
        inner = stmts[-1]
        assert len(inner.guards) == 2
        assert [guard.value for guard in inner.guards] == [True, True]

    def test_elif_chain(self):
        stmts = flatten("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3")
        # elif becomes a nested if in the else branch
        deepest = stmts[-1]
        assert len(deepest.guards) == 2
        assert deepest.guards[0].value is False

    def test_if_with_loop_kept_composite(self):
        stmts = flatten("if c:\n    while p:\n        x = 1")
        assert len(stmts) == 1
        assert isinstance(stmts[0].node, ast.If)

    def test_contains_loop(self):
        node = ast.parse("if c:\n    for i in r:\n        pass").body[0]
        assert contains_loop(node)
        flat = ast.parse("if c:\n    x = 1").body[0]
        assert not contains_loop(flat)


class TestReadability:
    def roundtrip(self, code):
        stmts = flatten(code)
        return "\n".join(ast.unparse(node) for node in regroup(stmts))

    def test_guarded_run_regrouped(self):
        text = self.roundtrip("if c:\n    a = 1\n    b = 2")
        tree = ast.parse(text)
        # one guard assignment + one folded if
        assert len(tree.body) == 2
        assert isinstance(tree.body[1], ast.If)
        assert len(tree.body[1].body) == 2

    def test_if_else_folded(self):
        text = self.roundtrip("if c:\n    a = 1\nelse:\n    b = 2")
        tree = ast.parse(text)
        folded = tree.body[1]
        assert isinstance(folded, ast.If)
        assert folded.orelse

    def test_nested_structure_restored(self):
        text = self.roundtrip("if a:\n    if b:\n        x = 1\n    y = 2")
        tree = ast.parse(text)
        outer = tree.body[-1]
        assert isinstance(outer, ast.If)
        assert any(isinstance(child, ast.If) for child in outer.body)

    def test_semantics_preserved(self):
        code = (
            "if a > 0:\n"
            "    x = 1\n"
            "    y = 2\n"
            "else:\n"
            "    x = 3\n"
        )
        stmts = flatten(code)
        regrouped = "\n".join(ast.unparse(node) for node in regroup(stmts))
        for a in (-1, 1):
            env1 = {"a": a, "x": 0, "y": 0}
            env2 = {"a": a, "x": 0, "y": 0}
            exec(code, {}, env1)
            exec(regrouped, {}, env2)
            assert env1["x"] == env2["x"]
            assert env1["y"] == env2["y"]

    def test_unguarded_statements_pass_through(self):
        text = self.roundtrip("a = 1\nb = 2")
        assert text == "a = 1\nb = 2"

    def test_else_only_branch_negates(self):
        stmts = flatten("if c:\n    pass\nelse:\n    b = 2")
        # drop the guarded pass to leave only the else side
        filtered = [
            stmt
            for stmt in stmts
            if not (stmt.guards and isinstance(stmt.node, ast.Pass))
        ]
        text = "\n".join(ast.unparse(node) for node in regroup(filtered))
        assert "if not" in text
