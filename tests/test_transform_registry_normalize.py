"""Unit tests: query registry and the normalization (hoisting) pass."""

import ast

import pytest

from repro.ir.purity import PurityEnv
from repro.ir.statements import StatementFacts
from repro.transform.names import NameAllocator
from repro.transform.normalize import normalize_block, normalize_statement
from repro.transform.registry import QueryRegistry, QuerySpec, default_registry

PURITY = PurityEnv()


class TestRegistry:
    def test_default_entries(self):
        registry = default_registry()
        spec = registry.lookup("execute_query")
        assert spec.submit == "submit_query"
        assert spec.fetch == "fetch_result"
        assert spec.effect == "read"
        assert registry.lookup("execute_update").effect == "write"
        assert registry.lookup("get_entity").resource == "web"

    def test_lookup_async(self):
        registry = default_registry()
        assert registry.lookup_async("submit_query").blocking == "execute_query"
        assert registry.lookup_async("execute_query") is None

    def test_unknown_name(self):
        assert default_registry().lookup("not_a_query") is None

    def test_with_effect(self):
        registry = default_registry().with_effect("execute_update", "commuting_write")
        assert registry.lookup("execute_update").effect == "commuting_write"
        # the original registry is untouched
        assert default_registry().lookup("execute_update").effect == "write"

    def test_with_effect_unknown_name(self):
        with pytest.raises(KeyError):
            default_registry().with_effect("nope", "read")

    def test_invalid_effect_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec("a", "b", "c", effect="sideways")

    def test_copy_is_independent(self):
        registry = default_registry()
        clone = registry.copy()
        clone.register(QuerySpec("extra", "submit_extra", "fetch_result"))
        assert registry.lookup("extra") is None
        assert clone.lookup("extra") is not None


def normalize(code, registry=None):
    registry = registry or default_registry()
    nodes = ast.parse(code).body
    allocator = NameAllocator.for_tree(ast.parse(code))
    out = normalize_block(nodes, StatementFacts(PURITY, registry), allocator)
    return [ast.unparse(node) for node in out]


class TestNormalization:
    def test_scalar_chain_hoisted(self):
        out = normalize("v = conn.execute_query(q, [i]).scalar()")
        assert len(out) == 2
        assert out[0].endswith("conn.execute_query(q, [i])")
        assert ".scalar()" in out[1]

    def test_subscript_consumption_hoisted(self):
        out = normalize("v = conn.execute_query(q)[0][1]")
        assert len(out) == 2

    def test_augassign_hoisted(self):
        out = normalize("total += conn.execute_query(q).scalar()")
        assert len(out) == 2
        assert out[1].startswith("total +=")

    def test_top_level_untouched(self):
        out = normalize("v = conn.execute_query(q)")
        assert out == ["v = conn.execute_query(q)"]

    def test_bare_call_untouched(self):
        out = normalize("conn.execute_update(q)")
        assert out == ["conn.execute_update(q)"]

    def test_short_circuit_not_hoisted(self):
        out = normalize("v = flag and conn.execute_query(q).scalar()")
        assert len(out) == 1

    def test_ternary_not_hoisted(self):
        out = normalize("v = conn.execute_query(q).scalar() if flag else 0")
        assert len(out) == 1

    def test_comprehension_not_hoisted(self):
        out = normalize("vs = [conn.execute_query(q, [i]).scalar() for i in xs]")
        assert len(out) == 1

    def test_impure_call_before_query_blocks_hoist(self):
        out = normalize("v = g(stack.pop(), conn.execute_query(q).scalar())")
        assert len(out) == 1

    def test_pure_call_before_query_allows_hoist(self):
        out = normalize("v = g(len(xs), conn.execute_query(q).scalar())")
        assert len(out) == 2

    def test_two_queries_not_hoisted(self):
        out = normalize(
            "v = conn.execute_query(a).scalar() + conn.execute_query(b).scalar()"
        )
        assert len(out) == 1

    def test_recurses_into_if(self):
        out = normalize(
            "if c:\n    v = conn.execute_query(q).scalar()\nelse:\n    v = 0"
        )
        assert len(out) == 1
        tree = ast.parse(out[0]).body[0]
        assert isinstance(tree, ast.If)
        assert len(tree.body) == 2

    def test_append_argument_hoisted(self):
        out = normalize("out.append(conn.execute_query(q, [i]).scalar())")
        assert len(out) == 2
        assert out[1].startswith("out.append")

    def test_fresh_names_unique(self):
        code = (
            "a = conn.execute_query(q).scalar()\n"
            "b = conn.execute_query(q).scalar()\n"
        )
        out = normalize(code)
        assert len(out) == 4
        temp_a = out[0].split(" = ")[0]
        temp_b = out[2].split(" = ")[0]
        assert temp_a != temp_b
