"""Example scripts stay valid + property tests on runtime containers."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.records import Record, RecordTable

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestExampleScripts:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "auction_report.py",
            "category_explorer.py",
            "webservice_mashup.py",
            "callback_dashboard.py",
            "asyncio_pipeline.py",
            "transactional_forms.py",
            "prefetch_cache.py",
            "speculative_prefetch.py",
        ],
    )
    def test_parses_and_compiles(self, name):
        source = (EXAMPLES_DIR / name).read_text()
        tree = ast.parse(source)
        compile(tree, name, "exec")
        # every example is runnable as a script
        assert any(
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and "__main__" in ast.unparse(node.test)
            for node in tree.body
        ), f"{name} must have a __main__ guard"

    def test_speculative_prefetch_example_runs(self, capsys):
        """The speculation example executes end to end: it asserts
        internally that the speculative kernel's cards match blocking
        execution, and reports fully settled speculation stats."""
        import runpy

        runpy.run_path(
            str(EXAMPLES_DIR / "speculative_prefetch.py"), run_name="__main__"
        )
        out = capsys.readouterr().out
        assert "speculate_query" in out
        assert "hits" in out and "wasted" in out

    def test_examples_use_public_api_only(self):
        """Examples must import from `repro` / documented subpackages."""
        for path in EXAMPLES_DIR.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    root = node.module.split(".")[0]
                    assert root in ("repro", "time", "__future__"), (
                        f"{path.name} imports {node.module}"
                    )

    def test_example_imports_resolve(self):
        """Compiling an example does not import it: a name deleted from
        the library must fail here, not when a reader runs the script."""
        import importlib

        for path in EXAMPLES_DIR.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), (
                            f"{path.name}: {node.module} has no {alias.name}"
                        )


class TestRecordTableProperties:
    @given(values=st.lists(st.integers(), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_iteration_order_matches_insertion(self, values):
        table = RecordTable()
        for value in values:
            table.add(table.new_record(v=value))
        assert [record.v for record in table] == values
        assert [record.key for record in table] == list(range(len(values)))

    @given(
        values=st.lists(st.integers(), min_size=1, max_size=60),
        chunk=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_drain_in_chunks_preserves_order(self, values, chunk):
        table = RecordTable()
        for value in values:
            table.add(table.new_record(v=value))
        drained = []
        while len(table):
            drained.extend(record.v for record in table.drain(chunk))
        assert drained == values

    @given(assignments=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), st.integers(), max_size=4
    ))
    @settings(max_examples=60, deadline=None)
    def test_record_assigned_tracking(self, assignments):
        record = Record()
        for key, value in assignments.items():
            setattr(record, key, value)
        assert set(record.assigned()) == set(assignments)
        for key, value in assignments.items():
            assert getattr(record, key) == value
            assert record.get(key) == value
        for missing in {"a", "b", "c", "d"} - set(assignments):
            assert record.get(missing, "default") == "default"
            with pytest.raises(AttributeError):
                getattr(record, missing)


class TestBufferPoolModelProperty:
    @given(
        accesses=st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=200
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru(self, accesses, capacity):
        from collections import OrderedDict

        from repro.db.buffer import BufferPool
        from repro.db.disk import SimulatedDisk
        from repro.db.latency import INSTANT, LatencyMeter

        pool = BufferPool(capacity, SimulatedDisk(INSTANT, LatencyMeter()))
        model: "OrderedDict[int, None]" = OrderedDict()
        for page in accesses:
            expected_hit = page in model
            if expected_hit:
                model.move_to_end(page)
            else:
                if len(model) >= capacity:
                    model.popitem(last=False)
                model[page] = None
            assert pool.access("t", page) is expected_hit
