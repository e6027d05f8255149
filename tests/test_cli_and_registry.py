"""Satellite coverage: QueryRegistry copy/effect/barrier semantics and
the CLI flags added with the prefetch subsystem."""

import subprocess
import sys

import pytest

from repro import __version__
from repro.transform.registry import QueryRegistry, QuerySpec, default_registry


class TestRegistrySemantics:
    def test_copy_is_independent(self):
        original = default_registry()
        clone = original.copy()
        clone.register(
            QuerySpec("run_report", "submit_report", "fetch_result",
                      resource="db", effect="read")
        )
        assert clone.lookup("run_report") is not None
        assert original.lookup("run_report") is None

    def test_copy_preserves_barriers(self):
        original = default_registry()
        clone = original.copy()
        assert clone.barriers() == original.barriers()
        clone.register_barrier("flush_all")
        assert clone.is_barrier("flush_all")
        assert not original.is_barrier("flush_all")

    def test_with_effect_overrides_one_call(self):
        original = default_registry()
        commuting = original.with_effect("execute_update", "commuting_write")
        assert commuting.lookup("execute_update").effect == "commuting_write"
        assert original.lookup("execute_update").effect == "write"
        # the submit-side index follows the override
        assert commuting.lookup_async("submit_update").effect == "commuting_write"

    def test_with_effect_preserves_barriers_and_other_specs(self):
        original = default_registry()
        derived = original.with_effect("execute_query", "write")
        assert derived.is_barrier("commit")
        assert derived.lookup("call").effect == "read"

    def test_with_effect_unknown_name_raises(self):
        with pytest.raises(KeyError):
            default_registry().with_effect("no_such_call", "read")

    def test_invalid_effect_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec("a", "b", "c", effect="destructive")

    def test_default_barriers_present(self):
        registry = default_registry()
        for method in ("begin", "commit", "rollback", "transaction"):
            assert registry.is_barrier(method)
        assert not registry.is_barrier("execute_query")

    def test_lookup_async_matches_submit_names(self):
        registry = default_registry()
        assert registry.lookup_async("submit_query").blocking == "execute_query"
        assert registry.lookup_async("execute_query") is None

    def test_empty_registry(self):
        registry = QueryRegistry()
        assert registry.lookup("execute_query") is None
        assert registry.barriers() == set()
        assert list(registry.specs()) == []


SAMPLE = '''
def load(conn, key, detailed):
    base = conn.execute_query("q", [key])
    total = base.scalar()
    if detailed:
        extra = conn.execute_query("d", [key])
        total = total + extra.scalar()
    return total
'''


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCliFlags:
    def test_version_flag(self):
        proc = run_cli(["--version"])
        assert proc.returncode == 0
        assert f"repro {__version__}" in proc.stdout

    def test_prefetch_flag_hoists(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        plain = run_cli([str(path)])
        prefetched = run_cli([str(path), "--prefetch"])
        assert "submit_query" not in plain.stdout  # straight-line code
        assert "submit_query" in prefetched.stdout
        assert "fetch_result" in prefetched.stdout

    def test_prefetch_report_lists_sites(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--prefetch", "--report"])
        assert proc.returncode == 0
        assert "prefetch load:" in proc.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cache-size", "64"],
            ["--cache-ttl", "2.5"],
            ["--coalesce"],
            ["--coalesce-window", "8"],
            ["--trace"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_removed_hint_flags_are_usage_errors(self, tmp_path, flags):
        # The transform command configures the rewrite only; connection
        # options belong to Database.connect / `repro workload run`.
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--prefetch", *flags])
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr

    def test_cache_size_must_be_positive(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--prefetch", "--cache-size", "0"])
        assert proc.returncode == 2

    def test_cache_ttl_must_be_positive(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--prefetch", "--cache-ttl", "0"])
        assert proc.returncode == 2

    def test_unwritable_output_is_reported(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "-o", str(tmp_path)])  # a directory
        assert proc.returncode == 2
        assert "cannot write" in proc.stderr

    def test_unreadable_source_is_reported(self, tmp_path):
        proc = run_cli([str(tmp_path / "missing.py")])
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr


class TestSpeculativeRegistry:
    def test_default_registry_declares_speculative_read(self):
        registry = default_registry()
        assert registry.lookup("execute_query").speculate == "speculate_query"
        assert registry.lookup("execute_update").speculate == ""
        assert registry.lookup("call").speculate == ""

    def test_speculative_name_resolves_as_async_read(self):
        """The generated speculate_query call must analyze exactly like
        a submit: an external read at submission time."""
        registry = default_registry()
        spec = registry.lookup_async("speculate_query")
        assert spec is not None
        assert spec.blocking == "execute_query"
        assert spec.effect == "read"

    def test_non_read_spec_cannot_declare_speculation(self):
        with pytest.raises(ValueError):
            QuerySpec("execute_update", "submit_update", "fetch_result",
                      effect="write", speculate="speculate_update")

    def test_with_effect_drops_speculation_on_non_read(self):
        registry = default_registry()
        downgraded = registry.with_effect("execute_query", "write")
        assert downgraded.lookup("execute_query").speculate == ""
        # and the read form keeps it
        assert registry.lookup("execute_query").speculate == "speculate_query"

    def test_reregistration_drops_stale_async_aliases(self):
        """A read->write override must not leave speculate_query (or a
        renamed submit) resolving to the stale read-effect spec."""
        registry = default_registry()
        downgraded = registry.with_effect("execute_query", "write")
        assert downgraded.lookup_async("speculate_query") is None
        assert downgraded.lookup_async("submit_query").effect == "write"
        # the original registry is untouched
        assert registry.lookup_async("speculate_query").effect == "read"


SPECULATIVE_SAMPLE = '''
def load(conn, key):
    base = conn.execute_query("q", [key])
    total = base.scalar()
    if total > 3:
        extra = conn.execute_query("d", [key])
        total = total + extra.scalar()
    return total
'''


class TestSpeculateCliFlags:
    def test_speculate_emits_speculative_dispatch(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SPECULATIVE_SAMPLE)
        guarded = run_cli([str(path), "--prefetch"])
        speculative = run_cli([str(path), "--prefetch", "--speculate"])
        assert "speculate_query" not in guarded.stdout  # off by default
        assert "speculate_query" in speculative.stdout

    def test_speculate_report_marks_sites(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SPECULATIVE_SAMPLE)
        proc = run_cli([str(path), "--prefetch", "--speculate", "--report"])
        assert proc.returncode == 0
        assert "(speculative)" in proc.stderr

    def test_speculate_requires_prefetch(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SPECULATIVE_SAMPLE)
        proc = run_cli([str(path), "--speculate"])
        assert proc.returncode == 2
        assert "--speculate requires --prefetch" in proc.stderr

    def test_threshold_requires_speculate(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SPECULATIVE_SAMPLE)
        proc = run_cli([str(path), "--prefetch", "--speculate-threshold", "0.5"])
        assert proc.returncode == 2
        assert "--speculate-threshold requires --speculate" in proc.stderr

    def test_threshold_must_be_a_probability(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SPECULATIVE_SAMPLE)
        for bad in ("1.5", "-0.1"):
            proc = run_cli(
                [str(path), "--prefetch", "--speculate",
                 "--speculate-threshold", bad]
            )
            assert proc.returncode == 2
            assert "within [0, 1]" in proc.stderr

    def test_unclearable_threshold_falls_back_to_guarded(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SPECULATIVE_SAMPLE)
        proc = run_cli(
            [str(path), "--prefetch", "--speculate",
             "--speculate-threshold", "0.95"]
        )
        assert proc.returncode == 0
        assert "speculate_query" not in proc.stdout
        assert "submit_query" in proc.stdout
