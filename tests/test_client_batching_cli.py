"""Unit tests: the batching comparator and the CLI front end."""

import subprocess
import sys

import pytest

from repro.backends import BACKENDS
from repro.client.batching import BatchExecutor
from repro.db import Database, INSTANT
from repro.db.errors import TypeMismatchError


@pytest.fixture
def loaded(db):
    db.create_table("t", ("a", "int"), ("grp", "int"))
    db.bulk_load("t", [(i, i % 4) for i in range(40)])
    db.create_index("ix", "t", "grp")
    return db


class TestBatchExecutor:
    def test_batch_results_in_order(self, loaded):
        conn = loaded.connect()
        batch = BatchExecutor(conn)
        results = batch.execute_batch(
            "SELECT count(*) FROM t WHERE grp = ?", [(0,), (1,), (2,), (3,)]
        )
        assert [r.scalar() for r in results] == [10, 10, 10, 10]
        assert batch.stats.batches == 1
        assert batch.stats.statements == 4
        conn.close()

    def test_empty_batch(self, loaded):
        conn = loaded.connect()
        batch = BatchExecutor(conn)
        assert batch.execute_batch("SELECT count(*) FROM t WHERE grp = ?", []) == []
        conn.close()

    def test_batched_updates(self, loaded):
        conn = loaded.connect()
        batch = BatchExecutor(conn)
        before = conn.server.stats.statements_executed
        inserted = batch.execute_batched_updates(
            "INSERT INTO t (a, grp) VALUES (?, ?)", [(100, 9), (101, 9), (102, 9)]
        )
        assert inserted == 3
        assert conn.server.stats.statements_executed == before + 3
        assert (
            conn.execute_query("SELECT count(*) FROM t WHERE grp = 9").scalar() == 3
        )
        # Writes keep the fan-out shape (they are not demuxable, and
        # funneling them through the batch path would serialize them on
        # one server worker): never counted as a set batch.
        assert batch.stats.set_batches == 0
        conn.close()

    def test_unhashable_param_matches_plain_execution(self):
        # Seq-scan plan (no index): a list parameter is no value any
        # store binds, so its binding of the batch fails as the plain
        # statement does, and only that binding.
        db = Database(INSTANT)
        db.create_table("t", ("a", "int"), ("grp", "int"))
        db.bulk_load("t", [(i, i % 4) for i in range(40)])
        db.backend("sqlite")
        for name in BACKENDS:
            with db.connect(backend=name) as conn:
                batch = BatchExecutor(conn)
                sql = "SELECT count(*) FROM t WHERE grp = ?"
                with pytest.raises(TypeMismatchError):
                    conn.execute_query(sql, [[1]])
                with pytest.raises(TypeMismatchError):
                    batch.execute_batch(sql, [([1],), (1,)])
                store = conn.server
                outcomes = store.execute_prepared_batch(
                    store.prepare(sql), [([1],), (1,)]
                )
                assert isinstance(outcomes[0], TypeMismatchError), name
                assert outcomes[1].scalar() == 10
        db.close()

    def _tiny_latency_db(self):
        from repro.db import SYS1

        db = Database(SYS1.scaled(0.001))  # nonzero so charges are counted
        db.create_table("t", ("a", "int"), ("grp", "int"))
        db.bulk_load("t", [(i, i % 4) for i in range(40)])
        return db

    def test_batch_is_exactly_one_scan(self):
        """N equality bindings on a demuxable plan = ONE statement
        execution, ONE scan — the set-oriented path's core promise."""
        db = Database(INSTANT)
        db.create_table("t", ("a", "int"), ("grp", "int"))
        db.bulk_load("t", [(i, i % 4) for i in range(40)])  # no index: seq plan
        conn = db.connect(backend="memory")  # asserts engine scan stats
        batch = BatchExecutor(conn)
        stats = db.server.stats
        before = stats.statements_executed
        db.scans.reset_stats()
        results = batch.execute_batch(
            "SELECT count(*) FROM t WHERE grp = ?", [(g,) for g in range(4)]
        )
        assert [r.scalar() for r in results] == [10, 10, 10, 10]
        assert stats.statements_executed == before + 1
        assert stats.batched_calls == 1
        assert stats.batched_bindings == 4
        assert stats.scans_saved == 3
        assert db.scans.stats.led + db.scans.stats.solo == 1  # one real scan
        assert batch.stats.set_batches == 1
        conn.close()
        db.close()

    def test_one_round_trip_per_batch(self):
        db = self._tiny_latency_db()
        conn = db.connect(backend="memory")  # asserts meter charges
        batch = BatchExecutor(conn)
        db.meter.reset()
        batch.execute_batch(
            "SELECT count(*) FROM t WHERE grp = ?", [(g,) for g in range(4)]
        )
        assert db.meter.counts()["network"] == 1
        conn.close()
        db.close()

    def test_blocking_loop_pays_n_round_trips(self):
        db = self._tiny_latency_db()
        conn = db.connect(backend="memory")  # asserts meter charges
        db.meter.reset()
        for grp in range(4):
            conn.execute_query("SELECT count(*) FROM t WHERE grp = ?", [grp])
        assert db.meter.counts()["network"] == 4
        conn.close()
        db.close()


SAMPLE = '''
def load(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
'''

BLOCKED_SAMPLE = '''
def walk(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.extend(walk(conn, r.rows))
    return out
'''


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCli:
    def test_transform_to_stdout(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path)])
        assert proc.returncode == 0
        assert "submit_query" in proc.stdout

    def test_output_file_and_report(self, tmp_path):
        path = tmp_path / "app.py"
        out = tmp_path / "app_async.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "-o", str(out), "--report"])
        assert proc.returncode == 0
        assert "submit_query" in out.read_text()
        assert "transformed" in proc.stderr

    def test_analyze_mode(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE + BLOCKED_SAMPLE)
        proc = run_cli([str(path), "--analyze"])
        assert proc.returncode == 0
        assert "1/2" in proc.stdout.replace(" ", "") or "recursive" in proc.stdout

    def test_no_reorder_flag(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(
            "def f(conn, c):\n"
            "    total = 0\n"
            "    while c is not None:\n"
            '        r = conn.execute_query("q", [c])\n'
            "        total += r.scalar()\n"
            "        c = parent(c)\n"
            "    return total\n"
        )
        with_reorder = run_cli([str(path)])
        without = run_cli([str(path), "--no-reorder"])
        assert "submit_query" in with_reorder.stdout
        assert "submit_query" not in without.stdout

    def test_window_flag(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--window", "16"])
        assert proc.returncode == 0
        assert "16" in proc.stdout

    def test_commuting_updates_flag(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(
            "def ins(conn, n):\n"
            "    i = 0\n"
            "    while i < n:\n"
            '        conn.execute_update("ins", [i])\n'
            "        i = i + 1\n"
            "    return i\n"
        )
        plain = run_cli([str(path)])
        commuting = run_cli([str(path), "--commuting-updates"])
        assert "submit_update" not in plain.stdout
        assert "submit_update" in commuting.stdout

    def test_barrier_flag_blocks_custom_call(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(
            "def f(conn, audit, items):\n"
            "    out = []\n"
            "    for item in items:\n"
            '        r = conn.execute_query("q", [item])\n'
            "        audit.flush_all()\n"
            "        out.append(r.scalar())\n"
            "    return out\n"
        )
        plain = run_cli([str(path)])
        barred = run_cli([str(path), "--barrier", "flush_all"])
        assert "submit_query" in plain.stdout
        assert "submit_query" not in barred.stdout

    def test_builtin_txn_barriers_block(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(
            "def f(conn, items):\n"
            "    out = []\n"
            "    for item in items:\n"
            "        conn.begin()\n"
            '        r = conn.execute_query("q", [item])\n'
            "        conn.commit()\n"
            "        out.append(r.scalar())\n"
            "    return out\n"
        )
        proc = run_cli([str(path)])
        assert proc.returncode == 0
        assert "submit_query" not in proc.stdout

    # Coalescing is a connection option (Database.connect(coalesce=),
    # `repro workload run --coalesce`), not a transform-command flag:
    # every spelling is a usage error.
    def test_coalesce_requires_prefetch(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--coalesce"])
        assert proc.returncode == 2

    def test_coalesce_window_requires_coalesce(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli([str(path), "--prefetch", "--coalesce-window", "8"])
        assert proc.returncode == 2

    def test_coalesce_window_must_be_at_least_two(self, tmp_path):
        path = tmp_path / "app.py"
        path.write_text(SAMPLE)
        proc = run_cli(
            [str(path), "--prefetch", "--coalesce", "--coalesce-window", "1"]
        )
        assert proc.returncode == 2

    def test_missing_file(self):
        proc = run_cli(["/nonexistent/nope.py"])
        assert proc.returncode == 2

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("def broken(:\n")
        proc = run_cli([str(path)])
        assert proc.returncode == 1
