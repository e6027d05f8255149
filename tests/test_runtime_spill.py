"""Tests for the disk-spilling record table (Discussion section,
memory-overhead mitigation (a))."""

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, INSTANT
from repro.runtime import Record, RecordTable, SpillableRecordTable


def make_table(max_resident=4, spill_batch=None, **kw):
    return SpillableRecordTable(
        max_resident=max_resident, spill_batch=spill_batch, **kw
    )


def fill(table, count, **extra):
    for i in range(count):
        record = table.new_record(v=i, **extra)
        table.add(record)
    return table


class TestBasics:
    def test_keys_are_sequential(self):
        table = make_table()
        keys = [table.add(table.new_record(v=i)) for i in range(10)]
        assert keys == list(range(10))

    def test_iteration_preserves_key_order_across_spills(self):
        table = fill(make_table(max_resident=4), 25)
        assert [r.v for r in table] == list(range(25))
        assert [r.key for r in table] == list(range(25))

    def test_no_spill_below_cap(self):
        table = fill(make_table(max_resident=100), 50)
        assert table.stats.segments_written == 0
        assert table.stats.peak_resident == 50

    def test_spill_stats(self):
        table = fill(make_table(max_resident=4, spill_batch=2), 11)
        assert table.stats.added == 11
        assert table.stats.spilled >= 6
        assert table.stats.segments_written >= 3
        assert table.stats.bytes_written > 0
        assert table.stats.peak_resident <= 5  # cap + the triggering add

    def test_each_iteration_reads_every_segment_once(self):
        table = fill(make_table(max_resident=4, spill_batch=2), 13)
        written = table.stats.segments_written
        assert written > 1
        for passes in (1, 2):
            assert [r.v for r in table] == list(range(13))
            assert table.stats.segments_read == passes * written

    def test_iteration_while_producing_sees_a_key_order_prefix(self):
        table = make_table(max_resident=8, spill_batch=4)
        snapshots = []

        def produce():
            for i in range(200):
                table.add(table.new_record(v=i))

        producer = threading.Thread(target=produce)
        producer.start()
        while producer.is_alive():  # read on this thread while it appends
            snapshots.append([record.v for record in table])
        producer.join()
        snapshots.append([record.v for record in table])
        assert snapshots[-1] == list(range(200))
        assert all(seen == list(range(len(seen))) for seen in snapshots)
        table.clear()

    def test_clear_removes_segment_files(self):
        table = fill(make_table(max_resident=4), 25)
        directory = table._dir
        assert os.listdir(directory)
        table.clear()
        assert not os.listdir(directory)
        assert list(table) == []

    def test_records_usable_after_reload(self):
        table = make_table(max_resident=2)
        for i in range(10):
            record = table.new_record()
            record.name = f"item-{i}"
            record.payload = {"n": i, "squares": [j * j for j in range(i)]}
            table.add(record)
        replayed = list(table)
        assert replayed[7].payload["squares"][-1] == 36
        assert replayed[0].name == "item-0"

    def test_validation(self):
        with pytest.raises(ValueError):
            SpillableRecordTable(max_resident=1)
        with pytest.raises(ValueError):
            SpillableRecordTable(max_resident=4, spill_batch=9)

    def test_explicit_spill_dir_is_kept(self, tmp_path):
        directory = tmp_path / "spills"
        table = fill(
            make_table(max_resident=2, spill_dir=str(directory)), 10
        )
        assert list(table)  # readable
        table.clear()
        assert directory.exists()  # caller-owned directory survives


class TestPinnedAttributes:
    def test_unpicklable_attribute_survives_spill(self):
        table = make_table(max_resident=2)
        lock_like = open(os.devnull, "w")  # file objects do not pickle
        try:
            for i in range(8):
                record = table.new_record(v=i, resource=lock_like)
                table.add(record)
            replayed = list(table)
            assert all(r.resource is lock_like for r in replayed)
            assert [r.v for r in replayed] == list(range(8))
        finally:
            lock_like.close()

    def test_pinned_marker_collision_is_harmless(self):
        from repro.runtime.spill import _PINNED

        table = make_table(max_resident=2)
        for i in range(8):
            table.add(table.new_record(v=_PINNED, n=i))
        assert all(r.v == _PINNED for r in table)

    def test_live_query_handles_survive_spill(self):
        """End-to-end Rule A fetch loop over a spilled table."""
        database = Database(INSTANT)
        database.create_table("t", ("id", "int"), ("v", "text"))
        database.bulk_load("t", [(i, f"row{i}") for i in range(30)])
        try:
            with database.connect(async_workers=4) as conn:
                table = make_table(max_resident=3)
                for i in range(30):
                    record = table.new_record(i=i)
                    record.handle = conn.submit_query(
                        "select v from t where id = ?", [i]
                    )
                    table.add(record)
                assert table.stats.spilled > 0
                values = [
                    conn.fetch_result(record.handle).scalar() for record in table
                ]
                assert values == [f"row{i}" for i in range(30)]
        finally:
            database.close()


class TestEquivalenceWithRecordTable:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(), max_size=60),
        max_resident=st.integers(min_value=2, max_value=10),
    )
    def test_replay_matches_plain_table(self, values, max_resident):
        plain = RecordTable()
        spilly = SpillableRecordTable(max_resident=max_resident)
        for value in values:
            plain.add(plain.new_record(v=value))
            spilly.add(spilly.new_record(v=value))
        assert [r.v for r in plain] == [r.v for r in spilly]
        assert [r.key for r in plain] == [r.key for r in spilly]
        spilly.clear()

    def test_clear_restarts_the_keys_as_the_plain_table_does(self):
        """add x3, clear, add: both tables number the last record 0."""
        keys = []
        for table in (RecordTable(), SpillableRecordTable(max_resident=2)):
            added = [table.add(table.new_record(v=i)) for i in range(3)]
            table.clear()
            added.append(table.add(table.new_record(v=3)))
            assert [record.key for record in table] == added[3:]
            keys.append(added)
            if isinstance(table, SpillableRecordTable):
                table.clear()
        assert keys[0] == keys[1] == [0, 1, 2, 0]
