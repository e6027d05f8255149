"""Unit tests: INSERT / UPDATE / DELETE with index maintenance."""

import pytest

from repro.db.errors import PlanError, TypeMismatchError
from tests.helpers import reference_select


@pytest.fixture
def loaded(db):
    db.create_table("t", ("id", "int"), ("grp", "int"), ("val", "int"))
    db.bulk_load("t", [(i, i % 3, i * 10) for i in range(12)])
    db.create_index("ix_grp", "t", "grp")
    return db


def count(db, where=""):
    sql = "SELECT count(*) FROM t" + (f" WHERE {where}" if where else "")
    return db.server.execute(sql).scalar()


class TestInsert:
    def test_insert_with_columns(self, loaded):
        result = loaded.server.execute(
            "INSERT INTO t (id, grp, val) VALUES (?, ?, ?)", (100, 1, 5)
        )
        assert result.rowcount == 1
        assert count(loaded, "id = 100") == 1

    def test_insert_full_row(self, loaded):
        loaded.server.execute("INSERT INTO t VALUES (101, 2, 7)")
        assert count(loaded, "id = 101") == 1

    def test_missing_columns_become_null(self, loaded):
        loaded.server.execute("INSERT INTO t (id) VALUES (102)")
        rows = loaded.server.execute("SELECT grp, val FROM t WHERE id = 102").rows
        assert rows == [(None, None)]

    def test_insert_updates_indexes(self, loaded):
        loaded.server.execute("INSERT INTO t (id, grp, val) VALUES (103, 1, 999)")
        assert count(loaded, "grp = 1 AND id = 103") == 1
        assert count(loaded, "val > 900") == 1

    def test_insert_wrong_arity(self, loaded):
        with pytest.raises(PlanError):
            loaded.server.execute("INSERT INTO t VALUES (1, 2)")

    def test_insert_type_error(self, loaded):
        with pytest.raises(TypeMismatchError):
            loaded.server.execute("INSERT INTO t (id) VALUES ('abc')")

    def test_insert_expression_values(self, loaded):
        loaded.server.execute("INSERT INTO t (id, grp, val) VALUES (?, 1 + 1, 3 * 4)", (104,))
        rows = loaded.server.execute("SELECT grp, val FROM t WHERE id = 104").rows
        assert rows == [(2, 12)]


class TestUpdate:
    def test_update_with_where(self, loaded):
        result = loaded.server.execute("UPDATE t SET val = 0 WHERE grp = 1")
        assert result.rowcount == 4
        assert count(loaded, "grp = 1 AND val = 0") == 4

    def test_update_expression_uses_old_row(self, loaded):
        loaded.server.execute("UPDATE t SET val = val + 1 WHERE id = 3")
        assert loaded.server.execute("SELECT val FROM t WHERE id = 3").scalar() == 31

    def test_update_maintains_index(self, loaded):
        loaded.server.execute("UPDATE t SET grp = 9 WHERE id = 0")
        assert count(loaded, "grp = 9") == 1
        assert count(loaded, "grp = 0 AND id = 0") == 0

    def test_update_all_rows(self, loaded):
        result = loaded.server.execute("UPDATE t SET val = 1")
        assert result.rowcount == 12

    def test_update_no_match(self, loaded):
        assert loaded.server.execute("UPDATE t SET val = 1 WHERE id = -1").rowcount == 0


class TestDelete:
    def test_delete_with_where(self, loaded):
        result = loaded.server.execute("DELETE FROM t WHERE grp = 0")
        assert result.rowcount == 4
        assert count(loaded) == 8
        assert count(loaded, "grp = 0") == 0

    def test_delete_maintains_index(self, loaded):
        loaded.server.execute("DELETE FROM t WHERE id = 5")
        assert count(loaded, "grp = 2 AND id = 5") == 0

    def test_delete_all(self, loaded):
        loaded.server.execute("DELETE FROM t")
        assert count(loaded) == 0

    def test_reinsert_after_delete(self, loaded):
        loaded.server.execute("DELETE FROM t WHERE id = 1")
        loaded.server.execute("INSERT INTO t (id, grp, val) VALUES (1, 1, 10)")
        assert count(loaded, "id = 1") == 1


class TestTwoIndexes:
    """Every write keeps a second hash index (on ``val``) in step with
    the heap as well as ``ix_grp``: each probe answers what a scan of
    the heap does."""

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (50, 1, 30)",
            "UPDATE t SET val = 999, grp = 0 WHERE id = 4",
            "DELETE FROM t WHERE val = 30",
        ],
        ids=["insert", "update", "delete"],
    )
    def test_probes_match_the_scan(self, loaded, sql):
        loaded.create_index("ix_val", "t", "val")
        loaded.server.execute(sql)
        for column, keys in (("grp", range(-1, 4)), ("val", (0, 30, 40, 999))):
            probe = f"SELECT id FROM t WHERE {column} = ?"
            assert loaded.server.prepare(probe).plan.access_path == "HashEqOp"
            for key in keys:
                result = loaded.server.execute(probe, (key,))
                assert (result.columns, result.rows) == reference_select(
                    loaded, probe, (key,)
                ), (column, key)


class TestSchemaThroughDatabase:
    def test_ddl_invalidates_cached_plans(self, db):
        db.create_table("fresh", ("a", "int"))
        prepared = db.server.prepare("SELECT * FROM fresh WHERE a = 1")
        assert prepared.plan.access_path == "SeqScanOp"
        db.create_index("fx", "fresh", "a")
        # Re-preparing the same SQL must see the new index.
        again = db.server.prepare("SELECT * FROM fresh WHERE a = 1")
        assert again.plan.access_path == "HashEqOp"
