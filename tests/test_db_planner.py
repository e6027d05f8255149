"""Unit tests: planner access-path selection and query execution."""

import importlib

import pytest

from repro.db import Database, INSTANT
from repro.db.errors import (
    ParamCountError,
    PlanError,
    SqlSyntaxError,
    UnknownColumnError,
    UnknownTableError,
)
from tests.helpers import reference_select


@pytest.fixture
def loaded(db):
    db.create_table(
        "part", ("part_key", "int"), ("category_id", "int"), ("size", "int"),
        rows_per_page=8,
    )
    db.bulk_load("part", [(i, i % 5, i * 2) for i in range(100)])
    return db


def plan_of(db, sql):
    return db.server.prepare(sql).plan


def _hash(db):
    db.create_index("ix", "part", "category_id")


def _sized(db):
    db.create_index("sx", "part", "size")


def _both(db):
    _hash(db)
    _sized(db)


#: Indexes built on ``loaded`` before planning, by name.
SETUPS = {
    "plain": lambda db: None,
    "hash": _hash,
    "sized": _sized,
    "both": _both,
}

#: (setup, sql, access path, bucket column position, point key): what
#: the planner answers for each shape of WHERE conjunct.
ACCESS_PATHS = [
    ("plain", "SELECT * FROM part WHERE size = 10", "SeqScanOp", None, None),
    ("hash", "SELECT * FROM part WHERE category_id = 3", "HashEqOp", None, None),
    ("hash", "SELECT * FROM part WHERE size > 5 AND category_id = 1", "HashEqOp", None, None),
    ("hash", "SELECT * FROM part WHERE category_id = 1 OR size = 2", "SeqScanOp", None, None),
    ("hash", "SELECT * FROM part WHERE 3 = category_id", "HashEqOp", None, None),
    ("hash", "SELECT part_key FROM part WHERE category_id = ? + 1", "HashEqOp", 1, None),
    ("plain", "SELECT * FROM part WHERE size NOT BETWEEN 10 AND 20", "SeqScanOp", None, None),
    ("plain", "SELECT * FROM part WHERE size IN (10, 20)", "SeqScanOp", None, None),
    ("plain", "SELECT * FROM part WHERE size IS NULL", "SeqScanOp", None, None),
    ("plain", "SELECT * FROM part WHERE size > part_key", "SeqScanOp", None, None),
    ("hash", "SELECT * FROM part WHERE size = 4 AND category_id = 2", "HashEqOp", None, None),
    ("hash", "SELECT * FROM part WHERE category_id = 2 AND size = 4", "HashEqOp", None, None),
    ("hash", "SELECT * FROM part WHERE size > ? AND category_id = ? AND part_key = ?", "HashEqOp", 1, None),
    ("plain", "SELECT part_key FROM part WHERE ? = size", "SeqScanOp", 2, "size"),
    ("plain", "SELECT count(*) FROM part WHERE size = ?", "SeqScanOp", 2, None),
    ("plain", "SELECT * FROM part WHERE size = ? OR part_key = ?", "SeqScanOp", None, None),
    # A hash index serves equality only: every range or other shape of
    # conjunct on its column scans.
    ("sized", "SELECT * FROM part WHERE size = ?", "HashEqOp", 2, "size"),
    ("sized", "SELECT * FROM part WHERE size > 50", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE 50 < size", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE ? >= size", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE size BETWEEN 10 AND 20", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE size NOT BETWEEN 10 AND 20", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE size IN (10, 20)", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE size IS NULL", "SeqScanOp", None, None),
    ("sized", "SELECT * FROM part WHERE size > part_key", "SeqScanOp", None, None),
    # Two hash-indexed columns: the first indexed equality conjunct wins.
    ("both", "SELECT * FROM part WHERE size > 5 AND category_id = 1", "HashEqOp", None, None),
    ("both", "SELECT * FROM part WHERE size = 4 AND category_id = 2", "HashEqOp", None, None),
    ("both", "SELECT * FROM part WHERE category_id = 2 AND size = 4", "HashEqOp", None, None),
    ("both", "SELECT * FROM part WHERE size > ? AND category_id = ? AND part_key = ?", "HashEqOp", 1, None),
]


class TestAccessPaths:
    @pytest.mark.parametrize("setup,sql,access_path,bucket,point_key", ACCESS_PATHS)
    def test_planner_answers(self, loaded, setup, sql, access_path, bucket, point_key):
        SETUPS[setup](loaded)
        plan = plan_of(loaded, sql)
        assert plan.access_path == access_path
        assert (plan.bucket and plan.bucket[0], plan.point_key) == (bucket, point_key)


#: Small sizes for each workload module's ``build_database``.
WORKLOAD_SIZES = {
    "hotset": dict(users=200, items=100, comments=150, bids=120),
    "rubis": dict(users=200, items=100, comments=150, bids=120),
    "rubbos": dict(users=100, stories=80, comments=150),
    "category": dict(parts=300),
    "forms": {},
}

#: (module, constant, access path, footprint, bucket column position,
#: point key, point probe set) for every statement the workloads send.
WORKLOAD_PLANS = [
    ("hotset", "DETAIL_SQL", "HashEqOp", ("seller_id", 0, int), 2, None, False),
    ("hotset", "PROFILE_SQL", "HashEqOp", ("user_id", 0, int), 0, "user_id", True),
    ("hotset", "RATING_UPDATE_SQL", "HashEqOp", ("user_id", 1, int), None, None, False),
    ("rubis", "AUTHOR_SQL", "HashEqOp", ("user_id", 0, int), 0, "user_id", True),
    ("rubis", "BID_COUNT_SQL", "HashEqOp", ("item_id", 0, int), 1, None, False),
    ("rubis", "CATEGORY_ITEMS_SQL", "HashEqOp", ("category_id", 0, int), 4, None, False),
    ("rubis", "ITEM_PRICE_SQL", "HashEqOp", ("item_id", 0, int), 0, "item_id", True),
    ("rubis", "ITEM_SQL", "HashEqOp", ("item_id", 0, int), 0, "item_id", True),
    ("rubis", "MAX_BID_SQL", "HashEqOp", ("item_id", 0, int), 1, None, False),
    ("rubis", "REGION_USERS_SQL", "HashEqOp", ("region_id", 0, int), 3, None, False),
    ("rubis", "SELLER_RATING_SQL", "HashEqOp", ("user_id", 0, int), 0, "user_id", True),
    ("rubis", "USER_COMMENTS_SQL", "HashEqOp", ("to_user", 0, int), 2, None, False),
    ("rubbos", "AUTHOR_SQL", "HashEqOp", ("user_id", 0, int), 0, "user_id", True),
    ("rubbos", "CHILD_COMMENTS_SQL", "HashEqOp", ("parent_id", 0, int), 2, "parent_id", True),
    ("rubbos", "COMMENT_RATING_SQL", "HashEqOp", ("comment_id", 0, int), 0, "comment_id", True),
    ("rubbos", "MODERATION_SQL", "HashEqOp", ("comment_id", 0, int), 0, "comment_id", True),
    ("rubbos", "STORY_COMMENTS_SQL", "HashEqOp", ("story_id", 0, int), 1, None, False),
    ("rubbos", "STORY_SQL", "HashEqOp", ("story_id", 0, int), 0, "story_id", True),
    ("rubbos", "USER_STORIES_SQL", "HashEqOp", ("author_id", 0, int), 2, None, False),
    ("category", "CHILDREN_SQL", "HashEqOp", ("parent_id", 0, int), 1, "parent_id", True),
    ("category", "COUNT_SQL", "HashEqOp", ("category_id", 0, int), 1, None, False),
    ("category", "MAX_SIZE_SQL", "HashEqOp", ("category_id", 0, int), 1, None, False),
    ("forms", "INSERT_FORM_SQL", None, None, None, None, False),
]


class TestWorkloadPlans:
    """The statements the benchmark and the figures send, planned on
    their own schemas: the traffic check for any planner change."""

    def test_every_workload_statement_is_tabled(self):
        tabled = {(module, name) for module, name, *_ in WORKLOAD_PLANS}
        for module in WORKLOAD_SIZES:
            names = vars(importlib.import_module(f"repro.workloads.{module}"))
            for name in names:
                if name.endswith("_SQL"):
                    assert (module, name) in tabled

    @pytest.mark.parametrize("module", sorted(WORKLOAD_SIZES))
    def test_plans(self, module):
        workload = importlib.import_module(f"repro.workloads.{module}")
        db = workload.build_database(**WORKLOAD_SIZES[module])
        try:
            for name, *expected in (
                row[1:] for row in WORKLOAD_PLANS if row[0] == module
            ):
                plan = plan_of(db, getattr(workload, name))
                bucket = getattr(plan, "bucket", None)
                assert [
                    getattr(plan, "access_path", None),
                    getattr(plan, "footprint", None),
                    bucket and bucket[0],
                    getattr(plan, "point_key", None),
                    getattr(plan, "point_probe", None) is not None,
                ] == expected, name
        finally:
            db.close()


#: Comparisons whose bound binds NULL (no row can pass), with a
#: non-NULL binding of each that does match rows.
NULL_BOUNDS = [
    ("SELECT k FROM part WHERE size > ?", (390,)),
    ("SELECT k FROM part WHERE size < ?", (3,)),
    ("SELECT k FROM part WHERE size = ?", (42,)),
    ("SELECT k FROM part WHERE size BETWEEN ? AND 300", (290,)),
]


class TestNullBounds:
    """A comparison whose bound is NULL returns no row on either access
    path, as the reference does; the hash probe of a NULL key (no row
    holds one) reads no heap page."""

    @pytest.fixture
    def ranged(self, db, monkeypatch):
        db.create_table("part", ("k", "int"), ("size", "int"), rows_per_page=8)
        db.bulk_load("part", [(i, i * 2) for i in range(200)])
        db.create_index("sx", "part", "size")
        touched = []
        access_keys, access_many = db.buffer.access_keys, db.buffer.access_many

        def keyed(keys):
            touched.extend(name for name, _page_no in keys)
            return access_keys(keys)

        def many(name, page_nos):
            page_nos = list(page_nos)
            touched.extend([name] * len(page_nos))
            return access_many(name, page_nos)

        # The pool's two entries: every page an access path reads goes
        # through one of them (``access`` is only their per-key fallback).
        monkeypatch.setattr(db.buffer, "access_keys", keyed)
        monkeypatch.setattr(db.buffer, "access_many", many)
        return db, touched

    @pytest.mark.parametrize("sql,bound", NULL_BOUNDS)
    def test_a_null_bound_reads_nothing(self, ranged, sql, bound):
        db, touched = ranged
        hashed = plan_of(db, sql).access_path == "HashEqOp"
        assert hashed == sql.endswith("size = ?")
        for params in ((None,), bound):
            db.buffer.clear()  # every page misses, so each is recorded
            del touched[:]
            result = db.server.execute(sql, params)
            assert (result.columns, result.rows) == reference_select(db, sql, params)
            assert bool(result.rows) == (params != (None,))
            if hashed:  # the matching rows share one heap page
                assert touched.count("part") == (params != (None,))


class TestIndexEquivalence:
    """Planning is a cost decision, never a correctness one."""

    QUERIES = [
        ("SELECT part_key FROM part WHERE category_id = ?", (2,)),
        ("SELECT count(*) FROM part WHERE category_id = ? AND size > 20", (3,)),
        ("SELECT max(size) FROM part WHERE category_id = ?", (0,)),
        ("SELECT part_key FROM part WHERE size BETWEEN 10 AND 40", ()),
    ]

    def test_same_rows_with_and_without_indexes(self, db):
        schema = [("part_key", "int"), ("category_id", "int"), ("size", "int")]
        rows = [(i, i % 5, i * 2) for i in range(100)]

        def build(with_indexes):
            database = Database(INSTANT)
            database.create_table("part", *schema)
            database.bulk_load("part", rows)
            if with_indexes:
                database.create_index("ix", "part", "category_id")
            return database

        plain, indexed = build(False), build(True)
        try:
            for sql, params in self.QUERIES:
                a = sorted(plain.server.execute(sql, params).rows)
                b = sorted(indexed.server.execute(sql, params).rows)
                assert a == b, sql
        finally:
            plain.close()
            indexed.close()


    def test_same_rows_with_every_column_indexed(self):
        rows = [(i, i % 5, None if i % 7 == 0 else i * 2) for i in range(100)]
        databases = []
        for columns in ((), ("part_key", "category_id", "size")):
            database = Database(INSTANT)
            database.create_table(
                "part", ("part_key", "int"), ("category_id", "int"), ("size", "int")
            )
            database.bulk_load("part", rows)
            for column in columns:
                database.create_index(f"ix_{column}", "part", column)
            databases.append(database)
        plain, indexed = databases
        try:
            for sql, params in self.QUERIES + [
                ("SELECT part_key FROM part WHERE size = ? AND part_key = ?", (14, 7)),
                ("SELECT count(*) FROM part WHERE size = ?", (None,)),
                ("SELECT count(*) FROM part WHERE size IS NULL", ()),
            ]:
                a = sorted(plain.server.execute(sql, params).rows)
                b = sorted(indexed.server.execute(sql, params).rows)
                assert a == b, sql
        finally:
            plain.close()
            indexed.close()


class TestExecution:
    def test_projection_and_alias(self, loaded):
        result = loaded.server.execute(
            "SELECT part_key AS pk, size FROM part WHERE part_key = 3"
        )
        assert result.columns == ("pk", "size")
        assert result.rows == [(3, 6)]

    def test_range_read_returns_every_match(self, loaded):
        result = loaded.server.execute(
            "SELECT part_key FROM part WHERE part_key > ?", (96,)
        )
        assert sorted(result.column("part_key")) == [97, 98, 99]

    def test_group_by_yields_each_key_once(self, loaded):
        result = loaded.server.execute(
            "SELECT category_id FROM part GROUP BY category_id"
        )
        assert sorted(result.column("category_id")) == [0, 1, 2, 3, 4]

    def test_count_per_group(self, loaded):
        result = loaded.server.execute(
            "SELECT category_id, count(*) FROM part GROUP BY category_id"
        )
        assert sorted(result.rows) == [(key, 20) for key in range(5)]

    def test_aggregates(self, loaded):
        result = loaded.server.execute(
            "SELECT count(*), sum(size), min(size), max(size), avg(size) FROM part"
        )
        count, total, low, high, mean = result.rows[0]
        assert count == 100
        assert total == sum(i * 2 for i in range(100))
        assert (low, high) == (0, 198)
        assert mean == total / 100

    def test_aggregate_empty_input(self, loaded):
        result = loaded.server.execute(
            "SELECT count(*), max(size) FROM part WHERE part_key = -1"
        )
        assert result.rows[0] == (0, None)

    def test_scalar_on_empty(self, loaded):
        result = loaded.server.execute("SELECT part_key FROM part WHERE part_key = -5")
        assert result.scalar() is None

    def test_param_count_mismatch(self, loaded):
        with pytest.raises(ParamCountError):
            loaded.server.execute("SELECT * FROM part WHERE part_key = ?", ())

    def test_unknown_table(self, loaded):
        with pytest.raises(UnknownTableError):
            loaded.server.execute("SELECT * FROM missing")

    def test_unknown_column(self, loaded):
        with pytest.raises(UnknownColumnError):
            loaded.server.execute("SELECT nope FROM part")

    def test_syntax_error(self, loaded):
        with pytest.raises(SqlSyntaxError):
            loaded.server.execute("SELEC * FROM part")

    def test_mixed_aggregate_plain_rejected(self, loaded):
        with pytest.raises(PlanError):
            loaded.server.execute("SELECT part_key, count(*) FROM part")
