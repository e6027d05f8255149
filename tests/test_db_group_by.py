"""Unit tests: GROUP BY evaluation."""

import pytest

from repro.db.errors import PlanError, UnknownColumnError


@pytest.fixture
def loaded(db):
    db.create_table("sales", ("region", "text"), ("agent", "int"), ("amount", "int"))
    db.bulk_load(
        "sales",
        [
            ("east", 1, 10), ("east", 1, 20), ("east", 2, 5),
            ("west", 3, 7), ("west", 3, 3), ("north", 4, 100),
        ],
    )
    return db


class TestGroupBy:
    def test_single_key(self, loaded):
        result = loaded.server.execute(
            "SELECT region, count(*), sum(amount) FROM sales GROUP BY region"
        )
        assert sorted(result.rows) == [
            ("east", 3, 35), ("north", 1, 100), ("west", 2, 10),
        ]

    def test_multi_key(self, loaded):
        result = loaded.server.execute(
            "SELECT region, agent, sum(amount) FROM sales "
            "GROUP BY region, agent"
        )
        assert sorted(result.rows) == [
            ("east", 1, 30), ("east", 2, 5), ("north", 4, 100), ("west", 3, 10),
        ]

    def test_where_applies_before_grouping(self, loaded):
        result = loaded.server.execute(
            "SELECT region, count(*) FROM sales WHERE amount > 5 "
            "GROUP BY region"
        )
        assert sorted(result.rows) == [("east", 2), ("north", 1), ("west", 1)]

    def test_aggregate_alias_names_its_column(self, loaded):
        result = loaded.server.execute(
            "SELECT region, sum(amount) AS total FROM sales GROUP BY region"
        )
        assert result.columns == ("region", "total")
        assert sorted(result.column("total")) == [10, 35, 100]

    def test_avg_min_max_per_group(self, loaded):
        result = loaded.server.execute(
            "SELECT region, min(amount), max(amount), avg(amount) FROM sales "
            "WHERE region = 'east' GROUP BY region"
        )
        assert result.rows == [("east", 5, 20, 35 / 3)]

    def test_empty_input_yields_no_groups(self, loaded):
        result = loaded.server.execute(
            "SELECT region, count(*) FROM sales WHERE amount > 1000 "
            "GROUP BY region"
        )
        assert result.rows == []

    def test_non_grouped_column_rejected(self, loaded):
        with pytest.raises(PlanError):
            loaded.server.execute(
                "SELECT agent, count(*) FROM sales GROUP BY region"
            )

    def test_unknown_group_column(self, loaded):
        with pytest.raises(UnknownColumnError):
            loaded.server.execute(
                "SELECT count(*) FROM sales GROUP BY ghost"
            )

    def test_group_key_with_nulls(self, db):
        db.create_table("t", ("k", "int"), ("v", "int"))
        db.bulk_load("t", [(None, 1), (None, 2), (1, 3)])
        result = db.server.execute(
            "SELECT k, count(*) FROM t GROUP BY k"
        )
        assert (None, 2) in result.rows
        assert (1, 1) in result.rows

    def test_key_only_grouping_yields_each_key_once(self, db):
        db.create_table("t", ("k", "int"), ("v", "int"))
        db.bulk_load("t", [(None, 1), (2, 2), (None, 3), (2, 4), (1, 5)])
        result = db.server.execute("SELECT k FROM t GROUP BY k")
        assert sorted(result.rows, key=repr) == [(1,), (2,), (None,)]

    def test_python_oracle(self, loaded):
        rows = [
            ("east", 1, 10), ("east", 1, 20), ("east", 2, 5),
            ("west", 3, 7), ("west", 3, 3), ("north", 4, 100),
        ]
        result = loaded.server.execute(
            "SELECT agent, count(*), sum(amount) FROM sales GROUP BY agent"
        )
        expected = {}
        for _region, agent, amount in rows:
            count, total = expected.get(agent, (0, 0))
            expected[agent] = (count + 1, total + amount)
        assert sorted(result.rows) == [
            (agent, *expected[agent]) for agent in sorted(expected)
        ]
