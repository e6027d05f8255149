"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.db import Database, INSTANT

#: CI's seeded property run (``--hypothesis-profile=prop-seeds
#: --hypothesis-seed=N``): the random-program properties of
#: ``tests/test_prop_transform.py``, the bulk-load differential of
#: ``tests/test_bulk_load.py``, the point-read path equivalence of
#: ``tests/test_prop_point_paths.py``, the buffer pool's reference-LRU
#: model of ``tests/test_db_buffer_disk.py`` (the free-disk page
#: accounting) and the generator-driven checks of
#: ``tests/test_transform_shared_facts.py`` (``Stmt.reads`` stays fresh,
#: every statement-memo answer is a fresh analysis) draw 10x their
#: tier-1 examples from the seed instead of their derandomized stream.
settings.register_profile(
    "prop-seeds", max_examples=10 * settings.get_profile("default").max_examples
)


@pytest.fixture
def db():
    """A fresh zero-latency database, closed after the test."""
    database = Database(INSTANT)
    yield database
    database.close()


@pytest.fixture
def part_db():
    """A small loaded 'part' table with a category index."""
    database = Database(INSTANT)
    database.create_table(
        "part", ("part_key", "int"), ("category_id", "int"), ("size", "int"),
        rows_per_page=16,
    )
    database.bulk_load(
        "part", [(i, i % 7, (i * 37) % 1000) for i in range(500)]
    )
    database.create_index("idx_part_cat", "part", "category_id")
    yield database
    database.close()
