"""Seeded inputs: the auction tables and the transformer corpus.

perfbench generates its own rows (plain tuples from one
``random.Random(seed)``) and loads them through the public DDL /
``bulk_load`` calls, so every oracle can be computed from the rows the
benchmark itself made — never from anything the engine returned.  The
schema and indexes are the ones ``repro.workloads.rubis`` and
``repro.workloads.hotset`` declare, because the workloads run those
modules' SQL text and kernels unchanged.
"""

from __future__ import annotations

import inspect
import random
import textwrap
from typing import Dict, List, Sequence, Tuple

from repro import Database
from repro.workloads import (
    category, forms, hotset, moviegraph, paper_examples, rubbos, rubis,
)

USERS = 20_000
ITEMS = 8_000
COMMENTS = 30_000
BIDS = 24_000
REGIONS = 60
CATEGORIES = 40

Rows = Dict[str, List[tuple]]


def generate_rows(seed: int) -> Rows:
    """The four auction tables as lists of tuples, a function of ``seed``."""
    rng = random.Random(seed)
    return {
        "users": [
            (uid, f"user-{uid}", rng.randint(-5, 5), rng.randrange(REGIONS))
            for uid in range(USERS)
        ],
        "items": [
            (iid, f"item-{iid}", rng.randrange(USERS), rng.randint(1, 5_000),
             rng.randrange(CATEGORIES))
            for iid in range(ITEMS)
        ],
        "comments": [
            (cid, rng.randrange(USERS), rng.randrange(USERS),
             rng.randrange(ITEMS), rng.randint(-5, 5))
            for cid in range(COMMENTS)
        ],
        "bids": [
            (bid, rng.randrange(ITEMS), rng.randrange(USERS),
             rng.randint(1, 10_000))
            for bid in range(BIDS)
        ],
    }


SCHEMA = {
    "users": (("user_id", "int"), ("name", "text"), ("rating", "int"),
              ("region_id", "int")),
    "items": (("item_id", "int"), ("name", "text"), ("seller_id", "int"),
              ("price", "int"), ("category_id", "int")),
    "comments": (("comment_id", "int"), ("from_user", "int"),
                 ("to_user", "int"), ("item_id", "int"), ("rating", "int")),
    "bids": (("bid_id", "int"), ("item_id", "int"), ("user_id", "int"),
             ("amount", "int")),
}
#: (index name, table, column, unique)
INDEXES = (
    ("idx_users_id", "users", "user_id", True),
    ("idx_users_region", "users", "region_id", False),
    ("idx_items_id", "items", "item_id", True),
    ("idx_items_cat", "items", "category_id", False),
    ("idx_items_seller", "items", "seller_id", False),
    ("idx_comments_to", "comments", "to_user", False),
    ("idx_bids_item", "bids", "item_id", False),
)


def build_database(profile, rows: Rows, tables: Sequence[str] = tuple(SCHEMA)):
    """Create, load and index ``tables`` of the auction database under
    ``profile``.  Workloads that only touch ``users`` load only that."""
    db = Database(profile)
    for table in tables:
        db.create_table(table, *SCHEMA[table])
        db.bulk_load(table, rows[table])
    for name, table, column, unique in INDEXES:
        if table in tables:
            db.create_index(name, table, column, unique=unique)
    return db


def corpus_sources() -> List[Tuple[str, str]]:
    """``(name, source)`` of every function the transformer is timed on."""
    functions = (
        list(rubis.QUERY_LOOPS)
        + list(rubbos.QUERY_LOOPS)
        + [category.max_part_size, category.subtree_part_count,
           category.max_part_size_querying_children]
        + [forms.expand_form_ranges]
        + [moviegraph.director_actors, moviegraph.collect_filmographies,
           moviegraph.movie_years, moviegraph.actor_movie_listing]
        + [hotset.load_profiles, hotset.profile_card]
    )
    sources = [
        (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}",
         textwrap.dedent(inspect.getsource(fn)))
        for fn in functions
    ]
    sources += [
        (f"paper_examples.example_{number}", source)
        for number, source in sorted(paper_examples.ALL_EXAMPLES.items())
    ]
    return sources
