"""Skewed read-heavy workload: repeated profile views over a hot set.

Production read traffic is rarely uniform: a small set of popular
entities (hot sellers on an auction site, front-page stories) absorbs
most lookups.  This scenario drives the RUBiS schema with a batch of
user-profile reads where ``hot_fraction`` of the requests land on only
``hot_users`` distinct ids — the regime where a query-result cache pays:
after each hot id's first (cold) execution, every repeat is a hit.

Kernels:

* :func:`load_profiles` — the pure read loop the benchmark measures
  (blocking vs. async vs. prefetch+cache);
* :func:`refresh_ratings` — a read/write mix exercising cache
  coherence: after each rating update the stale profile must lapse.
"""

from __future__ import annotations

import random
from typing import Callable, List

from ..db.database import Database
from ..db.latency import INSTANT, LatencyProfile
from . import rubis

PROFILE_SQL = "SELECT name, rating FROM users WHERE user_id = ?"
RATING_UPDATE_SQL = "UPDATE users SET rating = ? WHERE user_id = ?"
DETAIL_SQL = "SELECT count(*) FROM items WHERE seller_id = ?"

#: Sellers at or above this rating get the listings detail lookup.
#: Ratings are uniform over -5..5, so P(detail) = 10/11 over the user
#: population — the high hit probability that makes speculating the
#: detail read pay off.
DETAIL_RATING = -4
#: Static *population* estimate fed to the speculation cost model.  A
#: skewed batch concentrates traffic on a few hot users, so its
#: realized rate can sit well below this (the benchmark's notes report
#: the measured value); the estimate still clears the breakeven gate by
#: a wide margin either way.
DETAIL_HIT_PROBABILITY = 10.0 / 11.0


def build_database(profile: LatencyProfile = INSTANT, **kwargs) -> Database:
    """The RUBiS auction schema (this scenario only changes the traffic).

    Adds a seller index so the card kernel's detail lookup is an index
    probe: the speculative series targets round-trip latency, not
    table-scan work (a wasted speculative *scan* would burn server
    resources out of all proportion to the round trip it hides).
    """
    db = rubis.build_database(profile, **kwargs)
    db.create_index("idx_items_seller", "items", "seller_id")
    return db


def skewed_user_batch(
    db: Database,
    count: int,
    hot_users: int = 16,
    hot_fraction: float = 0.9,
    seed: int = 23,
) -> List[int]:
    """``count`` user ids, ``hot_fraction`` of them drawn from a set of
    ``hot_users`` ids; the rest uniform over the whole table."""
    rng = random.Random(seed)
    population = len(db.catalog.table("users").heap)
    hot = [rng.randrange(population) for _ in range(hot_users)]
    batch = []
    for _ in range(count):
        if rng.random() < hot_fraction:
            batch.append(rng.choice(hot))
        else:
            batch.append(rng.randrange(population))
    return batch


def skewed_id_source(
    db: Database,
    hot_users: int = 16,
    hot_fraction: float = 0.9,
    seed: int = 23,
) -> Callable[[random.Random], int]:
    """A draw-one-at-a-time version of :func:`skewed_user_batch` for
    open-ended traffic (the load driver's clients each hold their own
    ``random.Random`` and draw ids until their deadline).

    The hot set is fixed up front from ``seed`` so every client — and
    every run with the same seed — hammers the *same* hot ids, which is
    what makes the cache/coalescer story reproducible.
    """
    rng = random.Random(seed)
    population = len(db.catalog.table("users").heap)
    hot = [rng.randrange(population) for _ in range(hot_users)]

    def draw(client_rng: random.Random) -> int:
        if client_rng.random() < hot_fraction:
            return client_rng.choice(hot)
        return client_rng.randrange(population)

    return draw


def load_profiles(conn, user_ids):
    """The measured read loop: one profile lookup per (repeated) id."""
    profiles = []
    for user_id in user_ids:
        row = conn.execute_query(PROFILE_SQL, [user_id])
        profiles.append((user_id, row[0][0], row[0][1]))
    return profiles


def profile_card(conn, user_id):
    """Straight-line profile card: a detail lookup guarded by the first
    query's *result*.

    The guard (``rating >= DETAIL_RATING``) is unknown until the profile
    row arrives, so the guarded prefetch can never start the detail read
    early — the data dependence pins its submit below the first fetch.
    The speculative (unguarded) mode issues it immediately and abandons
    the handle on the rare low-rating seller, hiding the second round
    trip behind the first: the workload behind the speculative series of
    ``bench_prefetch_cache``.
    """
    row = conn.execute_query(PROFILE_SQL, [user_id])
    name = row[0][0]
    rating = row[0][1]
    if rating >= DETAIL_RATING:
        listed = conn.execute_query(DETAIL_SQL, [user_id])
        return (user_id, name, rating, listed[0][0])
    return (user_id, name, rating, 0)


def speculative_profile_card(conn, user_id, site="hotset.card"):
    """The profile card with the detail read issued *speculatively*.

    This is the hand-written shape of what ``--prefetch --speculate``
    emits for :func:`profile_card`: the detail lookup dispatches before
    the guard is known, and the handle is abandoned (settled as a
    waste in the per-site ledger) on the rare low-rating seller.  The
    load driver uses it to keep the speculation machinery under
    sustained pressure.
    """
    detail = conn.speculate_query(DETAIL_SQL, [user_id], site=site)
    row = conn.execute_query(PROFILE_SQL, [user_id])
    name = row[0][0]
    rating = row[0][1]
    if rating >= DETAIL_RATING:
        listed = conn.fetch_result(detail)
        return (user_id, name, rating, listed[0][0])
    conn.abandon(detail)
    return (user_id, name, rating, 0)


def refresh_ratings(conn, updates):
    """Read/write mix: bump each user's rating, then re-read the profile.

    With a result cache attached, the cached profile must lapse after
    each ``execute_update`` so the re-read observes the new rating —
    the workload behind the invalidation-correctness test.
    """
    observed = []
    for user_id, rating in updates:
        conn.execute_update(RATING_UPDATE_SQL, [rating, user_id])
        row = conn.execute_query(PROFILE_SQL, [user_id])
        observed.append((user_id, row[0][1]))
    return observed


#: Transformable loops of the scenario (applicability accounting).
QUERY_LOOPS = [load_profiles]
