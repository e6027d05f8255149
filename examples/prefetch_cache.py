"""Prefetching and result caching end to end.

1. ``prefetch_source`` hoists a guarded profile lookup above the
   conditional that consumes it (and above everything it does not depend
   on), so the round trip overlaps the surrounding work.
2. A shared ``ResultCache`` serves the hot repeats of a skewed read
   batch client-side, and an ``execute_update`` invalidates exactly the
   cached results that read the written table.

Run: ``PYTHONPATH=src python examples/prefetch_cache.py``
"""

from repro import INSTANT, ResultCache, prefetch_source
from repro.workloads import hotset

SOURCE = '''
def seller_banner(conn, seller_id, detailed):
    listing = conn.execute_query(
        "SELECT count(*) FROM items WHERE seller_id = ?", [seller_id])
    banner = [listing.scalar()]
    if detailed:
        profile = conn.execute_query(
            "SELECT name, rating FROM users WHERE user_id = ?", [seller_id])
        banner.append(profile[0][0])
    return banner
'''


def main() -> None:
    print("=== prefetch insertion ===")
    result = prefetch_source(SOURCE)
    print(result.source)
    print(result.summary())

    print()
    print("=== shared result cache on skewed reads ===")
    db = hotset.build_database(INSTANT, users=2_000, items=500,
                               comments=500, bids=500)
    cache = ResultCache(capacity=64)
    try:
        conn = db.connect(async_workers=4, result_cache=cache)
        ids = hotset.skewed_user_batch(db, 300, hot_users=8)
        hotset.load_profiles(conn, ids)
        print(f"hit rate over {cache.stats.lookups} lookups: "
              f"{cache.stats.hit_rate:.0%} ({cache.stats.hits} hits)")

        user = ids[0]
        before = conn.execute_query(hotset.PROFILE_SQL, [user]).rows
        conn.execute_update(hotset.RATING_UPDATE_SQL, [99, user])
        after = conn.execute_query(hotset.PROFILE_SQL, [user]).rows
        print(f"user {user} before update: {before}, after: {after} "
              f"(write invalidated the cached profile)")
        conn.close()
    finally:
        db.close()


if __name__ == "__main__":
    main()
