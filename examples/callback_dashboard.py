#!/usr/bin/env python3
"""Callback-model dashboard (paper Section II's alternative model).

Aggregates per-region statistics with the *callback* coordination model
(``repro.runtime.aio.for_each_completed``): results are processed as
they complete, on the event-loop thread, because the aggregation is
small and order-insensitive — the exact situation the paper says the
callback model suits.  Also demonstrates the cost model deciding whether
the asynchronous rewrite is worth it.

Run:  python examples/callback_dashboard.py
"""

from __future__ import annotations

import asyncio
import time

from repro import Database, SYS1
from repro.runtime.aio import aio_connect, for_each_completed
from repro.transform import breakeven_iterations, estimate_loop_cost

REGIONS = 48
USERS = 24_000
# The region rides along in the row, so a completion-order callback
# knows which total it holds.
REGION_SQL = "SELECT max(region_id), count(*) FROM users WHERE region_id = ?"


def build_database() -> Database:
    db = Database(SYS1)
    db.create_table(
        "users", ("user_id", "int"), ("region_id", "int"), ("rating", "int")
    )
    db.create_index("idx_users_region", "users", "region_id")
    db.bulk_load(
        "users",
        ((i, i % REGIONS, (i * 7) % 11 - 5) for i in range(USERS)),
    )
    return db


async def callback_model(db: Database) -> dict:
    totals = {}

    def record(result) -> None:
        region, count = result[0]
        totals[region] = count

    with aio_connect(db, max_in_flight=10) as conn:
        handles = [conn.submit_query(REGION_SQL, [region]) for region in range(REGIONS)]
        await for_each_completed(handles, record)
    return totals


def main() -> None:
    db = build_database()

    # --- Should we bother transforming?  Ask the cost model. ----------
    estimate = estimate_loop_cost(SYS1, REGIONS, threads=10, server_time_s=80e-6)
    print(
        f"cost model: {REGIONS} iterations -> blocking {estimate.blocking_s * 1e3:.1f}ms, "
        f"async {estimate.async_s * 1e3:.1f}ms "
        f"({'worth it' if estimate.beneficial else 'not worth it'})"
    )
    print(f"cost model: break-even at {breakeven_iterations(SYS1)} iterations\n")

    # --- Blocking version ---------------------------------------------
    with db.connect(async_workers=10) as conn:
        started = time.perf_counter()
        totals = {}
        for region in range(REGIONS):
            totals[region] = conn.execute_query(REGION_SQL, [region])[0][1]
        blocking_s = time.perf_counter() - started
    print(f"blocking loop:            {blocking_s * 1e3:7.1f}ms")

    # --- Callback-model version ----------------------------------------
    started = time.perf_counter()
    callback_totals = asyncio.run(callback_model(db))
    callback_s = time.perf_counter() - started
    print(f"callback model (async):   {callback_s * 1e3:7.1f}ms  "
          f"({blocking_s / callback_s:.1f}x)")

    assert callback_totals == totals
    assert sum(totals.values()) == USERS
    top = max(totals, key=totals.get)
    print(f"\nlargest region: {top} with {totals[top]} users "
          f"(checksums match the blocking run)")
    db.close()


if __name__ == "__main__":
    main()
