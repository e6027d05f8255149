"""One point read, every path: the same rows or the same error class.

A hash-probed point SELECT (``SELECT cols FROM t WHERE key = ?``) is
answered on the memory store by one function built at prepare (the
plan's ``point_probe``): the blocking execute, a dispatched
submit/fetch and a coalesced batch's probe strategy all call it.  A
coalesced batch's scan strategy, a result-cache hit and the sqlite store
answer the same statement other ways.  For drawn tables — INT, TEXT and
FLOAT columns, a unique and a non-unique hash index both holding NULL
keys, tombstoned rows — and bindings of every class (int, float, bool,
str, None, a 70-bit int, a list), every path must return the same rows
or raise the same :mod:`repro.db.errors` class.

Two mutations show the oracle can fail.  Without the ``key = value``
re-check, a NULL binding returns the NULL-key rows.  The function checks
no tombstone, because an index holds live rows only; a DELETE that
leaves its row in the index breaks that, and the deleted rows come back.

A cache hit is reached three more ways — ``submit_query`` +
``fetch_result``, ``speculate_query`` + fetch and ``execute_query`` —
each with tracing off and on.  Each binding is read, read again (a hit
whenever it is cacheable), written at its point and read again: every
read must equal an uncached read at that moment, a hit must build no
``Request``, and the traced and untraced runs must count the same.
``1``, ``1.0`` and ``True`` share one cache key, but only the int names
a point; the list bypasses the cache.  Two more mutations show this
oracle can fail: a lookup that skips the ledger ticket serves the
pre-write row, and a hit that builds a record is counted.
"""

import inspect
import textwrap
import threading

import pytest
from hypothesis import given, strategies as st

from repro.core.calls import CallPipeline, Request
from repro.db import INSTANT, Database
from repro.db.catalog import Catalog
from repro.db.errors import DatabaseError
from repro.db.plan import demux, planner
from repro.prefetch.cache import ResultCache
from tests.helpers import drawn

#: Point lookups on the unique INT index (``k``) and the non-unique TEXT
#: index (``tag``): ``*`` and column lists, either side of the ``=``.
POINT_QUERIES = [
    "SELECT * FROM t WHERE k = ?",
    "SELECT tag, x, n FROM t WHERE k = ?",
    "SELECT * FROM t WHERE tag = ?",
    "SELECT x AS y, k FROM t WHERE ? = tag",
]
TAGS = ["a", "b", "1", ""]
#: Bound on every draw: a key of each class — int, float, bool, str,
#: None, a 70-bit int (sqlite's INTEGER holds 64), a list.
FIXED_KEYS = [None, 1, 1.0, True, "a", 2**70, [1]]
keys = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([0.0, 2.0, 2.5, False, True, None, -(2**70), 2**63]),
    st.sampled_from(TAGS + ["A", "2"]),
)
#: ``(key is NULL, tag, x)`` per row; the row's number is ``n`` and its
#: non-NULL key.
rows = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(TAGS + [None]),
        st.sampled_from([None, 0.0, 1.0, 1.5, -2.25]),
    ),
    max_size=30,
)


def build(rows, deleted):
    """Table ``t (n, k, tag, x)`` from ``rows``, indexed, with the rows
    numbered in ``deleted`` tombstoned before the sqlite store is seeded
    from the live ones."""
    db = Database(INSTANT)
    db.create_table("t", ("n", "int"), ("k", "int"), ("tag", "text"), ("x", "float"))
    db.bulk_load(
        "t", [(n, None if null else n, tag, x) for n, (null, tag, x) in enumerate(rows)]
    )
    db.create_index("ux", "t", "k", unique=True)
    db.create_index("ix", "t", "tag")
    for n in deleted:
        db.server.execute("DELETE FROM t WHERE n = ?", (n,))
    db.backend("sqlite")
    return db


def outcome(run):
    """Rows in a canonical order, or the error class (a store error)."""
    try:
        return sorted(run(), key=repr)
    except Exception as exc:
        assert isinstance(exc, DatabaseError), repr(exc)
        return type(exc)


def batched(db, sql, bindings, scan):
    """Every binding through a coalescing connection as one batch,
    forced to the shared scan (``scan``) or the per-binding probe
    strategy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(demux, "prefer_batch_scan", lambda *_args: scan)
        with db.connect(backend="memory", async_workers=1, coalesce=True) as conn:
            gate = threading.Event()
            conn.executor.submit(gate.wait)  # the submits queue behind it
            handles = [conn.submit_query(sql, binding) for binding in bindings]
            gate.set()
            got = [outcome(lambda: conn.fetch_result(h).rows) for h in handles]
            assert conn.stats.round_trips_saved == len(bindings) - 1
            return got


def check_paths(rows, deleted, bound):
    db = build(rows, deleted)
    try:
        bindings = [(key,) for key in bound]
        cache = ResultCache(256)
        with db.connect(backend="memory", async_workers=1) as plain, db.connect(
            backend="memory", result_cache=cache
        ) as cached, db.connect(backend="sqlite") as sqlite:
            for sql in POINT_QUERIES:
                assert db.server.prepare(sql).plan.point_probe is not None, sql
                paths = {
                    "sqlite": [
                        outcome(lambda: sqlite.execute_query(sql, b).rows)
                        for b in bindings
                    ],
                    "blocking": [
                        outcome(lambda: plain.execute_query(sql, b).rows)
                        for b in bindings
                    ],
                    "dispatched": [
                        outcome(
                            lambda: plain.fetch_result(plain.submit_query(sql, b)).rows
                        )
                        for b in bindings
                    ],
                    "batch-probe": batched(db, sql, bindings, scan=False),
                    "batch-scan": batched(db, sql, bindings, scan=True),
                }
                hits = []
                for binding in bindings:
                    outcome(lambda: cached.execute_query(sql, binding))  # fill
                    before = cache.stats.hits
                    hits.append(outcome(lambda: cached.execute_query(sql, binding).rows))
                    if not isinstance(hits[-1], type):  # a result: a hit
                        assert cache.stats.hits == before + 1, (sql, binding)
                paths["cache-hit"] = hits
                expected = paths["sqlite"]
                for name, got in paths.items():
                    assert got == expected, (name, sql, bindings)
    finally:
        db.close()


@given(
    rows=rows,
    deleted=st.sets(st.integers(0, 29), max_size=8),
    bound=st.lists(keys, max_size=6),
)
@drawn(15)
def test_every_path_reads_the_same_point(rows, deleted, bound):
    check_paths(rows, deleted, FIXED_KEYS + bound)


#: The front ends' hit paths: each reads one binding's rows.
HIT_PATHS = {
    "submit": lambda conn, sql, b: conn.fetch_result(conn.submit_query(sql, b)).rows,
    "speculate": lambda conn, sql, b: conn.fetch_result(
        conn.speculate_query(sql, b, site="point")
    ).rows,
    "execute": lambda conn, sql, b: conn.execute_query(sql, b).rows,
}


def point_write(sql):
    """A write of ``x`` at the point ``sql`` reads (its key column)."""
    column = "tag" if "tag" in sql.split("WHERE")[1] else "k"
    return f"UPDATE t SET x = ? WHERE {column} = ?"


def hit_reads(db, sql, bindings, traced, built):
    """Every binding through each hit path on its own cached connection
    (``traced`` or not), checked against an uncached read: read, read
    again — a hit, building no ``Request`` (``built`` counts them),
    whenever the binding is cacheable and the read succeeded — write
    ``x`` at the binding's point, read again.  Returns the outcomes and
    each connection's counters."""
    outcomes, counters = {}, {}
    write = point_write(sql)
    for name, read in HIT_PATHS.items():
        cache = ResultCache(256)
        with db.connect(backend="memory") as plain, db.connect(
            backend="memory", result_cache=cache, trace=traced
        ) as conn:
            got = outcomes[name] = []
            for value, binding in enumerate(bindings):
                fresh = outcome(lambda: plain.execute_query(sql, binding).rows)
                got.append(outcome(lambda: read(conn, sql, binding)))
                assert got[-1] == fresh, (name, sql, binding)
                hits, made = cache.stats.hits, built[0]
                got.append(outcome(lambda: read(conn, sql, binding)))
                assert got[-1] == fresh, (name, sql, binding)
                cacheable = not isinstance(binding[0], list)
                if cacheable and not isinstance(fresh, type):
                    assert cache.stats.hits == hits + 1, (name, sql, binding)
                    assert built[0] == made, ("a hit built a Request", name, binding)
                try:
                    plain.execute_update(write, (value + 0.5, binding[0]))
                except DatabaseError:
                    pass
                fresh = outcome(lambda: plain.execute_query(sql, binding).rows)
                got.append(outcome(lambda: read(conn, sql, binding)))
                assert got[-1] == fresh, ("stale after a write", name, sql, binding)
            stats = conn.stats
            counters[name] = (
                stats.async_submits,
                stats.cache_hits,
                stats.fetches,
                stats.speculation_hits,
                conn.site_stats(),
            )
    return outcomes, counters


def check_hit_paths(rows, deleted, bound, patch):
    """:func:`hit_reads` for every point query, untraced then traced,
    from the same table: the same outcomes and the same counters."""
    built = [0]
    real_init = Request.__init__

    def counted(request, *args, **kwargs):
        built[0] += 1
        real_init(request, *args, **kwargs)

    patch.setattr(Request, "__init__", counted)
    bindings = [(key,) for key in bound]
    for sql in POINT_QUERIES:
        runs = []
        for traced in (False, True):
            db = build(rows, deleted)
            try:
                runs.append(hit_reads(db, sql, bindings, traced, built))
            finally:
                db.close()
        assert runs[0] == runs[1], sql


@given(
    rows=rows,
    deleted=st.sets(st.integers(0, 29), max_size=8),
    bound=st.lists(keys, max_size=4),
)
@drawn(8)
def test_every_hit_path_reads_the_same_point(rows, deleted, bound):
    with pytest.MonkeyPatch.context() as patch:
        check_hit_paths(rows, deleted, FIXED_KEYS + bound, patch)


# -- the oracle can fail: two mutations ----------------------------------

#: NULL keys in both indexes, a tombstone under a non-NULL key of each.
EXAMPLE = dict(
    rows=[
        (True, None, 1.0),
        (False, "a", 0.0),
        (True, "a", None),
        (False, None, 1.5),
        (False, "b", 1.0),
    ],
    deleted=[1, 4],
    bound=FIXED_KEYS + ["b", 4],
)


def mutated_reader(old, new):
    """``planner._point_reader`` with its source line ``old`` replaced
    by ``new`` (each plan prepared afterwards builds its read from it)."""
    source = textwrap.dedent(inspect.getsource(planner._point_reader))
    assert source.count(old) == 1, old
    scope = dict(vars(planner))
    exec(compile(source.replace(old, new), planner.__file__, "exec"), scope)
    return scope["_point_reader"]


def test_the_example_holds():
    check_paths(**EXAMPLE)


def test_oracle_finds_the_point_read_without_the_recheck(monkeypatch):
    monkeypatch.setattr(
        planner,
        "_point_reader",
        mutated_reader(
            "kept = [] if value is None else [rid for rid in sel if key[rid] == value]",
            "kept = list(sel)",
        ),
    )
    with pytest.raises(AssertionError, match="'blocking'"):
        check_paths(**EXAMPLE)


def test_oracle_finds_the_deleted_rows_a_stale_index_returns(monkeypatch):
    monkeypatch.setattr(Catalog, "on_delete", lambda *_args: None)
    with pytest.raises(AssertionError, match="'blocking'"):
        check_paths(**EXAMPLE)


# -- the hit-path oracle can fail: two mutations -------------------------


def test_the_hit_example_holds(monkeypatch):
    check_hit_paths(**EXAMPLE, patch=monkeypatch)


def test_oracle_finds_a_lookup_without_the_ledger_ticket(monkeypatch):
    """Looked up without its ticket, a published entry is a hit whatever
    was written since: the pre-write row is served."""

    def lease(self, plan, span):
        if plan is None:
            return None
        key, tables, _ticket, _point = plan
        return self.cache.acquire(key, tables)

    monkeypatch.setattr(CallPipeline, "lease", lease)
    with pytest.raises(AssertionError, match="stale after a write"):
        check_hit_paths(**EXAMPLE, patch=monkeypatch)


def test_oracle_finds_a_hit_that_builds_a_request(monkeypatch):
    """A record built before the lookup, as every hit once did, is
    counted."""
    real = CallPipeline.lease

    def lease(self, plan, span):
        Request(plan, None, "", span)
        return real(self, plan, span)

    monkeypatch.setattr(CallPipeline, "lease", lease)
    with pytest.raises(AssertionError, match="a hit built a Request"):
        check_hit_paths(**EXAMPLE, patch=monkeypatch)
