"""repro — Program Transformations for Asynchronous Query Submission.

A full reproduction of Chavan, Guravannavar, Ramachandra and Sudarshan,
*Program Transformations for Asynchronous Query Submission* (ICDE 2011):
dataflow-based source-to-source rewriting of blocking query loops into
asynchronous submit/fetch form, together with every substrate the
paper's evaluation needs — an embedded latency-modeled SQL engine, an
asynchronous client runtime, a simulated web service and the five
benchmark workloads.

Quickstart::

    from repro import Database, SYS1, asyncify

    db = Database(SYS1)
    db.create_table("part", ("part_key", "int"), ("category_id", "int"))
    db.create_index("idx", "part", "category_id")
    db.bulk_load("part", [(i, i % 10) for i in range(10_000)])

    @asyncify
    def counts(conn, categories):
        out = []
        for category in categories:
            n = conn.execute_query(
                "SELECT count(*) FROM part WHERE category_id = ?",
                [category]).scalar()
            out.append(n)
        return out

    with db.connect(async_workers=10) as conn:
        print(counts(conn, list(range(10))))
    print(counts.__repro_source__)   # the rewritten program
"""

from .analysis.applicability import (
    ApplicabilityReport,
    analyze_functions,
    analyze_source,
    format_table_one,
)
from .client import Connection, PreparedQuery
from .db import (
    INSTANT,
    POSTGRES,
    SYS1,
    Database,
    DatabaseError,
    LatencyProfile,
    QueryResult,
    Transaction,
    TransactionError,
)
from .ir.purity import PurityEnv
from .prefetch import (
    CacheStats,
    PrefetchInserter,
    PrefetchSite,
    ResultCache,
    prefetch_source,
)
from .runtime import (
    AioConnection,
    AsyncExecutor,
    QueryHandle,
    Record,
    RecordTable,
    SpillableRecordTable,
    aio_connect,
)
from .core import SpeculativeHandle
from .transform import (
    QueryRegistry,
    QuerySpec,
    SpeculationPolicy,
    TransformEngine,
    TransformError,
    TransformResult,
    asyncify,
    asyncify_source,
    default_registry,
)
from .web import EntityGraphService, WebLatency, WebServiceClient

__version__ = "1.1.0"

__all__ = [
    "ApplicabilityReport",
    "analyze_functions",
    "analyze_source",
    "format_table_one",
    "Connection",
    "PreparedQuery",
    "INSTANT",
    "POSTGRES",
    "SYS1",
    "Database",
    "DatabaseError",
    "LatencyProfile",
    "QueryResult",
    "Transaction",
    "TransactionError",
    "PurityEnv",
    "CacheStats",
    "PrefetchInserter",
    "PrefetchSite",
    "ResultCache",
    "prefetch_source",
    "AioConnection",
    "aio_connect",
    "AsyncExecutor",
    "QueryHandle",
    "Record",
    "RecordTable",
    "SpillableRecordTable",
    "QueryRegistry",
    "QuerySpec",
    "SpeculationPolicy",
    "SpeculativeHandle",
    "TransformEngine",
    "TransformError",
    "TransformResult",
    "asyncify",
    "asyncify_source",
    "default_registry",
    "EntityGraphService",
    "WebLatency",
    "WebServiceClient",
    "__version__",
]
