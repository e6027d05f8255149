"""Embedded simulated database engine.

This package is the substrate standing in for the paper's SYS1 /
PostgreSQL servers: a multi-threaded SQL engine whose latency model
(network round trips, disk seeks, buffer cache, bounded admission gate,
shared scans, elevator IO) reproduces the performance phenomena the
program transformations exploit.  See DESIGN.md §2 for the substitution
rationale.
"""

from .buffer import BufferPool
from .catalog import Catalog
from .database import Database
from .disk import SimulatedDisk
from .errors import (
    CatalogError,
    ConstraintError,
    DatabaseError,
    ParamCountError,
    PlanError,
    ServerShutdownError,
    SqlSyntaxError,
    TransactionError,
    TransactionStateError,
    TransactionTimeoutError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)
from .latency import INSTANT, POSTGRES, PROFILES, SYS1, LatencyMeter, LatencyProfile
from .plan import QueryResult
from .scans import SharedScanManager
from ..backends.base import PreparedStatement
from .server import DatabaseServer
from .storage import HeapTable
from .txn import Transaction, TransactionManager, UndoEntry
from .types import Column, ColumnType, Row, Schema, schema_of

__all__ = [
    "BufferPool",
    "Catalog",
    "Database",
    "SimulatedDisk",
    "CatalogError",
    "ConstraintError",
    "DatabaseError",
    "ParamCountError",
    "PlanError",
    "ServerShutdownError",
    "SqlSyntaxError",
    "TransactionError",
    "TransactionStateError",
    "TransactionTimeoutError",
    "Transaction",
    "TransactionManager",
    "UndoEntry",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownTableError",
    "INSTANT",
    "POSTGRES",
    "PROFILES",
    "SYS1",
    "LatencyMeter",
    "LatencyProfile",
    "QueryResult",
    "SharedScanManager",
    "DatabaseServer",
    "PreparedStatement",
    "HeapTable",
    "Column",
    "ColumnType",
    "Row",
    "Schema",
    "schema_of",
]
