"""Batched (set-oriented) execution — the paper's comparison point.

The paper's introduction contrasts asynchronous submission with
*batching* (Guravannavar & Sudarshan, VLDB 2008): batching also removes
per-iteration round trips, but "it does not overlap client computation
with that of the server, as the client completely blocks after
submitting the batch", and it needs a set-oriented interface at all.

``BatchExecutor`` implements that alternative over our client: all
parameter sets travel in one request (one network round trip), the
server answers them, and the client blocks for the combined result.  A
read batch takes the server's *truly* set-oriented path
(:meth:`~repro.backends.base.Backend.execute_prepared_batch`, the
blocking entry: the client is about to block anyway, so the statement
runs in its thread): one statement execution answers every binding
through the binding-demux operator, instead of fanning out N
independent statements.  A write batch fans out instead: one
``execute_prepared`` per binding on the connection's client executor,
so the writes overlap (the server's admission gate still caps them at
``server_workers``) while this one thread waits.  (The
statement-fan-out *read* batch the paper's introduction compares
against is one variant of the ``ablation-batching`` figure, written
there the same way.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, List, Sequence

from ..db.plan import QueryResult
from .connection import Connection, PreparedQuery


@dataclass
class BatchStats:
    batches: int = 0
    statements: int = 0
    #: Batches answered through the server's set-oriented path (one
    #: demuxed statement execution for the whole batch).
    set_batches: int = 0


class BatchExecutor:
    """Set-oriented execution of one statement over many bind sets."""

    def __init__(self, connection: Connection) -> None:
        self._connection = connection
        self.stats = BatchStats()

    def execute_batch(
        self, sql: str, param_sets: Sequence[Sequence[Any]]
    ) -> List[QueryResult]:
        """Execute ``sql`` over every parameter set, paying one round
        trip for the whole batch.

        The client blocks until the batch completes — exactly the
        batching semantics the paper contrasts with asynchronous
        submission.  Results come back in batch order.  A read batch
        is one statement execution (one scan — assert it via
        ``ServerStats``), and the first failing binding's error
        re-raises here after the batch has run.  Writes
        and other non-demuxable statements keep the fan-out shape — one
        statement per binding on the connection's client executor (at
        most ``server_workers`` executing at a time behind the server's
        gate), each in its own write window — since funneling them
        through the batch path would serialize them in one thread.
        """
        server = self._connection.server
        self.stats.batches += 1
        self.stats.statements += len(param_sets)
        if not param_sets:
            return []
        tracer = self._connection.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start("batch", sql=sql, bindings=len(param_sets))
        try:
            # One round trip carries the whole batch.
            rtt = server.profile.network_rtt_s
            if rtt:
                server.meter.charge("network", rtt)
            prepared = server.prepare(sql)
            if prepared.demuxable:
                self.stats.set_batches += 1
                outcomes = server.execute_prepared_batch(
                    prepared, param_sets, span=span
                )
                # The client blocks here: no overlap with client computation.
                results: List[QueryResult] = []
                for outcome in outcomes:
                    if isinstance(outcome, BaseException):
                        raise outcome
                    results.append(outcome)
                return results
            submit = self._connection.executor.submit
            futures = [
                submit(partial(server.execute_prepared, prepared, params, span=span))
                for params in param_sets
            ]
            # The client blocks here: no overlap with client computation.
            return [future.result() for future in futures]
        except BaseException as exc:
            if span is not None:
                span.set("error", repr(exc))
            raise
        finally:
            if span is not None:
                span.end()

    def execute_batched_updates(
        self, sql: str, param_sets: Sequence[Sequence[Any]]
    ) -> int:
        """Batch DML; returns the total row count."""
        results = self.execute_batch(sql, param_sets)
        return sum(result.rowcount for result in results)

    def stats_snapshot(self) -> dict:
        """This executor's counters as one plain dict."""
        return {
            "batches": self.stats.batches,
            "statements": self.stats.statements,
            "set_batches": self.stats.set_batches,
        }
