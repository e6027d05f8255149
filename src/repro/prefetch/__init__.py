"""Prefetching and query-result caching.

The natural follow-on to asynchronous submission (Chavan et al., ICDE
2011): once submissions are non-blocking, (a) move them to the earliest
program point the data dependences allow — even above the conditional or
loop that consumes them — and (b) serve repeated ``(sql, params)`` pairs
from a shared result cache, validated against the store's write epoch,
instead of re-executing them.

* :mod:`repro.prefetch.cache`     — :class:`ResultCache`: single-flight,
  bounded LRU, lookup-time validation against the caller's write-epoch
  ticket, optional TTL, hit/miss/eviction/expiry stats.
* :mod:`repro.prefetch.insertion` — the prefetch-insertion transform and
  the :func:`prefetch_source` front end.  Guarded hoists preserve the
  query multiset; the speculative (unguarded) mode — gated per site by
  :class:`repro.transform.costmodel.SpeculationPolicy` — may issue
  extra read-only submissions whose handles are abandoned when the
  consuming guard turns out false (the runtime contract lives in
  :meth:`repro.core.submission.SubmissionPipeline.speculate`).

Runtime wiring lives in the unified submission core
(:class:`repro.core.submission.SubmissionPipeline`, reached through
``Database.connect(result_cache=...)`` or
``aio_connect(..., result_cache=...)``): cache-aware
``execute_query``/``submit_query`` for reads in every runtime,
transactions always bypassing the cache.  Coherence is pull-only: the
pipeline takes a ticket from the backend's
:class:`~repro.backends.ledger.WriteEpochLedger` for each cacheable
read and the cache validates entries against it, so a write through any
connection — cache-less ones included, transactional ones at commit —
is seen by every cache's next lookup, and no write path knows a cache
exists.
"""

from .cache import CacheStats, Lease, ResultCache, WILDCARD_TABLE
from .insertion import PrefetchInserter, PrefetchSite, prefetch_source

__all__ = [
    "CacheStats",
    "Lease",
    "ResultCache",
    "WILDCARD_TABLE",
    "PrefetchInserter",
    "PrefetchSite",
    "prefetch_source",
]
