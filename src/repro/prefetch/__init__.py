"""Prefetching and query-result caching.

The natural follow-on to asynchronous submission (Chavan et al., ICDE
2011): once submissions are non-blocking, (a) move them to the earliest
program point the data dependences allow — even above the conditional or
loop that consumes them — and (b) serve repeated ``(sql, params)`` pairs
from a shared, write-invalidated result cache instead of re-executing
them.

* :mod:`repro.prefetch.cache`     — :class:`ResultCache`: single-flight,
  bounded LRU, write-driven invalidation, optional TTL and
  negative-caching knobs, hit/miss/eviction/expiry stats.
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
transactions always bypassing the cache.  Invalidation is server-side:
the pipeline registers its cache with the
:class:`~repro.db.server.DatabaseServer`, whose write path broadcasts
per-table invalidations — transactional writes at commit — so writes
through cache-less connections invalidate sibling caches too.
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
