"""The default backend: the simulated in-memory database server.

:class:`repro.db.server.DatabaseServer` *is* the in-memory backend: a
:class:`repro.backends.base.Backend` whose store hooks plan with the
engine's planner and execute against the catalog's heaps; this module
only gives it its backend-registry name.  It remains the
differential-test oracle: every other backend must agree with it on
results, error classes and cache-invalidation behavior
(``tests/test_backend_differential.py``).
"""

from __future__ import annotations

from ..db.server import DatabaseServer as InMemoryBackend

__all__ = ["InMemoryBackend"]
