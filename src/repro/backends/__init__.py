"""Pluggable statement stores behind the submission pipeline.

See docs/BACKENDS.md for the interface contract and the cache-coherence
event table.  The shared classes (``Backend``, ``PreparedStatement``,
``ServerStats``) live in :mod:`repro.backends.base` and the write-epoch
ledger in :mod:`repro.backends.ledger`; ``base`` imports only leaf
modules of :mod:`repro.db`, so both stores and every client module
import them from there without a cycle.  The two store
classes are exposed lazily (PEP 562): ``InMemoryBackend`` *is*
:class:`repro.db.server.DatabaseServer`, whose module imports this
package for ``Backend`` — an eager import here would re-enter it
mid-initialization.
"""

from __future__ import annotations

from .base import BACKENDS, Backend, resolve_backend_name
from .ledger import WriteEpochLedger

__all__ = [
    "BACKENDS",
    "Backend",
    "InMemoryBackend",
    "SqliteBackend",
    "WriteEpochLedger",
    "resolve_backend_name",
]

_LAZY = {
    "InMemoryBackend": ("repro.backends.memory", "InMemoryBackend"),
    "SqliteBackend": ("repro.backends.sqlite", "SqliteBackend"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value
