"""Pluggable storage backends for per-peer fact stores.

``repro.store`` turns the storage layer of a peer into a seam:

* :class:`~repro.store.backend.StorageBackend` /
  :class:`~repro.store.backend.StorageTable` — the protocol every backend
  implements (tables keyed by ``(namespace, relation, peer)``, plus a small
  durable metadata side-store for schemas, rules and delegations);
* :mod:`repro.store.memory` — the hash-indexed in-RAM tables that used to
  live inside :mod:`repro.core.facts` (the default backend);
* :mod:`repro.store.sqlite` — a durable SQLite backend (WAL mode) where each
  relation is a table and facts survive process death;
* :mod:`repro.store.compiler` — compiles whole rule bodies and ``GROUP BY``
  aggregates into single SQL statements; nothing in the program calls it.

Select a backend per deployment with ``system().storage("sqlite", path=...)``
or globally with the ``REPRO_STORE_BACKEND`` environment variable.
"""

from repro.store.backend import (
    DEFAULT_BACKEND_ENV,
    StorageBackend,
    StorageTable,
    StoreError,
    resolve_backend,
)
from repro.store.memory import MemoryBackend, MemoryTable
from repro.store.sqlite import SqliteBackend

__all__ = [
    "DEFAULT_BACKEND_ENV",
    "MemoryBackend",
    "MemoryTable",
    "SqliteBackend",
    "StorageBackend",
    "StorageTable",
    "StoreError",
    "resolve_backend",
]
