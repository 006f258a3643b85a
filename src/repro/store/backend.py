"""The storage-backend protocol and backend resolution.

A :class:`StorageBackend` owns every table of one peer.  Tables are keyed by
``(namespace, relation, peer)`` — the engine uses two namespaces per peer,
``"store"`` for extensional base facts and ``"derived"`` for intensional
facts — plus a small ordered metadata side-store (``kind``/``key`` →
JSON payload) in which durable backends persist schemas, rules and installed
delegations so that a reopened peer can restore its program.

Backends are **per peer**: one :class:`~repro.store.sqlite.SqliteBackend` maps
to one database file, one :class:`~repro.store.memory.MemoryBackend` to one
set of Python dicts.  The backend for a peer is chosen by
:func:`resolve_backend`, either explicitly (``system().storage("sqlite",
path=...)``) or through the ``REPRO_STORE_BACKEND`` environment variable,
which is how CI runs the whole test suite once per backend.
"""

from __future__ import annotations

import os
import re
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Protocol, Tuple,
                    runtime_checkable)

from repro.core.errors import WebdamLogError
from repro.core.schema import RelationSchema
from repro.core.terms import ConstantValue

if TYPE_CHECKING:
    from repro.core.facts import Fact
    from repro.core.metrics import Metrics

#: Environment variable naming the default backend (``memory`` or ``sqlite``).
DEFAULT_BACKEND_ENV = "REPRO_STORE_BACKEND"

#: Table namespace holding extensional base facts.
STORE_NAMESPACE = "store"
#: Table namespace holding derived intensional facts.
DERIVED_NAMESPACE = "derived"


class StoreError(WebdamLogError):
    """Raised for storage-backend failures (unknown backend, catalog mismatch)."""


@runtime_checkable
class StorageTable(Protocol):
    """Storage for the facts of one relation.

    A table takes and returns :class:`~repro.core.facts.Fact` objects of its
    relation.  The contract: type-strict matching (``True`` is distinct from
    ``1``), primary-key last-writer-wins replacement when the schema
    declares a key, and :meth:`scan` with positional bindings never
    post-filters.  A table stores the fact it is handed and yields that
    object from every scan; a durable one (SQLite) keeps its facts in a
    memory table, which decides every write, writes the facts that write
    stored and removed as rows, and builds each fact once, from the rows,
    when it is attached.
    """

    schema: RelationSchema

    def __len__(self) -> int: ...

    def __contains__(self, fact: Fact) -> bool: ...

    def __iter__(self) -> Iterator[Fact]: ...

    def get(self, fact: Fact) -> Optional[Fact]:
        """The stored fact equal to ``fact``, or ``None``."""
        ...

    def insert(self, fact: Fact) -> Tuple[List[Fact], List[Fact]]:
        """Insert a fact; return ``(inserted, displaced)`` facts."""
        ...

    def insert_many(self, facts: Iterable[Fact]) -> Tuple[List[Fact], List[Fact]]:
        """Insert several facts; return ``(inserted, displaced)`` facts."""
        ...

    def delete(self, fact: Fact) -> Optional[Fact]:
        """Delete a fact; return the stored fact removed, or ``None``."""
        ...

    def replace(self, facts: Iterable[Fact]) -> Tuple[List[Fact], List[Fact]]:
        """Make an unkeyed table hold exactly ``facts``, writing only the
        difference; return ``(inserted, removed)`` facts."""
        ...

    def clear(self) -> List[Fact]:
        """Remove every fact; return the removed facts."""
        ...

    def scan(self, bindings: Optional[Dict[int, ConstantValue]] = None) -> Iterator[Fact]:
        """Iterate over facts matching ``{position: value}`` bindings exactly."""
        ...


@runtime_checkable
class StorageBackend(Protocol):
    """A collection of relation tables plus a durable metadata side-store."""

    #: Human-readable backend name ("memory", "sqlite").
    name: str
    #: Whether data written through this backend survives process death.
    persistent: bool
    #: The registry the backend counts its work on, ``("store", name)``:
    #: the owning engine sets its own (see :mod:`repro.core.metrics`).
    metrics: Metrics

    def table(self, namespace: str, schema: RelationSchema) -> StorageTable:
        """Create-or-get the table for ``schema`` in ``namespace``."""
        ...

    def stored_relations(self, namespace: str) -> Tuple[Tuple[str, str, int], ...]:
        """``(relation, peer, arity)`` of every table already materialised in
        ``namespace`` — what a reopened peer must restore."""
        ...

    def save_meta(self, kind: str, key: str, payload: str) -> None:
        """Persist one metadata record (idempotent upsert keyed by kind+key)."""
        ...

    def delete_meta(self, kind: str, key: str) -> None:
        """Delete one metadata record."""
        ...

    def load_meta(self, kind: str) -> List[Tuple[str, str]]:
        """All ``(key, payload)`` records of ``kind`` in insertion order."""
        ...

    def commit(self) -> None:
        """Make every change since the previous commit durable (stage boundary)."""
        ...

    def close(self) -> None:
        """Commit and release resources; idempotent."""
        ...


_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]")


def _safe_filename(name: str) -> str:
    """Sanitise a peer name into a filesystem-safe database filename."""
    cleaned = _UNSAFE_FILENAME.sub("_", name)
    return cleaned or "peer"


def resolve_backend(spec=None, peer: Optional[str] = None,
                    options: Optional[Dict] = None) -> StorageBackend:
    """Resolve a backend specification into a :class:`StorageBackend` instance.

    ``spec`` may be ``None`` (consult ``REPRO_STORE_BACKEND``, defaulting to
    ``memory``), a backend name, or an already-constructed backend instance
    (returned unchanged — useful in tests).  For the ``sqlite`` backend, a
    ``path`` option names a *directory*; each peer gets its own database file
    ``<path>/<peer>.db`` inside it.  Without a path the SQLite backend runs on
    a private in-memory database — the same rows and transactions, no
    durability — which is what the environment-variable override uses so the
    entire test suite can run against SQLite without touching disk.
    """
    options = dict(options or {})
    if spec is None:
        spec = os.environ.get(DEFAULT_BACKEND_ENV) or "memory"
    if not isinstance(spec, str):
        return spec
    if spec == "memory":
        from repro.store.memory import MemoryBackend

        return MemoryBackend()
    if spec == "sqlite":
        from repro.store.sqlite import SqliteBackend

        path = options.pop("path", None)
        db_path = None
        if path is not None:
            os.makedirs(path, exist_ok=True)
            db_path = os.path.join(path, f"{_safe_filename(peer or 'peer')}.db")
        return SqliteBackend(db_path, **options)
    raise StoreError(f"unknown storage backend {spec!r}; expected 'memory' or 'sqlite'")
