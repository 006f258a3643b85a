"""The in-memory storage backend: hash-indexed Python dicts of facts.

A table stores the fact objects it is handed and hands the same objects back
on every scan.  It is the default backend: fastest for anything that fits in
RAM, with zero durability.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.errors import SchemaError
from repro.core.facts import Fact, typed_value
from repro.core.schema import RelationSchema
from repro.core.terms import ConstantValue

#: What an index files under one probe key: the one fact that matches it,
#: or ``{typed values key: fact}`` once two or more do.
Bucket = Union[Fact, Dict[Tuple, Fact]]


class MemoryTable:
    """Hash-indexed storage for the facts of one relation.

    A table keeps the :class:`~repro.core.facts.Fact` objects it is handed:
    a scan yields them, so a stored fact keeps its identity, its hash and
    its cached rendering for as long as it stays stored, and a reader that
    snapshots a relation builds no fact.  Facts are keyed by their typed
    values (``Fact._key``, see :func:`~repro.core.facts.typed_values`) —
    ``bool`` is a subclass of ``int`` and ``1 == 1.0`` in Python, but
    :class:`~repro.core.terms.Constant` equality (and the SQLite backend's
    tag columns) keep ``True``, ``1`` and ``1.0`` distinct, so fact identity
    must too.  Secondary hash indexes keyed by *subsets of columns* are built
    lazily the first time a lookup with that bound-column set is issued, and
    maintained incrementally on every insert/delete afterwards — an indexed
    lookup never rescans the relation and never post-filters, it is an exact
    hash probe.  A bucket of an index is the one fact filed under its probe
    key, or a dict of them once there are two or more.
    """

    __slots__ = ("schema", "_arity", "_key_positions", "_facts", "_indexes")

    def __init__(self, schema: RelationSchema, facts: Iterable[Fact] = ()):
        """A table of ``schema`` holding ``facts`` — a set of facts of its
        relation, taken unchecked (another store's rows, decoded)."""
        self.schema = schema
        self._arity = schema.arity
        self._key_positions = schema.key_indexes()
        self._facts: Dict[Tuple, Fact] = {fact._key: fact for fact in facts}
        # {(col, col, ...): {probe key: bucket}} — one hash index per
        # bound-column subset.
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple, Bucket]] = {}

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact._key in self._facts

    def get(self, fact: Fact) -> Optional[Fact]:
        """The stored fact equal to ``fact``, or ``None``."""
        return self._facts.get(fact._key)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts.values())

    def _index_for(self, positions: Tuple[int, ...]) -> Dict[Tuple, Bucket]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for key, fact in self._facts.items():
                _file(index, tuple([key[p] for p in positions]), key, fact)
            self._indexes[positions] = index
        return index

    def insert(self, fact: Fact) -> Tuple[List[Fact], List[Fact]]:
        """Store ``fact``.  Returns ``(inserted, displaced)`` facts.

        When the schema declares a primary key, a stored fact with the same
        key is displaced (last-writer-wins): one probe of the key columns'
        index finds it.
        """
        key = self._checked(fact)
        if key in self._facts:
            return [], []
        displaced: List[Fact] = []
        positions = self._key_positions
        if positions:
            bucket = self._index_for(positions).get(tuple([key[p] for p in positions]))
            if bucket is not None:
                displaced = (list(bucket.values()) if bucket.__class__ is dict
                             else [bucket])
                for old in displaced:
                    self._remove(old._key)
        self._add(key, fact)
        return [fact], displaced

    def insert_many(self, facts: Iterable[Fact]) -> Tuple[List[Fact], List[Fact]]:
        """Batched insert.  Returns ``(inserted, displaced)`` facts.

        Keyed relations fall back to per-fact :meth:`insert` (replacement
        semantics make intra-batch order observable); unkeyed relations skip
        duplicates in one pass and never displace.
        """
        if self._key_positions:
            all_inserted: List[Fact] = []
            all_displaced: List[Fact] = []
            for fact in facts:
                inserted, displaced = self.put(fact)
                all_inserted.extend(inserted)
                all_displaced.extend(displaced)
            return all_inserted, all_displaced
        inserted = []
        stored = self._facts
        for fact in facts:
            key = self._checked(fact)
            if key in stored:
                continue
            self._add(key, fact)
            inserted.append(fact)
        return inserted, []

    def delete(self, fact: Fact) -> Optional[Fact]:
        """Delete ``fact``; return the stored fact it removed, or ``None``."""
        return self._remove(fact._key)

    def replace(self, facts: Iterable[Fact]) -> Tuple[List[Fact], List[Fact]]:
        """Make the table hold exactly ``facts``; return ``(inserted,
        removed)`` facts.

        For unkeyed relations.  The stored facts are read once and compared
        by typed values key; only the facts that leave and the facts that
        arrive are written, and a stored fact equal to an arriving one stays
        (the arriving object is dropped).
        """
        arriving: Dict[Tuple, Fact] = {}
        for fact in facts:
            arriving.setdefault(self._checked(fact), fact)
        leaving = [fact for key, fact in self._facts.items()
                   if arriving.pop(key, None) is None]
        for fact in leaving:
            self._remove(fact._key)
        for key, fact in arriving.items():
            self._add(key, fact)
        return list(arriving.values()), leaving

    def _checked(self, fact: Fact) -> Tuple:
        key = fact._key
        if len(key) != self._arity:
            raise SchemaError(
                f"arity mismatch inserting into {self.schema.qualified_name}: "
                f"expected {self._arity}, got {len(key)}"
            )
        return key

    def _add(self, key: Tuple, fact: Fact) -> None:
        """File ``fact``, absent so far, under its typed values ``key``."""
        self._facts[key] = fact
        for positions, index in self._indexes.items():
            _file(index, tuple([key[p] for p in positions]), key, fact)

    def _remove(self, key: Tuple) -> Optional[Fact]:
        """Unfile the fact stored under ``key``; return it, or ``None``."""
        fact = self._facts.pop(key, None)
        if fact is None:
            return None
        for positions, index in self._indexes.items():
            probe = tuple([key[p] for p in positions])
            bucket = index[probe]
            if bucket.__class__ is not dict:
                del index[probe]
                continue
            del bucket[key]
            if len(bucket) == 1:
                index[probe], = bucket.values()
        return fact

    def clear(self) -> List[Fact]:
        """Remove every fact; return the removed facts."""
        removed = list(self._facts.values())
        self._facts.clear()
        self._indexes.clear()
        return removed

    def scan(self, bindings: Optional[Dict[int, ConstantValue]] = None
             ) -> Iterator[Fact]:
        """Iterate over the stored facts matching ``{column: value}`` bindings.

        With no bindings this is a full scan.  With bindings, the hash index
        on exactly that column subset is probed — every returned fact matches
        all bindings, no post-filtering happens.
        """
        if not bindings:
            yield from self._facts.values()
            return
        positions = tuple(sorted(bindings))
        if positions[-1] >= self._arity:
            # A bound position beyond the relation's arity can never match.
            return
        key = tuple([typed_value(bindings[p]) for p in positions])
        if len(positions) == self._arity:
            # Every column bound: the facts are already keyed by exactly
            # this, a "does this fact exist" probe needs no index of its own.
            fact = self._facts.get(key)
            if fact is not None:
                yield fact
            return
        bucket = self._index_for(positions).get(key)
        if bucket.__class__ is dict:
            yield from bucket.values()
        elif bucket is not None:
            yield bucket

    #: :meth:`scan`, :meth:`insert`, :meth:`insert_many`, :meth:`delete` and
    #: :meth:`clear` under second names, for a table that keeps its facts in
    #: this one (:class:`~repro.store.sqlite.SqliteTable`) and calls it
    #: through them: a benchmark that times and counts the first names
    #: counts such a read or write once, as the outer table's.
    select, put, put_many, pop, pop_all = scan, insert, insert_many, delete, clear


def _file(index: Dict[Tuple, Bucket], probe: Tuple, key: Tuple, fact: Fact) -> None:
    """Add ``fact``, keyed ``key``, to the bucket of ``probe``."""
    bucket = index.get(probe)
    if bucket is None:
        index[probe] = fact
    elif bucket.__class__ is dict:
        bucket[key] = fact
    else:
        index[probe] = {bucket._key: bucket, key: fact}


class MemoryBackend:
    """In-RAM backend: one :class:`MemoryTable` per (namespace, relation, peer).

    The metadata side-store honours the same save/delete/load contract as the
    durable backends (insertion-ordered, last write wins in place) but lives
    in a plain dict — a memory-backed peer never survives its process, so
    ``PeerState`` always restores from an empty store.
    """

    name = "memory"
    persistent = False

    def __init__(self):
        self._tables: Dict[Tuple[str, str, str], MemoryTable] = {}
        self._meta: Dict[str, Dict[str, str]] = {}

    def table(self, namespace: str, schema: RelationSchema) -> MemoryTable:
        key = (namespace, schema.name, schema.peer)
        table = self._tables.get(key)
        if table is None:
            table = MemoryTable(schema)
            self._tables[key] = table
        return table

    def stored_relations(self, namespace: str) -> Tuple[Tuple[str, str, int], ...]:
        return ()

    def save_meta(self, kind: str, key: str, payload: str) -> None:
        self._meta.setdefault(kind, {})[key] = payload

    def delete_meta(self, kind: str, key: str) -> None:
        self._meta.get(kind, {}).pop(key, None)

    def load_meta(self, kind: str):
        return list(self._meta.get(kind, {}).items())

    def commit(self) -> None:
        pass

    def close(self) -> None:
        pass
