"""The in-memory storage backend: hash-indexed Python sets.

This is the storage engine the reproduction always had — it used to live as a
private class inside :mod:`repro.core.facts` and was extracted verbatim when
the backend seam was introduced.  It is the default backend: fastest for
anything that fits in RAM, with zero durability.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import SchemaError
from repro.core.schema import RelationSchema
from repro.core.terms import ConstantValue


class MemoryTable:
    """Hash-indexed storage for one relation.

    Tuples are stored keyed by a *typed* row key — ``bool`` is a subclass of
    ``int`` and ``1 == 1.0`` in Python, but :class:`~repro.core.terms.Constant`
    equality (and the SQLite backend's tag columns) keep ``True``, ``1`` and
    ``1.0`` distinct, so row identity must too.  Secondary hash indexes keyed
    by *subsets of columns* are built lazily the first time a lookup with that
    bound-column set is issued, and maintained incrementally on every
    insert/delete afterwards — an indexed lookup never rescans the relation
    and never post-filters, it is an exact hash probe.
    """

    __slots__ = ("schema", "_tuples", "_indexes")

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self._tuples: Dict[Tuple, Tuple[ConstantValue, ...]] = {}
        # {(col, col, ...): {key-tuple: {row-key: row}}} — one hash index per
        # bound-column subset.
        self._indexes: Dict[Tuple[int, ...],
                            Dict[Tuple, Dict[Tuple, Tuple[ConstantValue, ...]]]] = {}

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, values: Tuple[ConstantValue, ...]) -> bool:
        return self._row_key(tuple(values)) in self._tuples

    def __iter__(self) -> Iterator[Tuple[ConstantValue, ...]]:
        return iter(self._tuples.values())

    def _index_for(self, positions: Tuple[int, ...]
                   ) -> Dict[Tuple, Dict[Tuple, Tuple[ConstantValue, ...]]]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row_key, row in self._tuples.items():
                key = tuple(self._index_key(row[p]) for p in positions)
                index.setdefault(key, {})[row_key] = row
            self._indexes[positions] = index
        return index

    @staticmethod
    def _index_key(value: ConstantValue):
        # bool is a subclass of int; keep True distinct from 1 in indexes,
        # matching Constant equality semantics.
        return (type(value).__name__, value)

    @classmethod
    def _row_key(cls, values: Tuple[ConstantValue, ...]) -> Tuple:
        return tuple(cls._index_key(v) for v in values)

    def insert(self, values: Tuple[ConstantValue, ...]) -> Tuple[List[Tuple], List[Tuple]]:
        """Insert a tuple.  Returns ``(inserted_rows, deleted_rows)``.

        When the schema declares a primary key, an existing tuple with the
        same key is replaced (last-writer-wins), which yields one deletion.
        """
        values = self._checked(values)
        row_key = self._row_key(values)
        if row_key in self._tuples:
            return [], []
        deleted: List[Tuple[ConstantValue, ...]] = []
        key_idx = self.schema.key_indexes()
        if key_idx:
            key_value = self._row_key(tuple(values[i] for i in key_idx))
            for row in list(self._tuples.values()):
                if self._row_key(tuple(row[i] for i in key_idx)) == key_value:
                    self._remove(row)
                    deleted.append(row)
        self._add(row_key, values)
        return [values], deleted

    def insert_many(self, rows) -> Tuple[List[Tuple], List[Tuple]]:
        """Batched insert.  Returns ``(inserted_rows, deleted_rows)``.

        Keyed relations fall back to per-row :meth:`insert` (replacement
        semantics make intra-batch order observable); unkeyed relations skip
        duplicates in one pass and never delete.
        """
        if self.schema.key_indexes():
            all_inserted: List[Tuple[ConstantValue, ...]] = []
            all_deleted: List[Tuple[ConstantValue, ...]] = []
            for row in rows:
                inserted, deleted = self.insert(row)
                all_inserted.extend(inserted)
                all_deleted.extend(deleted)
            return all_inserted, all_deleted
        inserted = []
        for row in rows:
            values = self._checked(row)
            row_key = self._row_key(values)
            if row_key in self._tuples:
                continue
            self._add(row_key, values)
            inserted.append(values)
        return inserted, []

    def delete(self, values: Tuple[ConstantValue, ...]) -> bool:
        """Delete a tuple; return ``True`` if it was present."""
        values = tuple(values)
        if self._row_key(values) not in self._tuples:
            return False
        self._remove(values)
        return True

    def delete_many(self, rows) -> None:
        """Delete several stored tuples."""
        for row in rows:
            self._remove(tuple(row))

    def replace(self, rows) -> Tuple[List[Tuple], List[Tuple]]:
        """Make the table hold exactly ``rows``; return ``(inserted_rows,
        deleted_rows)``.

        For unkeyed relations.  The stored rows are read once and compared
        by typed row key; only the rows that leave and the rows that arrive
        are written.
        """
        arriving: Dict[Tuple, Tuple[ConstantValue, ...]] = {}
        for row in rows:
            values = self._checked(row)
            arriving.setdefault(self._row_key(values), values)
        leaving = [row for row_key, row in self._tuples.items()
                   if arriving.pop(row_key, None) is None]
        self.delete_many(leaving)
        for row_key, values in arriving.items():
            self._add(row_key, values)
        return list(arriving.values()), leaving

    def _checked(self, row) -> Tuple[ConstantValue, ...]:
        values = tuple(row)
        if len(values) != self.schema.arity:
            raise SchemaError(
                f"arity mismatch inserting into {self.schema.qualified_name}: "
                f"expected {self.schema.arity}, got {len(values)}"
            )
        return values

    def _add(self, row_key: Tuple, values: Tuple[ConstantValue, ...]) -> None:
        self._tuples[row_key] = values
        for positions, index in self._indexes.items():
            key = tuple(self._index_key(values[p]) for p in positions)
            index.setdefault(key, {})[row_key] = values

    def _remove(self, values: Tuple[ConstantValue, ...]) -> None:
        row_key = self._row_key(values)
        self._tuples.pop(row_key, None)
        for positions, index in self._indexes.items():
            key = tuple(self._index_key(values[p]) for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.pop(row_key, None)
                if not bucket:
                    del index[key]

    def clear(self) -> List[Tuple[ConstantValue, ...]]:
        """Remove every tuple; return the removed rows."""
        removed = list(self._tuples.values())
        self._tuples.clear()
        self._indexes.clear()
        return removed

    def scan(self, bindings: Optional[Dict[int, ConstantValue]] = None
             ) -> Iterator[Tuple[ConstantValue, ...]]:
        """Iterate over tuples matching the given ``{column: value}`` bindings.

        With no bindings this is a full scan.  With bindings, the hash index
        on exactly that column subset is probed — every returned row matches
        all bindings, no post-filtering happens.
        """
        if not bindings:
            yield from self._tuples.values()
            return
        positions = tuple(sorted(bindings))
        if positions[-1] >= self.schema.arity:
            # A bound position beyond the relation's arity can never match.
            return
        key = tuple(self._index_key(bindings[p]) for p in positions)
        if len(positions) == self.schema.arity:
            # Every column bound: the rows are already keyed by exactly this,
            # a "does this tuple exist" probe needs no index of its own.
            row = self._tuples.get(key)
            if row is not None:
                yield row
            return
        yield from self._index_for(positions).get(key, {}).values()


class MemoryBackend:
    """In-RAM backend: one :class:`MemoryTable` per (namespace, relation, peer).

    The metadata side-store honours the same save/delete/load contract as the
    durable backends (insertion-ordered, last write wins in place) but lives
    in a plain dict — a memory-backed peer never survives its process, so
    ``PeerState`` always restores from an empty store.
    """

    name = "memory"
    persistent = False
    SUPPORTS_SQL = False

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
