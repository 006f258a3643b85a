"""The SQLite storage backend: durable relations, WAL journaling, reads from memory.

Layout
------
One backend maps to one database file (or a private in-memory database when
no path is given).  Each relation table stores one fact per row as *paired
columns* ``(t0, v0, t1, v1, ...)`` — a type tag plus the value — so that the
type-strict semantics of :class:`~repro.core.terms.Constant` survive SQLite's
numeric affinity: ``True`` is stored as ``('bool', 1)`` and stays distinct
from ``('int', 1)``, and ``1`` stays distinct from ``1.0``.  A full-row
UNIQUE index gives set semantics via ``INSERT OR IGNORE``; it is the only
index on a relation table.

Physical table names are sequential (``r0``, ``r1``, ...) and mapped from
``(namespace, relation, peer)`` through the ``_repro_catalog`` table, so
arbitrary relation names never need escaping into identifiers.  Metadata
(schemas, rules, delegations) lives in ``_repro_meta`` keyed by
``(kind, key)`` with an insertion sequence number preserving order.

Reads and writes
----------------
No read runs SQL.  Each :class:`SqliteTable` keeps every fact it stores
in a :class:`~repro.store.memory.MemoryTable`, decoded once when the table
is attached, so a durable peer's working set lives in memory exactly as on
the memory backend, and a store larger than RAM is not served.  The kept
table also decides every write, with the memory backend's own code; the
SQLite table only mirrors the facts it stored and removed as rows.
SQLite provides durability and nothing else: the stage transaction, abort
and recovery.  Rules are evaluated over the kept facts exactly as on the
memory backend.

Transactions
------------
Writes open an implicit transaction that the engine commits at **stage
boundaries** (`commit()` is called at the end of every ``run_stage`` and on
close).  The recovery unit is therefore the stage: a crash mid-stage rolls
back to the last completed stage, never to a torn half-stage.
:meth:`SqliteBackend.abort` simulates process death — it rolls back the open
transaction and drops the connection without committing, which is what the
crash/recovery suite uses.
"""

from __future__ import annotations

import sqlite3
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.facts import Fact
from repro.core.schema import RelationSchema
from repro.core.terms import ConstantValue
from repro.store.backend import StoreError
from repro.store.memory import MemoryTable

# Type tags stored alongside every value.  bool must be checked before int
# (bool subclasses int).
_TAG_NONE = "none"
_TAG_BOOL = "bool"
_TAG_INT = "int"
_TAG_FLOAT = "float"
_TAG_STR = "str"
_TAG_BYTES = "bytes"

#: Tags whose stored values SQLite's SUM/MIN/MAX treat exactly like Python
#: arithmetic over the decoded values (bool is stored as 0/1, matching
#: ``True + True == 2``).
NUMERIC_TAGS = frozenset({_TAG_BOOL, _TAG_INT, _TAG_FLOAT})
#: Tags safe for exact (bit-identical) SUM/AVG in SQL: integer arithmetic
#: is associative, float accumulation order is not.
EXACT_SUM_TAGS = frozenset({_TAG_BOOL, _TAG_INT})

#: The integers a SQLite column holds: signed 64-bit.
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1


def encode_column(value: ConstantValue) -> Tuple[str, object]:
    """Encode one constant payload as a ``(tag, storable)`` pair."""
    if value is None:
        return _TAG_NONE, 0
    if isinstance(value, bool):
        return _TAG_BOOL, int(value)
    if isinstance(value, int):
        if not _INT_MIN <= value <= _INT_MAX:
            raise StoreError(f"integer {value} does not fit in a 64-bit SQLite column")
        return _TAG_INT, value
    if isinstance(value, float):
        return _TAG_FLOAT, value
    if isinstance(value, str):
        return _TAG_STR, value
    if isinstance(value, bytes):
        return _TAG_BYTES, value
    raise StoreError(f"unsupported constant type {type(value).__name__!r}")


def decode_column(tag: str, stored) -> ConstantValue:
    """Inverse of :func:`encode_column`."""
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BOOL:
        return bool(stored)
    if tag == _TAG_INT:
        return int(stored)
    if tag == _TAG_FLOAT:
        return float(stored)
    if tag == _TAG_STR:
        return sys.intern(stored)  # one object per string, however many rows hold it
    if tag == _TAG_BYTES:
        return bytes(stored)
    raise StoreError(f"unknown value tag {tag!r}")


def _pair_columns(arity: int) -> List[str]:
    cols: List[str] = []
    for i in range(arity):
        cols.append(f"t{i}")
        cols.append(f"v{i}")
    return cols


class SqliteTable:
    """One relation stored as a SQLite table of tag/value column pairs.

    The table speaks facts like every table, and it keeps every fact it
    stores in a :class:`~repro.store.memory.MemoryTable`: a table built over
    stored rows decodes them once, a new table starts empty.  Every read —
    :meth:`scan`, bound or not, ``len``, ``in`` and iteration — is answered
    from the kept facts without SQL, and a scan hands out the same objects
    every time.  Every write is the kept table's: the arriving facts are
    encoded first, the kept table's write decides (duplicates, key
    displacement, what a :meth:`replace` removes and adds), and the facts
    it reports are written as rows in the stage's transaction — only the
    rows that changed; a removed fact is the kept object.  The kept table is
    called through its second names (``select``, ``put``, ``pop`` …), which
    a benchmark that wraps the table methods leaves alone.  SQL does what
    needs the rows: commit and recovery.  The rows stay the
    durable truth: after :meth:`SqliteBackend.abort` the table refuses every
    read and write, and a reopen decodes what the file holds.
    """

    __slots__ = ("backend", "schema", "table_name", "_arity", "_cols",
                 "_col_list", "_insert_sql", "_delete_sql", "_kept")

    def __init__(self, backend: "SqliteBackend", table_name: str,
                 schema: RelationSchema, stored: bool):
        self.backend = backend
        self.schema = schema
        self.table_name = table_name
        self._arity = schema.arity
        # Zero-arity relations get a single dummy column so the table is valid SQL.
        self._cols = _pair_columns(self._arity) or ["u"]
        self._col_list = ", ".join(self._cols)
        marks = ", ".join("?" for _ in self._cols)
        self._insert_sql = (
            f'INSERT OR IGNORE INTO "{table_name}" ({self._col_list}) VALUES ({marks})'
        )
        self._delete_sql = (
            f'DELETE FROM "{table_name}" WHERE {self._eq_clause(self._arity)}')
        # Every stored fact, decoded from the rows of a stored table in the
        # order of its full-row index (a covering scan, no sort step): the
        # values' order is nearly the rendering order reads sort facts into,
        # and a sort of nearly sorted facts is fast.  Temporary: it goes
        # once PeerState.query merges a relation's changed facts into its
        # snapshot instead of re-sorting all of it (ROADMAP item 2).
        rows = (backend.execute(f'SELECT {self._col_list} FROM "{table_name}" '
                                f'ORDER BY {self._col_list}')
                if stored else ())
        self._kept: Union[MemoryTable, _Aborted] = MemoryTable(
            schema, map(self._decode_fact, rows))

    # -- encoding -------------------------------------------------------- #

    def _encode_row(self, values: Tuple[ConstantValue, ...]) -> Tuple:
        if not self._arity:
            return (0,)
        params: List[object] = []
        for value in values:
            try:
                tag, stored = encode_column(value)
            except StoreError as error:
                raise StoreError(
                    f"cannot store {value!r} in {self.schema.qualified_name}: {error}"
                ) from None
            params.append(tag)
            params.append(stored)
        return tuple(params)

    def _decode_fact(self, row) -> Fact:
        values = tuple(decode_column(row[2 * i], row[2 * i + 1])
                       for i in range(self._arity))
        return Fact(self.schema.name, self.schema.peer, values)

    def _eq_clause(self, count: int) -> str:
        if not count:
            return "u = ?"
        return " AND ".join(f"t{i} = ? AND v{i} = ?" for i in range(count))

    # -- StorageTable protocol ------------------------------------------- #

    def __len__(self) -> int:
        return len(self._kept)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._kept

    def __iter__(self) -> Iterator[Fact]:
        return self.scan(None)

    def _rows(self, facts: Iterable[Fact]) -> Dict[Tuple, Tuple]:
        """The rows of the ``facts`` not stored yet, by typed values key.

        Encoded before the kept facts change: a refused value changes
        nothing.
        """
        kept = self._kept
        return {fact._key: self._encode_row(fact.values)
                for fact in facts if fact not in kept}

    def _write(self, rows: Dict[Tuple, Tuple], inserted: List[Fact],
               removed: List[Fact]) -> None:
        """Mirror a change of the kept facts in the stage's transaction:
        one ``executemany`` ``DELETE`` of the ``removed`` facts' rows and
        one ``INSERT`` of the ``inserted`` facts', taken from ``rows``
        (:meth:`_rows` of the facts written, read before the change).

        A keyed batch can store a fact that a later one displaces, or
        displace a stored fact that a later one brings back: a row is
        written only where its fact is stored now and was not before, or
        the other way round.
        """
        if inserted and removed:
            kept = self._kept
            removed = list({fact._key: fact for fact in removed
                            if fact._key not in rows and fact not in kept}.values())
            inserted = list({fact._key: fact for fact in inserted
                             if fact._key in rows and fact in kept}.values())
        if not (inserted or removed):
            return
        backend = self.backend
        backend.begin()
        if removed:
            backend.executemany(self._delete_sql,
                                [self._encode_row(fact.values) for fact in removed])
        if inserted:
            backend.executemany(self._insert_sql, [rows[fact._key] for fact in inserted])

    def insert(self, fact: Fact) -> Tuple[List[Fact], List[Fact]]:
        rows = self._rows((fact,))
        inserted, displaced = self._kept.put(fact)
        self._write(rows, inserted, displaced)
        return inserted, displaced

    def insert_many(self, facts: Iterable[Fact]) -> Tuple[List[Fact], List[Fact]]:
        """Batched insert: the rows that changed are written with one
        ``executemany`` each way.  Every fact is encoded before any is
        stored, so a batch is refused whole."""
        facts = list(facts)
        rows = self._rows(facts)
        inserted, displaced = self._kept.put_many(facts)
        self._write(rows, inserted, displaced)
        return inserted, displaced

    def delete(self, fact: Fact) -> Optional[Fact]:
        """Delete ``fact``; return the kept fact it removed, or ``None``."""
        removed = self._kept.pop(fact)
        if removed is not None:
            self._write({}, [], [removed])
        return removed

    def replace(self, facts: Iterable[Fact]) -> Tuple[List[Fact], List[Fact]]:
        """Make the table hold exactly ``facts``; return ``(inserted,
        removed)`` facts.  For unkeyed relations:
        :meth:`MemoryTable.replace <repro.store.memory.MemoryTable.replace>`
        decides, and the rows that leave and arrive are written with one
        ``executemany`` each in the stage's transaction."""
        facts = list(facts)
        arriving = self._rows(facts)
        inserted, removed = self._kept.replace(facts)
        self._write(arriving, inserted, removed)
        return inserted, removed

    def clear(self) -> List[Fact]:
        removed = self._kept.pop_all()
        if removed:
            self.backend.begin()
            self.backend.execute(f'DELETE FROM "{self.table_name}"')
        return removed

    def scan(self, bindings: Optional[Dict[int, ConstantValue]] = None
             ) -> Iterator[Fact]:
        return self._kept.select(bindings)


class _Aborted:
    """What an aborted backend's tables keep: nothing.  Every read or write
    raises a :class:`StoreError` naming the relation, so a table never
    serves a fact its aborted stage wrote."""

    __slots__ = ("relation",)

    def __init__(self, schema: RelationSchema):
        self.relation = schema.qualified_name

    def _refuse(self, *args):
        raise StoreError(f"{self.relation}: its store was aborted; reopen it to read it")

    __len__ = __contains__ = __iter__ = _refuse

    def __getattr__(self, name: str):
        self._refuse()


class SqliteBackend:
    """Durable storage backend over a single SQLite database."""

    name = "sqlite"

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.persistent = path is not None
        self._conn = sqlite3.connect(path if path is not None else ":memory:",
                                     isolation_level=None, check_same_thread=False)
        if self.persistent:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._in_txn = False
        self._closed = False
        self._tables: Dict[Tuple[str, str, str], SqliteTable] = {}
        #: Observability: statements executed on behalf of the rule compiler.
        self.counters: Dict[str, int] = {"compiled_statements": 0, "aggregate_statements": 0}
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS _repro_catalog ("
            " namespace TEXT NOT NULL, relation TEXT NOT NULL, peer TEXT NOT NULL,"
            " table_name TEXT NOT NULL, arity INTEGER NOT NULL,"
            " PRIMARY KEY (namespace, relation, peer))")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS _repro_meta ("
            " kind TEXT NOT NULL, key TEXT NOT NULL, seq INTEGER NOT NULL,"
            " payload TEXT NOT NULL, PRIMARY KEY (kind, key))")
        #: Highest meta ``seq`` handed out per kind (see :meth:`save_meta`).
        self._meta_seq: Dict[str, int] = {}
        self._physical: Dict[Tuple[str, str, str], Tuple[str, int]] = {}
        for namespace, relation, peer, table_name, arity in self._conn.execute(
                "SELECT namespace, relation, peer, table_name, arity FROM _repro_catalog"):
            self._physical[(namespace, relation, peer)] = (table_name, arity)
        self._table_seq = len(self._physical)

    # -- connection management ------------------------------------------- #

    def begin(self) -> None:
        """Open the stage transaction if none is active."""
        if not self._in_txn:
            self._conn.execute("BEGIN")
            self._in_txn = True

    def execute(self, sql: str, params=()) -> sqlite3.Cursor:
        """Execute a statement on the backend connection."""
        return self._conn.execute(sql, params)

    def executemany(self, sql: str, seq_of_params) -> sqlite3.Cursor:
        """Execute a statement once per parameter set, in one driver call."""
        return self._conn.executemany(sql, seq_of_params)

    def commit(self) -> None:
        if self._closed:
            return
        if self._in_txn:
            self._conn.execute("COMMIT")
            self._in_txn = False

    def close(self) -> None:
        if self._closed:
            return
        self.commit()
        self._conn.close()
        self._closed = True

    def abort(self) -> None:
        """Simulate process death: roll back the open transaction, drop the
        connection, commit nothing.  Used by the crash/recovery suite."""
        if self._closed:
            return
        if self._in_txn:
            self._conn.execute("ROLLBACK")
            self._in_txn = False
        self._conn.close()
        self._closed = True
        for table in self._tables.values():
            table._kept = _Aborted(table.schema)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- tables ----------------------------------------------------------- #

    def table(self, namespace: str, schema: RelationSchema) -> SqliteTable:
        key = (namespace, schema.name, schema.peer)
        table = self._tables.get(key)
        if table is not None:
            return table
        physical = self._physical.get(key)
        if physical is None:
            table_name = f"r{self._table_seq}"
            self._table_seq += 1
            cols = _pair_columns(schema.arity) or ["u"]
            col_defs = ", ".join(f"{c} NOT NULL" for c in cols)
            self.begin()
            self._conn.execute(f'CREATE TABLE "{table_name}" ({col_defs})')
            self._conn.execute(
                f'CREATE UNIQUE INDEX "{table_name}__row" '
                f'ON "{table_name}" ({", ".join(cols)})')
            self._conn.execute(
                "INSERT INTO _repro_catalog (namespace, relation, peer, table_name, arity)"
                " VALUES (?, ?, ?, ?, ?)",
                (namespace, schema.name, schema.peer, table_name, schema.arity))
            self._physical[key] = (table_name, schema.arity)
        else:
            table_name, arity = physical
            if arity != schema.arity:
                raise StoreError(
                    f"stored table for {schema.qualified_name} has arity {arity}, "
                    f"schema says {schema.arity}")
        table = SqliteTable(self, table_name, schema, stored=physical is not None)
        self._tables[key] = table
        return table

    def table_ref(self, namespace: str, relation: str, peer: str
                  ) -> Optional[Tuple[str, int]]:
        """``(physical_table_name, arity)`` without creating the table."""
        return self._physical.get((namespace, relation, peer))

    def stored_relations(self, namespace: str) -> Tuple[Tuple[str, str, int], ...]:
        found = [(relation, peer, arity)
                 for (ns, relation, peer), (_, arity) in self._physical.items()
                 if ns == namespace]
        return tuple(sorted(found))

    # -- metadata --------------------------------------------------------- #

    def save_meta(self, kind: str, key: str, payload: str) -> None:
        self.begin()
        # One statement whatever the kind holds: a new key takes the next
        # number of its kind (the highest stored is read once per kind; a
        # rolled-back save only leaves a gap), a known key keeps its place.
        seq = self._meta_seq.get(kind)
        if seq is None:
            seq = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM _repro_meta WHERE kind = ?",
                (kind,)).fetchone()[0]
        self._meta_seq[kind] = seq + 1
        self._conn.execute(
            "INSERT INTO _repro_meta (kind, key, seq, payload) VALUES (?, ?, ?, ?)"
            " ON CONFLICT (kind, key) DO UPDATE SET payload = excluded.payload",
            (kind, key, seq + 1, payload))

    def delete_meta(self, kind: str, key: str) -> None:
        self.begin()
        self._conn.execute(
            "DELETE FROM _repro_meta WHERE kind = ? AND key = ?", (kind, key))

    def load_meta(self, kind: str) -> List[Tuple[str, str]]:
        cur = self._conn.execute(
            "SELECT key, payload FROM _repro_meta WHERE kind = ? ORDER BY seq", (kind,))
        return [(row[0], row[1]) for row in cur]
