"""A SQLite table keeps every fact it stores: differential tests.

A :class:`~repro.store.sqlite.SqliteTable` decodes its stored rows when it
is attached, answers every read from the facts it keeps in memory, and
sends every write to the kept facts and then to the rows.  Random sequences
of writes, commits and ``abort()`` in the middle of a stage run through
three stores that must agree after every step:

* the memory backend (the model, rolled back to the last commit on abort);
* SQLite, as attached at the start and again after each abort;
* the same SQLite file opened afresh — what a commit made durable.

No read of an attached table runs SQL, and a table of an aborted store
refuses every read.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facts import Fact
from repro.core.schema import RelationKind, RelationSchema
from repro.store.backend import STORE_NAMESPACE, StoreError
from repro.store.memory import MemoryTable
from repro.store.sqlite import SqliteBackend

#: Values that compare equal in Python but are six different facts.
VALUES = (1, True, 1.0, "1", b"1", None)

PLAIN = RelationSchema(name="plain", peer="p", columns=("a", "b"),
                       kind=RelationKind.EXTENSIONAL)
KEYED = RelationSchema(name="keyed", peer="p", columns=("id", "v"),
                       kind=RelationKind.EXTENSIONAL, key=("id",))
SCHEMAS = {"plain": PLAIN, "keyed": KEYED}


def typed(facts):
    """Facts as hashable rows that keep each value's type."""
    return [tuple((type(value).__name__, value) for value in fact.values)
            for fact in facts]


def contents(table):
    return sorted(typed(table), key=repr)


def observe(table):
    """Everything a reader can ask a table, type-strictly."""
    return (len(table), contents(table),
            [contents(table.scan({position: value}))
             for position in (0, 1) for value in VALUES],
            [Fact(table.schema.name, "p", (a, b)) in table
             for a in VALUES for b in VALUES])


pairs = st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))
relations = st.sampled_from(sorted(SCHEMAS))
steps = st.one_of(
    st.tuples(st.just("insert"), relations, pairs),
    st.tuples(st.just("insert_many"), relations, st.lists(pairs, max_size=4)),
    st.tuples(st.just("delete"), relations, pairs),
    st.tuples(st.just("replace"), st.just("plain"), st.lists(pairs, max_size=5)),
    st.tuples(st.just("clear"), relations, st.just(())),
    st.tuples(st.just("commit"), st.just(""), st.just(())),
    st.tuples(st.just("abort"), st.just(""), st.just(())),
)


def apply(step, table, model):
    """Run one write on a SQLite table and on the model; return both answers."""
    kind, name, values = step
    if kind == "insert":
        fact = Fact(name, "p", values)
        return table.insert(fact), model.insert(fact)
    if kind == "delete":
        fact = Fact(name, "p", values)
        return table.delete(fact), model.delete(fact)
    facts = [Fact(name, "p", pair) for pair in values]
    if kind == "insert_many":
        return table.insert_many(facts), model.insert_many(facts)
    if kind == "replace":
        return table.replace(facts), model.replace(facts)
    return table.clear(), model.clear()


def same_answer(got, want):
    if got is None or want is None:
        return got is None and want is None
    if isinstance(got, Fact):
        return typed([got]) == typed([want])
    if isinstance(got, tuple):
        return all(same_answer(a, b) for a, b in zip(got, want))
    return sorted(typed(got), key=repr) == sorted(typed(want), key=repr)


class Stores:
    """The model, the SQLite tables and the path they live at."""

    def __init__(self, path):
        self.path = path
        self.sqlite = None
        self.tables = {}
        self.model = {name: MemoryTable(schema) for name, schema in SCHEMAS.items()}
        self.committed = {name: [] for name in SCHEMAS}
        self.open()
        self.commit()

    def open(self):
        self.sqlite = SqliteBackend(self.path)
        self.tables = {name: self.sqlite.table(STORE_NAMESPACE, schema)
                       for name, schema in SCHEMAS.items()}

    def commit(self):
        self.sqlite.commit()
        self.committed = {name: list(table) for name, table in self.model.items()}

    def abort(self):
        self.sqlite.abort()
        for table in self.tables.values():
            with pytest.raises(StoreError):
                len(table)
        self.model = {name: MemoryTable(SCHEMAS[name]) for name in SCHEMAS}
        for name, facts in self.committed.items():
            self.model[name].insert_many(facts)
        self.open()


@given(st.lists(steps, max_size=25))
@settings(max_examples=60, deadline=None)
def test_kept_tables_agree_with_memory_and_with_the_file(script):
    with tempfile.TemporaryDirectory() as directory:
        stores = Stores(os.path.join(directory, "kept.db"))
        try:
            for step in script:
                kind, name, _ = step
                if kind == "commit":
                    stores.commit()
                elif kind == "abort":
                    stores.abort()
                else:
                    got, want = apply(step, stores.tables[name], stores.model[name])
                    assert same_answer(got, want), step
                for relation, table in stores.tables.items():
                    assert observe(table) == observe(stores.model[relation]), step
                reopened = SqliteBackend(stores.path)
                try:
                    for relation, schema in SCHEMAS.items():
                        durable = reopened.table(STORE_NAMESPACE, schema)
                        assert contents(durable) == sorted(
                            typed(stores.committed[relation]), key=repr), step
                finally:
                    reopened.close()
        finally:
            stores.sqlite.close()


@pytest.fixture
def backend():
    made = SqliteBackend()
    yield made
    made.close()


class TestKeptObjects:
    def test_a_removed_fact_is_the_kept_object(self, backend):
        table = backend.table(STORE_NAMESPACE, PLAIN)
        table.insert_many([Fact("plain", "p", (i, "x")) for i in range(4)])
        kept = {fact.values: fact for fact in table}
        assert all(fact is kept[fact.values] for fact in table.scan({1: "x"}))
        assert table.delete(Fact("plain", "p", (0, "x"))) is kept[(0, "x")]
        inserted, removed = table.replace([Fact("plain", "p", (1, "x")),
                                           Fact("plain", "p", (9, "y"))])
        assert typed(inserted) == typed([Fact("plain", "p", (9, "y"))])
        assert {id(fact) for fact in removed} == {id(kept[(2, "x")]), id(kept[(3, "x")])}
        assert next(table.scan({0: 1})) is kept[(1, "x")]

    def test_a_displaced_fact_is_the_kept_object(self, backend):
        table = backend.table(STORE_NAMESPACE, KEYED)
        table.insert(Fact("keyed", "p", (1, "old")))
        kept, = list(table)
        inserted, displaced = table.insert(Fact("keyed", "p", (1, "new")))
        assert len(displaced) == 1 and displaced[0] is kept
        assert typed(table) == [(("int", 1), ("str", "new"))]


FLAG = RelationSchema(name="flag", peer="p", columns=(),
                      kind=RelationKind.EXTENSIONAL)


def statements(backend):
    """The SQL ``backend`` runs from here on."""
    seen = []
    backend._conn.set_trace_callback(seen.append)
    return seen


class TestReadsRunNoSql:
    def test_a_kept_table_answers_without_sql(self, backend):
        table = backend.table(STORE_NAMESPACE, PLAIN)
        table.insert_many([Fact("plain", "p", (i, i % 3)) for i in range(30)])
        seen = statements(backend)
        assert len(list(table.scan({1: 2}))) == 10
        assert len(table) == 30 and Fact("plain", "p", (4, 1)) in table
        assert Fact("plain", "p", (4, 2)) not in table
        assert seen == []

    def test_a_reopened_store_answers_without_sql(self, tmp_path):
        path = str(tmp_path / "reopen.db")
        first = SqliteBackend(path)
        first.table(STORE_NAMESPACE, PLAIN).insert_many(
            [Fact("plain", "p", (i, i % 3)) for i in range(30)])
        keyed = first.table(STORE_NAMESPACE, KEYED)
        keyed.insert(Fact("keyed", "p", (1, "old")))
        keyed.insert(Fact("keyed", "p", (1, True)))    # displaces the row of "old"
        first.table(STORE_NAMESPACE, FLAG).insert(Fact("flag", "p", ()))
        first.close()
        reopened = SqliteBackend(path)
        try:
            plain, keyed, flag = (reopened.table(STORE_NAMESPACE, schema)
                                  for schema in (PLAIN, KEYED, FLAG))
            seen = statements(reopened)
            assert typed(plain.scan({1: 2})) == typed(
                Fact("plain", "p", (i, 2)) for i in range(2, 30, 3))
            assert len(list(plain.scan())) == 30 and len(plain) == 30
            assert Fact("plain", "p", (4, 1)) in plain
            assert Fact("plain", "p", (4, 1.0)) not in plain
            assert typed(keyed.scan({0: 1})) == [(("int", 1), ("bool", True))]
            assert Fact("keyed", "p", (1, 1)) not in keyed
            assert list(flag.scan()) == [Fact("flag", "p", ())]
            assert list(flag.scan({})) == [Fact("flag", "p", ())]
            assert len(flag) == 1 and Fact("flag", "p", ()) in flag
            assert seen == []
        finally:
            reopened.close()


def writes(seen):
    """The row writes among the statements ``seen``, by verb."""
    return [sql.split()[0] for sql in seen if sql.startswith(("INSERT", "DELETE"))]


class TestWritesRunOnlyTheRowsThatChanged:
    """A write runs SQL for the rows whose facts it stores or removes, and
    for no other: the kept facts decide, the rows follow."""

    def test_a_fact_already_stored_runs_no_sql(self, backend):
        plain, keyed = (backend.table(STORE_NAMESPACE, schema) for schema in (PLAIN, KEYED))
        plain.insert(Fact("plain", "p", (1, "x")))
        keyed.insert(Fact("keyed", "p", (1, "x")))
        backend.commit()
        seen = statements(backend)
        assert plain.insert(Fact("plain", "p", (1, "x"))) == ([], [])
        assert keyed.insert(Fact("keyed", "p", (1, "x"))) == ([], [])
        assert plain.insert_many([Fact("plain", "p", (1, "x"))] * 2) == ([], [])
        assert plain.delete(Fact("plain", "p", (1, True))) is None
        assert seen == []

    def test_a_keyed_displacement_runs_one_delete_and_one_insert(self, backend):
        keyed = backend.table(STORE_NAMESPACE, KEYED)
        keyed.insert(Fact("keyed", "p", (1, "old")))
        seen = statements(backend)
        inserted, displaced = keyed.insert(Fact("keyed", "p", (1, "new")))
        assert typed(inserted) == [(("int", 1), ("str", "new"))]
        assert typed(displaced) == [(("int", 1), ("str", "old"))]
        assert writes(seen) == ["DELETE", "INSERT"]

    def test_a_fact_its_own_batch_displaces_never_reaches_sql(self, tmp_path):
        path = str(tmp_path / "batch.db")
        backend = SqliteBackend(path)
        keyed = backend.table(STORE_NAMESPACE, KEYED)
        seen = statements(backend)
        first, survivor = Fact("keyed", "p", (1, "first")), Fact("keyed", "p", (1, "second"))
        inserted, displaced = keyed.insert_many([first, survivor])
        assert typed(inserted) == typed([first, survivor]) and typed(displaced) == typed([first])
        assert writes(seen) == ["INSERT"] and "second" in seen[-1]
        backend.close()
        reopened = SqliteBackend(path)
        assert typed(reopened.table(STORE_NAMESPACE, KEYED)) == typed([survivor])
        reopened.close()

    def test_a_stored_fact_its_batch_brings_back_runs_no_sql(self, backend):
        keyed = backend.table(STORE_NAMESPACE, KEYED)
        stored = Fact("keyed", "p", (1, "stored"))
        keyed.insert(stored)
        seen = statements(backend)
        inserted, displaced = keyed.insert_many(
            [Fact("keyed", "p", (1, "passing")), Fact("keyed", "p", (1, "stored"))])
        assert len(inserted) == 2 and len(displaced) == 2
        assert typed(keyed) == typed([stored])
        assert writes(seen) == []
