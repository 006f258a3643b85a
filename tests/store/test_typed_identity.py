"""Type-strict identity in every place that keys facts by their values.

``1``, ``True``, ``1.0``, ``"1"``, ``b"1"`` and ``None`` are six values, and
the facts holding them six facts — for :class:`Fact` equality and hashing,
for the memory table's keys, indexes and probes (a bucket going from one
fact to two and back to one included), and for a SQLite table, both new and
attached again to the stored table of a file, whose columns a reopen
decodes one at a time.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.facts import Fact, fact_identity, typed_value, typed_values
from repro.core.schema import RelationKind, RelationSchema
from repro.store.backend import STORE_NAMESPACE
from repro.store.memory import MemoryBackend
from repro.store.sqlite import SqliteBackend, decode_column

VALUES = (1, True, 1.0, "1", b"1", None)

PAIR = RelationSchema(name="r", peer="p", columns=("v", "w"), kind=RelationKind.EXTENSIONAL)


def typed(facts):
    """The type names of each fact's values."""
    return [tuple(type(value).__name__ for value in fact.values) for fact in facts]


class TestFactIdentity:
    def test_six_values_are_six_facts(self):
        facts = [Fact("r", "p", (value,)) for value in VALUES]
        assert len(set(facts)) == 6
        assert len(set(map(fact_identity, facts))) == 6
        for a, b in itertools.combinations(facts, 2):
            assert a != b and not a == b
        assert all(Fact("r", "p", (value,)) == fact for value, fact in zip(VALUES, facts))
        assert all(hash(Fact("r", "p", (value,))) == hash(fact)
                   for value, fact in zip(VALUES, facts))

    def test_every_position_and_every_pairing(self):
        facts = [Fact("r", "p", pair) for pair in itertools.product(VALUES, repeat=2)]
        assert len(set(facts)) == 36
        assert len({fact_identity(fact) for fact in facts}) == 36

    def test_relation_and_peer_are_part_of_identity(self):
        fact = Fact("r", "p", (1,))
        assert fact != Fact("s", "p", (1,)) and fact != Fact("r", "q", (1,))
        assert fact_identity(fact) != fact_identity(Fact("s", "p", (1,)))
        assert fact_identity(fact) == fact_identity(Fact("r", "p", (1,)))

    def test_only_bool_and_float_are_tagged(self):
        assert [typed_value(value) for value in VALUES] == [
            1, (bool, True), (float, 1.0), "1", b"1", None]
        untagged = (1, "1", b"1", None)
        assert typed_values(untagged) is untagged
        fact = Fact("r", "p", untagged)
        assert fact._key is fact.values              # no second tuple
        assert typed_values([True, 2]) == ((bool, True), 2)
        assert len({typed_values((value,)) for value in VALUES}) == 6


@pytest.fixture(params=["memory", "sqlite", "sqlite-reopened"])
def table(request, tmp_path):
    if request.param == "memory":
        backend = MemoryBackend()
    elif request.param == "sqlite":
        backend = SqliteBackend()
    else:
        path = str(tmp_path / "pair.db")
        first = SqliteBackend(path)
        first.table(STORE_NAMESPACE, PAIR)
        first.close()
        backend = SqliteBackend(path)
    yield backend.table(STORE_NAMESPACE, PAIR)
    backend.close()


class TestTablesKeepSixValuesApart:
    def test_rows_membership_and_probes(self, table):
        for value in VALUES:
            assert table.insert(Fact("r", "p", (value, value)))[0]
        assert len(table) == 6
        for value in VALUES:
            fact = Fact("r", "p", (value, value))
            assert fact in table
            for position in (0, 1):
                found = list(table.scan({position: value}))
                assert found == [fact] and typed(found) == typed([fact])
            assert list(table.scan({0: value, 1: value})) == [fact]
        assert Fact("r", "p", (1, True)) not in table
        assert list(table.scan({0: 1, 1: True})) == []

    def test_a_bucket_goes_one_two_one(self, table):
        """The index bucket of ``w = "x"`` holds one fact, then two, then one."""
        one, true = Fact("r", "p", (1, "x")), Fact("r", "p", (True, "x"))
        table.insert(one)
        assert list(table.scan({1: "x"})) == [one]
        table.insert(true)
        assert sorted(typed(table.scan({1: "x"}))) == sorted(typed([one, true]))
        assert list(table.scan({0: True})) == [true] and list(table.scan({0: 1})) == [one]
        assert table.delete(Fact("r", "p", (1, "x"))) == one
        assert typed(table.scan({1: "x"})) == typed([true])
        assert list(table.scan({0: 1})) == []
        table.insert(Fact("r", "p", (1.0, "x")))
        assert sorted(typed(table.scan({1: "x"}))) == sorted(
            [("bool", "str"), ("float", "str")])
        assert table.delete(true) == true and table.delete(true) is None
        assert typed(table.scan({1: "x"})) == [("float", "str")]
        assert list(table.scan({0: 1.0, 1: "x"})) == [Fact("r", "p", (1.0, "x"))]

    def test_replace_keeps_the_types_apart(self, table):
        table.insert_many([Fact("r", "p", (value, 0)) for value in VALUES])
        inserted, removed = table.replace([Fact("r", "p", (value, 0))
                                           for value in ("1", b"1", None, 1)])
        assert inserted == []
        assert sorted(map(repr, removed)) == sorted(
            repr(Fact("r", "p", (value, 0))) for value in (True, 1.0))
        assert sorted(typed(table)) == sorted(
            [("str", "int"), ("bytes", "int"), ("NoneType", "int"), ("int", "int")])


def test_a_memory_bucket_of_one_fact_is_that_fact():
    table = MemoryBackend().table(STORE_NAMESPACE, PAIR)
    one, true = Fact("r", "p", (1, "x")), Fact("r", "p", (True, "x"))
    table.insert(one)
    assert list(table.scan({1: "x"})) == [one]
    index = table._indexes[(1,)]
    assert index[("x",)] is one
    table.insert(true)
    assert index[("x",)] == {one._key: one, true._key: true}
    assert table.delete(Fact("r", "p", (1, "x"))) is one
    assert index[("x",)] is true
    table.delete(true)
    assert ("x",) not in index


class TestAReopenDecodesColumnByColumn:
    """A reopen decodes a stored table a column at a time: a column of ints,
    floats or bytes as SQLite hands it back, a column of strings interned,
    any other value by value.  Each way must give back the values, their
    types and the rows' order that a value-by-value decode gives."""

    SCHEMA = RelationSchema(name="mix", peer="p",
                            columns=("mixed", "ints", "floats", "strs", "blobs", "bools"),
                            kind=RelationKind.EXTENSIONAL)
    MIXED = (True, 1, 1.0, None, b"1", "one", 2 ** 63 - 1)
    INTS = (0, 1, -1, 2 ** 63 - 1, -2 ** 63, 7, 1)
    FLOATS = (0.5, 1.0, -0.0, 2.0, 1e300, 3.25, 1.0)
    STRS = ("one", "two", "one", "1", "", "two", "one")

    def test_values_types_order_and_one_object_per_string(self, tmp_path):
        facts = [Fact("mix", "p", (mixed, number, real, text, bytes([i]), i % 2 == 0))
                 for i, (mixed, number, real, text)
                 in enumerate(zip(self.MIXED, self.INTS, self.FLOATS, self.STRS))]
        path = str(tmp_path / "mix.db")
        first = SqliteBackend(path)
        first.table(STORE_NAMESPACE, self.SCHEMA).insert_many(facts)
        first.commit()
        first.close()

        again = SqliteBackend(path)
        table = again.table(STORE_NAMESPACE, self.SCHEMA)
        columns = ", ".join(f"t{i}, v{i}" for i in range(6))
        one_by_one = [
            Fact("mix", "p", tuple(decode_column(row[2 * i], row[2 * i + 1]) for i in range(6)))
            for row in again.execute(f'SELECT {columns} FROM "{table.table_name}"')]
        assert list(table) == one_by_one
        assert typed(table) == typed(one_by_one)
        assert sorted(map(repr, table)) == sorted(map(repr, facts))
        assert sorted(typed(table)) == sorted(typed(facts))
        strings = [value for fact in table for value in fact.values if isinstance(value, str)]
        for a, b in itertools.combinations(strings, 2):
            assert (a is b) == (a == b)
        assert again.metrics["store", "rows_decoded"] == len(facts)
        again.close()

