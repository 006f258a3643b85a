"""StorageTable semantics parity: the sqlite backend must behave exactly
like the memory backend (which is the seed's dict/index table, extracted
verbatim) for every operation of the :class:`repro.store.StorageTable`
protocol — insertion, key replacement, type-strict matching, scans over
bound-argument subsets, zero-arity relations, and the metadata store."""

from __future__ import annotations

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import RelationKind, RelationSchema
from repro.store.backend import STORE_NAMESPACE, StoreError, resolve_backend
from repro.store.memory import MemoryBackend
from repro.store.sqlite import SqliteBackend


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    made = MemoryBackend() if request.param == "memory" else SqliteBackend()
    yield made
    made.close()


def _schema(name="r", columns=("a", "b"), key=()):
    return RelationSchema(name=name, peer="p", columns=tuple(columns),
                          kind=RelationKind.EXTENSIONAL, key=tuple(key))


class TestTableSemantics:
    def test_insert_iter_contains_len(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        inserted, displaced = table.insert((1, "x"))
        assert inserted == [(1, "x")] and displaced == []
        inserted, displaced = table.insert((1, "x"))
        assert inserted == [] and displaced == []  # duplicate is a no-op
        table.insert((2, b"\x00\xff"))
        table.insert((None, 2.5))
        assert len(table) == 3
        assert (1, "x") in table
        assert (2, b"\x00\xff") in table
        assert (None, 2.5) in table
        assert (3, "x") not in table
        assert sorted(table, key=repr) == sorted(
            [(1, "x"), (2, b"\x00\xff"), (None, 2.5)], key=repr)

    def test_type_strict_rows_and_probes(self, backend):
        """``True``, ``1`` and ``1.0`` are distinct rows (and probe keys),
        matching the hash indexes' type-aware keying."""
        table = backend.table(STORE_NAMESPACE, _schema(columns=("v",)))
        for value in (True, 1, 1.0):
            inserted, _ = table.insert((value,))
            assert inserted, value
        assert len(table) == 3
        assert [row for row in table.scan({0: True})] == [(True,)]
        only_int = list(table.scan({0: 1}))
        assert only_int == [(1,)] and type(only_int[0][0]) is int
        only_float = list(table.scan({0: 1.0}))
        assert only_float == [(1.0,)] and type(only_float[0][0]) is float

    def test_primary_key_replacement(self, backend):
        schema = _schema(columns=("id", "val"), key=("id",))
        table = backend.table(STORE_NAMESPACE, schema)
        table.insert((1, "old"))
        inserted, displaced = table.insert((1, "new"))
        assert inserted == [(1, "new")]
        assert displaced == [(1, "old")]
        assert list(table) == [(1, "new")]
        # Exact duplicate of the current row: no-op, nothing displaced.
        inserted, displaced = table.insert((1, "new"))
        assert inserted == [] and displaced == []

    def test_zero_arity(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema(name="flag", columns=()))
        assert len(table) == 0 and () not in table
        inserted, _ = table.insert(())
        assert inserted == [()]
        assert () in table and list(table) == [()]
        assert table.insert(()) == ([], [])
        assert table.delete(()) is True
        assert len(table) == 0

    def test_scan_bound_subsets(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema(columns=("a", "b", "c")))
        rows = [(i % 3, f"s{i % 2}", i) for i in range(12)]
        for row in rows:
            table.insert(row)
        assert sorted(table.scan({0: 1})) == sorted(r for r in rows if r[0] == 1)
        assert sorted(table.scan({0: 1, 1: "s0"})) == sorted(
            r for r in rows if r[0] == 1 and r[1] == "s0")
        assert list(table.scan({1: "nope"})) == []
        # A binding past the arity can never match.
        assert list(table.scan({7: 1})) == []

    def test_delete_and_clear(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        table.insert((1, "x"))
        table.insert((2, "y"))
        assert table.delete((1, "x")) is True
        assert table.delete((1, "x")) is False
        assert table.delete((9, "zz")) is False
        removed = table.clear()
        assert removed == [(2, "y")]
        assert len(table) == 0 and table.clear() == []

    def test_delete_many(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        for row in [(1, "x"), (2, "y"), (3, "z")]:
            table.insert(row)
        table.delete_many([(1, "x"), (3, "z")])
        assert list(table) == [(2, "y")]
        assert list(table.scan({1: "y"})) == [(2, "y")]

    def test_replace_writes_the_difference_with_typed_keys(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema(columns=("v", "w")))
        for row in [(1, "a"), (True, "a"), (2, "b")]:
            table.insert(row)
        list(table.scan({1: "a"}))                   # build an index first
        inserted, deleted = table.replace([(1, "a"), (1.0, "a"), (3, "c"), (3, "c")])
        # 1 stays; True leaves although 1 == True; 1.0 arrives although 1 == 1.0.
        assert sorted(inserted, key=repr) == [(1.0, "a"), (3, "c")]
        assert sorted(deleted, key=repr) == [(2, "b"), (True, "a")]
        assert [type(row[0]) for row in deleted if row[1] == "a"] == [bool]
        assert sorted(table, key=repr) == [(1, "a"), (1.0, "a"), (3, "c")]
        assert sorted(table.scan({1: "a"}), key=repr) == [(1, "a"), (1.0, "a")]
        assert list(table.scan({0: True})) == []
        assert table.replace([(1, "a"), (1.0, "a"), (3, "c")]) == ([], [])
        inserted, deleted = table.replace([])
        assert inserted == [] and sorted(deleted, key=repr) == [(1, "a"), (1.0, "a"), (3, "c")]
        assert len(table) == 0

    def test_replace_checks_arity_and_handles_zero_arity(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        with pytest.raises(SchemaError):
            table.replace([(1,)])
        flag = backend.table(STORE_NAMESPACE, _schema(name="flag", columns=()))
        assert flag.replace([()]) == ([()], [])
        assert flag.replace([()]) == ([], [])
        assert flag.replace([]) == ([], [()])
        assert len(flag) == 0

    def test_same_relation_two_namespaces(self, backend):
        """Store and derived tables of one relation are independent."""
        schema = _schema(name="dual", columns=("x",))
        store = backend.table("store", schema)
        derived = backend.table("derived", schema)
        store.insert((1,))
        derived.insert((2,))
        assert list(store) == [(1,)] and list(derived) == [(2,)]


class TestMetadata:
    def test_meta_round_trip_preserves_order(self, backend):
        for index in range(5):
            backend.save_meta("rule", f"rule-{index}", f"payload-{index}")
        assert backend.load_meta("rule") == [
            (f"rule-{index}", f"payload-{index}") for index in range(5)]
        assert backend.load_meta("other") == []

    def test_meta_overwrite_keeps_position(self, backend):
        backend.save_meta("rule", "a", "1")
        backend.save_meta("rule", "b", "2")
        backend.save_meta("rule", "a", "1-bis")
        assert backend.load_meta("rule") == [("a", "1-bis"), ("b", "2")]

    def test_meta_delete(self, backend):
        backend.save_meta("delegation", "d1", "x")
        backend.save_meta("delegation", "d2", "y")
        backend.delete_meta("delegation", "d1")
        backend.delete_meta("delegation", "missing")
        assert backend.load_meta("delegation") == [("d2", "y")]


class TestSqliteSpecifics:
    def test_stored_relations_catalog(self, tmp_path):
        path = tmp_path / "cat.db"
        backend = SqliteBackend(str(path))
        backend.table(STORE_NAMESPACE, _schema(name="edges"))
        backend.table(STORE_NAMESPACE, _schema(name="nodes", columns=("n",)))
        backend.commit()
        backend.close()
        reopened = SqliteBackend(str(path))
        assert reopened.stored_relations(STORE_NAMESPACE) == (
            ("edges", "p", 2), ("nodes", "p", 1))
        # Re-attaching with the stored arity works; a drifted one refuses.
        table = reopened.table(STORE_NAMESPACE, _schema(name="edges"))
        assert len(table) == 0
        with pytest.raises(StoreError):
            reopened.table(STORE_NAMESPACE, _schema(name="nodes", columns=("n", "m")))
        reopened.close()

    def test_abort_discards_uncommitted_work(self, tmp_path):
        path = tmp_path / "crash.db"
        backend = SqliteBackend(str(path))
        table = backend.table(STORE_NAMESPACE, _schema(name="t", columns=("x",)))
        table.insert((1,))
        backend.commit()
        table.insert((2,))
        backend.save_meta("rule", "r1", "uncommitted")
        backend.abort()
        assert backend.closed
        reopened = SqliteBackend(str(path))
        table = reopened.table(STORE_NAMESPACE, _schema(name="t", columns=("x",)))
        assert list(table) == [(1,)]
        assert reopened.load_meta("rule") == []
        reopened.close()

    def test_resolve_backend_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        assert isinstance(resolve_backend(None, peer="p"), MemoryBackend)
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        backend = resolve_backend(None, peer="p")
        assert isinstance(backend, SqliteBackend) and not backend.persistent
        backend.close()
        durable = resolve_backend("sqlite", peer="p",
                                  options={"path": str(tmp_path)})
        assert durable.persistent
        durable.close()
        assert (tmp_path / "p.db").exists()
