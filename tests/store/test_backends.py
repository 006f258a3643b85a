"""StorageTable semantics parity: the sqlite backend must behave exactly
like the memory backend for every operation of the
:class:`repro.store.StorageTable` protocol, which takes and returns facts —
insertion, key replacement, type-strict matching, scans over bound-argument
subsets, zero-arity relations, and the metadata store."""

from __future__ import annotations

import pytest

from repro.core.errors import SchemaError
from repro.core.facts import Fact
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


def _f(*values, name="r"):
    """A fact of ``name@p`` (the relation of the default schema)."""
    return Fact(name, "p", values)


def _rows(facts):
    """The value tuples of ``facts``, in their order."""
    return [fact.values for fact in facts]


class TestTableSemantics:
    def test_insert_iter_contains_len(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        inserted, displaced = table.insert(_f(1, "x"))
        assert inserted == [_f(1, "x")] and displaced == []
        inserted, displaced = table.insert(_f(1, "x"))
        assert inserted == [] and displaced == []  # duplicate is a no-op
        table.insert(_f(2, b"\x00\xff"))
        table.insert(_f(None, 2.5))
        assert len(table) == 3
        assert _f(1, "x") in table
        assert _f(2, b"\x00\xff") in table
        assert _f(None, 2.5) in table
        assert _f(3, "x") not in table
        assert sorted(_rows(table), key=repr) == sorted(
            [(1, "x"), (2, b"\x00\xff"), (None, 2.5)], key=repr)
        assert all(isinstance(fact, Fact) and fact.relation == "r" and fact.peer == "p"
                   for fact in table)

    def test_type_strict_rows_and_probes(self, backend):
        """``True``, ``1`` and ``1.0`` are distinct facts (and probe keys),
        matching the hash indexes' type-aware keying."""
        table = backend.table(STORE_NAMESPACE, _schema(columns=("v",)))
        for value in (True, 1, 1.0):
            inserted, _ = table.insert(_f(value))
            assert inserted, value
        assert len(table) == 3
        assert _rows(table.scan({0: True})) == [(True,)]
        only_int = _rows(table.scan({0: 1}))
        assert only_int == [(1,)] and type(only_int[0][0]) is int
        only_float = _rows(table.scan({0: 1.0}))
        assert only_float == [(1.0,)] and type(only_float[0][0]) is float

    def test_primary_key_replacement(self, backend):
        schema = _schema(columns=("id", "val"), key=("id",))
        table = backend.table(STORE_NAMESPACE, schema)
        table.insert(_f(1, "old"))
        inserted, displaced = table.insert(_f(1, "new"))
        assert inserted == [_f(1, "new")]
        assert displaced == [_f(1, "old")]
        assert _rows(table) == [(1, "new")]
        # Exact duplicate of the current fact: no-op, nothing displaced.
        inserted, displaced = table.insert(_f(1, "new"))
        assert inserted == [] and displaced == []

    def test_keys_true_one_and_one_point_oh_displace_only_their_own(self, backend):
        """A keyed insert displaces the stored fact with the same *typed*
        key and hands back that stored fact."""
        schema = _schema(columns=("id", "val"), key=("id",))
        table = backend.table(STORE_NAMESPACE, schema)
        keys = (1, True, 1.0)                    # equal in Python, three keys here
        first = [_f(key, f"old-{type(key).__name__}") for key in keys]
        for fact in first:
            assert table.insert(fact) == ([fact], [])
        assert len(table) == 3
        for key, old in zip(keys, first):
            newer = _f(key, f"new-{type(key).__name__}")
            inserted, displaced = table.insert(newer)
            assert inserted == [newer] and inserted[0] is newer
            assert displaced == [old]
            assert type(displaced[0].values[0]) is type(key)
            assert len(table) == 3
            if isinstance(backend, MemoryBackend):
                assert displaced[0] is old
        assert sorted(_rows(table), key=repr) == sorted(
            [(1, "new-int"), (True, "new-bool"), (1.0, "new-float")], key=repr)

    def test_zero_arity(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema(name="flag", columns=()))
        flag = _f(name="flag")
        assert len(table) == 0 and flag not in table
        inserted, _ = table.insert(flag)
        assert inserted == [flag]
        assert flag in table and _rows(table) == [()]
        assert table.insert(flag) == ([], [])
        assert table.delete(flag) == flag
        assert len(table) == 0

    def test_arity_is_checked(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        with pytest.raises(SchemaError):
            table.insert(_f(1))
        with pytest.raises(SchemaError):
            table.insert_many([_f(1, "x", "y")])
        assert len(table) == 0

    def test_scan_bound_subsets(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema(columns=("a", "b", "c")))
        rows = [(i % 3, f"s{i % 2}", i) for i in range(12)]
        for row in rows:
            table.insert(_f(*row))
        assert sorted(_rows(table.scan({0: 1}))) == sorted(r for r in rows if r[0] == 1)
        assert sorted(_rows(table.scan({0: 1, 1: "s0"}))) == sorted(
            r for r in rows if r[0] == 1 and r[1] == "s0")
        assert list(table.scan({1: "nope"})) == []
        # A binding past the arity can never match.
        assert list(table.scan({7: 1})) == []

    def test_delete_and_clear(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        table.insert(_f(1, "x"))
        table.insert(_f(2, "y"))
        assert table.delete(_f(1, "x")) == _f(1, "x")
        assert table.delete(_f(1, "x")) is None
        assert table.delete(_f(9, "zz")) is None
        removed = table.clear()
        assert removed == [_f(2, "y")]
        assert len(table) == 0 and table.clear() == []

    def test_replace_writes_the_difference_with_typed_keys(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema(columns=("v", "w")))
        for row in [(1, "a"), (True, "a"), (2, "b")]:
            table.insert(_f(*row))
        list(table.scan({1: "a"}))                   # build an index first
        inserted, deleted = table.replace(
            [_f(1, "a"), _f(1.0, "a"), _f(3, "c"), _f(3, "c")])
        # 1 stays; True leaves although 1 == True; 1.0 arrives although 1 == 1.0.
        assert sorted(_rows(inserted), key=repr) == [(1.0, "a"), (3, "c")]
        assert sorted(_rows(deleted), key=repr) == [(2, "b"), (True, "a")]
        assert [type(row[0]) for row in _rows(deleted) if row[1] == "a"] == [bool]
        assert sorted(_rows(table), key=repr) == [(1, "a"), (1.0, "a"), (3, "c")]
        assert sorted(_rows(table.scan({1: "a"})), key=repr) == [(1, "a"), (1.0, "a")]
        assert list(table.scan({0: True})) == []
        assert table.replace([_f(1, "a"), _f(1.0, "a"), _f(3, "c")]) == ([], [])
        inserted, deleted = table.replace([])
        assert inserted == [] and sorted(_rows(deleted), key=repr) == [
            (1, "a"), (1.0, "a"), (3, "c")]
        assert len(table) == 0

    def test_replace_checks_arity_and_handles_zero_arity(self, backend):
        table = backend.table(STORE_NAMESPACE, _schema())
        with pytest.raises(SchemaError):
            table.replace([_f(1)])
        flag = backend.table(STORE_NAMESPACE, _schema(name="flag", columns=()))
        unit = _f(name="flag")
        assert flag.replace([unit]) == ([unit], [])
        assert flag.replace([unit]) == ([], [])
        assert flag.replace([]) == ([], [unit])
        assert len(flag) == 0

    def test_integers_beyond_64_bits(self, backend):
        """The memory backend stores any int.  A SQLite column holds 64
        bits: a larger int is refused with a ``StoreError`` naming the
        relation and the value, before any row is written — a keyed row it
        would displace stays — and it is never found."""
        keyed = backend.table(STORE_NAMESPACE, _schema(columns=("k", "v"), key=("k",)))
        plain = backend.table(STORE_NAMESPACE, _schema(name="s", columns=("k", "v")))
        edges = [_f(1, 2 ** 63 - 1), _f(2, -2 ** 63)]
        keyed.insert_many(edges)
        big = _f(1, 2 ** 70)
        if backend.name == "memory":
            assert keyed.insert(big) == ([big], [edges[0]])
            assert big in keyed and _rows(keyed.scan({1: 2 ** 70})) == [(1, 2 ** 70)]
            assert plain.replace([_f(3, 2 ** 70, name="s")])[0] == [_f(3, 2 ** 70, name="s")]
            return
        writes = [lambda: keyed.insert(big),
                  lambda: keyed.insert_many([_f(3, 0), big]),
                  lambda: plain.insert_many([_f(3, 0, name="s"), _f(1, 2 ** 70, name="s")]),
                  lambda: plain.replace([_f(3, 0, name="s"), _f(1, 2 ** 70, name="s")])]
        for write in writes:
            with pytest.raises(StoreError, match=r"@p.*1180591620717411303424"):
                write()
        assert sorted(_rows(keyed)) == sorted(_rows(edges)) and len(plain) == 0
        assert big not in keyed and list(keyed.scan({1: 2 ** 70})) == []
        assert keyed.delete(big) is None

    def test_same_relation_two_namespaces(self, backend):
        """Store and derived tables of one relation are independent."""
        schema = _schema(name="dual", columns=("x",))
        store = backend.table("store", schema)
        derived = backend.table("derived", schema)
        store.insert(_f(1, name="dual"))
        derived.insert(_f(2, name="dual"))
        assert _rows(store) == [(1,)] and _rows(derived) == [(2,)]


class TestMemoryTableKeepsFacts:
    """The memory backend stores the fact objects it is handed."""

    def test_the_inserted_fact_is_the_stored_one(self):
        table = MemoryBackend().table(STORE_NAMESPACE, _schema(columns=("a", "b", "c")))
        facts = [_f(i % 3, f"s{i % 2}", i) for i in range(12)]
        inserted, _ = table.insert_many(facts)
        assert all(got is want for got, want in zip(inserted, facts))
        ids = {id(fact) for fact in facts}
        assert {id(fact) for fact in table.scan()} == ids
        assert {id(fact) for fact in table.scan({0: 1})} <= ids
        assert all(fact in facts for fact in table.scan({0: 1, 1: "s0"}))
        probe = next(table.scan({0: 2, 1: "s1", 2: 5}))
        assert probe is facts[5]
        # An equal fact inserted later is a no-op: the first object stays.
        assert table.insert(_f(2, "s1", 5)) == ([], [])
        assert next(table.scan({2: 5})) is facts[5]
        assert table.delete(_f(2, "s1", 5)) is facts[5]
        assert set(map(id, table.clear())) == ids - {id(facts[5])}

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
        table.insert(_f(1, name="t"))
        backend.commit()
        table.insert(_f(2, name="t"))
        backend.save_meta("rule", "r1", "uncommitted")
        backend.abort()
        assert backend.closed
        reopened = SqliteBackend(str(path))
        table = reopened.table(STORE_NAMESPACE, _schema(name="t", columns=("x",)))
        assert _rows(table) == [(1,)]
        assert reopened.load_meta("rule") == []
        reopened.close()

    def test_an_aborted_store_refuses_every_read_and_write(self, tmp_path):
        """After ``abort()`` a table serves nothing — not the fact of the
        aborted stage, not the committed one — and takes nothing: each use
        raises a ``StoreError`` naming the relation."""
        backend = SqliteBackend(str(tmp_path / "aborted.db"))
        table = backend.table(STORE_NAMESPACE, _schema(name="t", columns=("x",)))
        table.insert(_f(1, name="t"))
        backend.commit()
        table.insert(_f(2, name="t"))
        backend.abort()
        uses = {
            "scan": lambda: table.scan(),
            "bound scan": lambda: table.scan({0: 2}),
            "iteration": lambda: list(table),
            "len": lambda: len(table),
            "in": lambda: _f(2, name="t") in table,
            "insert": lambda: table.insert(_f(3, name="t")),
            "insert_many": lambda: table.insert_many([_f(3, name="t")]),
            "delete": lambda: table.delete(_f(1, name="t")),
            "replace": lambda: table.replace([_f(3, name="t")]),
            "clear": lambda: table.clear(),
        }
        for use, call in uses.items():
            with pytest.raises(StoreError, match=r"t@p"):
                call()
                pytest.fail(f"{use} answered after abort()")
        reopened = SqliteBackend(str(tmp_path / "aborted.db"))
        assert _rows(reopened.table(STORE_NAMESPACE, _schema(name="t", columns=("x",)))
                     ) == [(1,)]
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
