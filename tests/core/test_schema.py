"""Tests of relation schemas and the schema registry."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import (
    RelationKind,
    RelationName,
    RelationSchema,
    SchemaRegistry,
    declare,
)


class TestRelationName:
    def test_parse_qualified_name(self):
        rel = RelationName.parse("pictures@sigmod")
        assert rel.name == "pictures"
        assert rel.peer == "sigmod"
        assert str(rel) == "pictures@sigmod"

    def test_parse_requires_at(self):
        with pytest.raises(SchemaError):
            RelationName.parse("pictures")

    def test_empty_components_rejected(self):
        with pytest.raises(SchemaError):
            RelationName("", "sigmod")
        with pytest.raises(SchemaError):
            RelationName("pictures", "")


class TestRelationSchema:
    def test_basic_properties(self):
        schema = RelationSchema("pictures", "alice", ("id", "name", "owner", "data"))
        assert schema.arity == 4
        assert schema.qualified_name == "pictures@alice"
        assert schema.is_extensional()
        assert not schema.is_intensional()

    def test_intensional_kind(self):
        schema = RelationSchema("view", "alice", ("x",), kind=RelationKind.INTENSIONAL)
        assert schema.is_intensional()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", "p", ("a", "a"))

    def test_key_columns_must_exist(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", "p", ("a", "b"), key=("c",))

    def test_key_indexes(self):
        schema = RelationSchema("r", "p", ("a", "b", "c"), key=("c", "a"))
        assert schema.key_indexes() == (2, 0)

    def test_str_rendering(self):
        schema = RelationSchema("friends", "bob", ("user", "friend"))
        assert "friends@bob(user, friend)" in str(schema)
        assert "extensional" in str(schema)

    def test_declare_helper(self):
        schema = declare("rate@alice", ["id", "rating"], kind="intensional")
        assert schema.kind is RelationKind.INTENSIONAL
        assert schema.peer == "alice"


class TestSchemaRegistry:
    def test_declare_and_get(self):
        registry = SchemaRegistry()
        schema = RelationSchema("pictures", "alice", ("id", "name"))
        registry.declare(schema)
        assert registry.get("pictures", "alice") == schema
        assert registry.get("pictures", "bob") is None
        assert "pictures@alice" in registry

    def test_redeclare_identical_is_noop(self):
        registry = SchemaRegistry()
        schema = RelationSchema("r", "p", ("a",))
        registry.declare(schema)
        registry.declare(RelationSchema("r", "p", ("a",)))
        assert len(registry) == 1

    def test_conflicting_arity_rejected(self):
        registry = SchemaRegistry()
        registry.declare(RelationSchema("r", "p", ("a",)))
        with pytest.raises(SchemaError):
            registry.declare(RelationSchema("r", "p", ("a", "b")))

    def test_conflicting_kind_rejected(self):
        registry = SchemaRegistry()
        registry.declare(RelationSchema("r", "p", ("a",)))
        with pytest.raises(SchemaError):
            registry.declare(RelationSchema("r", "p", ("a",), kind=RelationKind.INTENSIONAL))

    def test_replace_allows_conflicts(self):
        registry = SchemaRegistry()
        registry.declare(RelationSchema("r", "p", ("a",)))
        replaced = RelationSchema("r", "p", ("a", "b"))
        registry.declare(replaced, replace=True)
        assert registry.get("r", "p").arity == 2

    def test_declare_implicit_creates_positional_columns(self):
        registry = SchemaRegistry()
        schema = registry.declare_implicit("seen", "alice", 3)
        assert schema.columns == ("c0", "c1", "c2")
        assert schema.is_extensional()

    def test_declare_implicit_checks_arity(self):
        registry = SchemaRegistry()
        registry.declare(RelationSchema("r", "p", ("a", "b")))
        with pytest.raises(SchemaError):
            registry.declare_implicit("r", "p", 3)

    def test_lookup_unknown_raises(self):
        registry = SchemaRegistry()
        with pytest.raises(SchemaError):
            registry.lookup("nope@p")

    def test_extensional_and_intensional_partitions(self):
        registry = SchemaRegistry([
            RelationSchema("base", "p", ("a",)),
            RelationSchema("view", "p", ("a",), kind=RelationKind.INTENSIONAL),
            RelationSchema("view", "q", ("a",), kind=RelationKind.INTENSIONAL),
        ])
        assert registry.intensional_at("p") == {"view@p"}
        assert registry.intensional_at("q") == {"view@q"}
        assert registry.intensional_at("r") == frozenset()
