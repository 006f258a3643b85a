"""Relation schemas and the per-peer schema registry.

WebdamLog distinguishes two kinds of relations:

* **extensional** relations hold base facts; they are updated by explicit
  insertions/deletions and by facts received from other peers;
* **intensional** relations are defined by rules; their contents are
  recomputed at every stage of the engine and never stored durably.

The original Ruby prototype further distinguishes *persistent* relations
(facts survive across stages) from *scratch* ones (facts live one stage, like
Bud scratch collections); see :attr:`RelationSchema.persistent`.

A relation is identified by the pair ``(name, peer)`` — ``pictures@alice``
and ``pictures@bob`` are unrelated relations that merely share a name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Set, Tuple

from repro.core.errors import SchemaError


class RelationKind(enum.Enum):
    """Kind of a WebdamLog relation."""

    EXTENSIONAL = "extensional"
    INTENSIONAL = "intensional"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class RelationName:
    """Fully-qualified relation identifier ``name@peer``."""

    name: str
    peer: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.peer:
            raise SchemaError("peer name must be non-empty")

    def __str__(self) -> str:
        return f"{self.name}@{self.peer}"

    @classmethod
    def parse(cls, qualified: str) -> "RelationName":
        """Parse ``"pictures@alice"`` into a :class:`RelationName`."""
        if "@" not in qualified:
            raise SchemaError(f"relation identifier {qualified!r} must contain '@'")
        name, _, peer = qualified.partition("@")
        return cls(name=name, peer=peer)


@dataclass(frozen=True)
class RelationSchema:
    """Declaration of a relation: identity, arity, kind and column names.

    Parameters
    ----------
    name:
        Local relation name, e.g. ``"pictures"``.
    peer:
        Name of the peer that manages the relation, e.g. ``"alice"``.
    columns:
        Column names.  The arity of the relation is ``len(columns)``.
        Column names are only used for documentation and for the key
        declaration; positional access is the norm in rules.
    kind:
        :class:`RelationKind.EXTENSIONAL` or :class:`RelationKind.INTENSIONAL`.
    persistent:
        ``False`` for ``collection ... scratch``: a scratch extensional
        relation is emptied at the end of every stage, and facts remote peers
        provide to a scratch intensional one last the stage that reads them.
    key:
        Optional tuple of column names forming a primary key; insertions that
        collide on the key replace the previous fact (last-writer-wins), which
        is how the Ruby prototype models updatable collections.
    """

    name: str
    peer: str
    columns: Tuple[str, ...]
    kind: RelationKind = RelationKind.EXTENSIONAL
    persistent: bool = True
    key: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.peer:
            raise SchemaError("peer name must be non-empty")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(
                f"duplicate column names in declaration of {self.name}@{self.peer}"
            )
        for k in self.key:
            if k not in self.columns:
                raise SchemaError(
                    f"key column {k!r} of {self.name}@{self.peer} is not a declared column"
                )

    @property
    def arity(self) -> int:
        """Number of columns of the relation."""
        return len(self.columns)

    @property
    def qualified_name(self) -> str:
        """The string ``"name@peer"``."""
        return f"{self.name}@{self.peer}"

    def key_indexes(self) -> Tuple[int, ...]:
        """Positional indexes of the key columns (empty when no key declared)."""
        return tuple(self.columns.index(k) for k in self.key)

    def is_extensional(self) -> bool:
        """Return ``True`` for extensional (base-fact) relations."""
        return self.kind is RelationKind.EXTENSIONAL

    def is_intensional(self) -> bool:
        """Return ``True`` for intensional (derived) relations."""
        return self.kind is RelationKind.INTENSIONAL

    def __str__(self) -> str:
        kind = "extensional" if self.is_extensional() else "intensional"
        persistence = " persistent" if (self.is_extensional() and self.persistent) else ""
        cols = ", ".join(self.columns)
        return f"collection {kind}{persistence} {self.qualified_name}({cols})"


_NO_NAMES: FrozenSet[str] = frozenset()


class SchemaRegistry:
    """Registry of the relation schemas known to one peer.

    A peer knows the schemas of its own relations (declared locally or created
    implicitly when facts/delegations arrive) and may cache schemas of remote
    relations it has heard about.  The registry enforces arity consistency:
    re-declaring a relation with a different arity or kind raises
    :class:`~repro.core.errors.SchemaError`.
    """

    def __init__(self, schemas: Optional[Iterable[RelationSchema]] = None):
        # Keyed by the plain ``(name, peer)`` pair: a lookup builds no
        # validated RelationName.
        self._schemas: Dict[Tuple[str, str], RelationSchema] = {}
        #: ``(name, peer)`` of every scratch intensional relation, kept as
        #: declared so that a stage's end does not scan the schemas.
        self.scratch_intensional: Set[Tuple[str, str]] = set()
        #: ``(name, peer)`` of every scratch extensional relation, kept the
        #: same way: the end of a stage empties exactly these.
        self.scratch_extensional: Set[Tuple[str, str]] = set()
        # Qualified names of each peer's intensional relations.  A peer's
        # frozenset is replaced only when its membership changes, so a
        # reader may compare it by identity.
        self._intensional: Dict[str, FrozenSet[str]] = {}
        if schemas:
            for schema in schemas:
                self.declare(schema)

    def __len__(self) -> int:
        return len(self._schemas)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._schemas.values())

    def __contains__(self, key) -> bool:
        return self._coerce_key(key) in self._schemas

    @staticmethod
    def _coerce_key(key) -> Tuple[str, str]:
        if isinstance(key, str):
            key = RelationName.parse(key)
        elif isinstance(key, tuple) and len(key) == 2:
            key = RelationName(key[0], key[1])
        if isinstance(key, (RelationName, RelationSchema)):
            return key.name, key.peer
        raise SchemaError(f"cannot interpret {key!r} as a relation identifier")

    def declare(self, schema: RelationSchema, replace: bool = False) -> RelationSchema:
        """Register ``schema``.

        Re-declaring an identical schema is a no-op.  Re-declaring with a
        different arity or kind raises :class:`SchemaError` unless
        ``replace=True`` is passed.
        """
        key = (schema.name, schema.peer)
        existing = self._schemas.get(key)
        if existing is not None and not replace:
            if existing == schema:
                return existing
            if existing.arity != schema.arity or existing.kind != schema.kind:
                raise SchemaError(
                    f"conflicting re-declaration of {schema.qualified_name}: "
                    f"existing {existing.arity}-ary {existing.kind.value}, "
                    f"new {schema.arity}-ary {schema.kind.value}"
                )
            # Same arity/kind but e.g. different column names: keep the first.
            return existing
        self._schemas[key] = schema
        intensional = schema.is_intensional()
        self.scratch_intensional.discard(key)
        self.scratch_extensional.discard(key)
        if not schema.persistent:
            (self.scratch_intensional if intensional
             else self.scratch_extensional).add(key)
        names = self._intensional.get(schema.peer, _NO_NAMES)
        qualified = schema.qualified_name
        if intensional and qualified not in names:
            self._intensional[schema.peer] = names | {qualified}
        elif not intensional and qualified in names:
            self._intensional[schema.peer] = names - {qualified}
        return schema

    def declare_implicit(self, name: str, peer: str, arity: int,
                         kind: RelationKind = RelationKind.EXTENSIONAL) -> RelationSchema:
        """Declare a relation whose schema was not given explicitly.

        Used when a fact or delegation mentions a relation the peer has never
        heard of: WebdamLog peers "discover new relations" at run time, so the
        engine synthesises a schema with positional column names ``c0..cN``.
        """
        existing = self.get(name, peer)
        if existing is not None:
            if existing.arity != arity:
                raise SchemaError(
                    f"relation {name}@{peer} used with arity {arity} but declared "
                    f"with arity {existing.arity}"
                )
            return existing
        columns = tuple(f"c{i}" for i in range(arity))
        schema = RelationSchema(name=name, peer=peer, columns=columns, kind=kind)
        return self.declare(schema)

    def get(self, name: str, peer: str) -> Optional[RelationSchema]:
        """Return the schema of ``name@peer`` or ``None`` if unknown."""
        return self._schemas.get((name, peer))

    def lookup(self, key) -> RelationSchema:
        """Return the schema for ``key`` (string, tuple or RelationName); raise if unknown."""
        name, peer = self._coerce_key(key)
        schema = self._schemas.get((name, peer))
        if schema is None:
            raise SchemaError(f"unknown relation {name}@{peer}")
        return schema

    def intensional_at(self, peer: str) -> FrozenSet[str]:
        """The qualified names of ``peer``'s intensional relations (the same
        object until one is declared or re-declared with another kind)."""
        return self._intensional.get(peer, _NO_NAMES)


def declare(qualified: str, columns: Sequence[str], kind: str = "extensional",
            persistent: bool = True, key: Sequence[str] = ()) -> RelationSchema:
    """Convenience constructor: ``declare("pictures@alice", ["id", "name"])``."""
    rel = RelationName.parse(qualified)
    kind_enum = RelationKind(kind) if not isinstance(kind, RelationKind) else kind
    return RelationSchema(
        name=rel.name,
        peer=rel.peer,
        columns=tuple(columns),
        kind=kind_enum,
        persistent=persistent,
        key=tuple(key),
    )
