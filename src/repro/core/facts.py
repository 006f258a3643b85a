"""Facts, fact stores and deltas.

A WebdamLog *fact* is an expression ``m@p(a1, ..., an)`` where ``m@p`` names
a relation managed at peer ``p`` and ``a1..an`` are data values.  Facts are
immutable and hashable so that sets of facts can be manipulated cheaply.

:class:`FactStore` is the per-peer storage layer: one table per relation,
with support for insertions, deletions, primary-key replacement and delta
tracking (the engine's seminaive evaluation and the runtime's message
accounting both consume deltas).  The tables themselves live in a pluggable
:class:`~repro.store.backend.StorageBackend` — hash-indexed Python sets by
default (:mod:`repro.store.memory`), or durable SQLite tables
(:mod:`repro.store.sqlite`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Collection, Dict, FrozenSet, Iterable,
                    Iterator, List, Optional, Sequence, Set, Tuple)

from repro.core.errors import SchemaError
from repro.core.schema import RelationKind, RelationName, SchemaRegistry
from repro.core.terms import ConstantValue, render_constant

if TYPE_CHECKING:
    from repro.store.backend import StorageTable


#: The payload types that compare equal to another type's values: ``True ==
#: 1`` and ``1.0 == 1``.  ``None``, ``int``, ``str`` and ``bytes`` values
#: never equal a value of another type, so they need no tag.
_TAGGED = frozenset({bool, float})


def typed_value(value: ConstantValue):
    """``value`` under type-strict equality, usable as a dict key.

    A ``bool`` or a ``float`` becomes a ``(type, value)`` pair, anything else
    stays itself: ``typed_value(1)``, ``typed_value(True)`` and
    ``typed_value(1.0)`` are three different keys, as are ``"1"`` and
    ``b"1"``.  The one definition of type-strict identity: fact equality, the
    memory tables' keys and probes, and every group or distinct count keyed
    by values use it.
    """
    cls = value.__class__
    return (cls, value) if cls in _TAGGED else value


def typed_values(values: Iterable[ConstantValue]) -> Tuple:
    """:func:`typed_value` of each of ``values``, as a tuple (the tuple
    itself when none is tagged)."""
    if values.__class__ is not tuple:
        values = tuple(values)
    if _TAGGED.isdisjoint(map(type, values)):
        return values
    return tuple(map(typed_value, values))


class Fact:
    """A ground fact ``relation@peer(values...)``.

    ``values`` holds plain Python values (not :class:`Constant` wrappers) so
    that facts are cheap to build from wrappers, workload generators and the
    storage layer; matching compares them as they are
    (:class:`repro.core.unification.CompiledAtom`).

    Equality is *type-strict*, matching :class:`Constant` and the storage
    row keys: ``r@p(1)``, ``r@p(True)`` and ``r@p(1.0)`` are three different
    facts even though the payloads compare ``==`` in Python — otherwise they
    would collide in delta sets while the stores keep them distinct.  What
    equality compares besides the relation and the peer is ``_key``, the
    :func:`typed_values` of the payload: the values themselves unless one
    of them is a ``bool`` or a ``float``.  The hash leaves the types out: a
    type object hashes by its address, so hashing them would order every
    set of facts differently in every process, whatever ``PYTHONHASHSEED``
    says.

    Facts are immutable (assignment raises).  The class is slotted and keeps
    its hash, so the set algebra every stage runs never re-hashes the
    values, and its rendering, so sorting a relation by ``str`` renders each
    stored fact once.
    """

    __slots__ = ("relation", "peer", "values", "_key", "_hash", "_str")

    def __init__(self, relation: str, peer: str,
                 values: Iterable[ConstantValue]):
        if not relation or not peer:
            raise SchemaError("fact must name a relation and a peer")
        if values.__class__ is not tuple:
            values = tuple(values)
        _set_relation(self, relation)
        _set_peer(self, peer)
        _set_values(self, values)
        # typed_values(values), inlined: a call costs a twentieth of a build.
        _set_key(self, values if _TAGGED.isdisjoint(map(type, values))
                 else tuple(map(typed_value, values)))
        _set_hash(self, hash((relation, peer, values)))
        _set_str(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Fact")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Fact")

    def __reduce__(self):
        # Rebuild from the public fields: the cached hash depends on the
        # receiving process's string hashing.
        return (Fact, (self.relation, self.peer, self.values))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Fact:
            return NotImplemented
        return (self._key == other._key and self.relation == other.relation
                and self.peer == other.peer)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"Fact(relation={self.relation!r}, peer={self.peer!r}, "
                f"values={self.values!r})")

    @property
    def arity(self) -> int:
        """Number of values in the fact."""
        return len(self.values)

    @property
    def relation_name(self) -> RelationName:
        """Fully-qualified relation identifier of the fact."""
        return RelationName(self.relation, self.peer)

    @property
    def qualified_relation(self) -> str:
        """The string ``"relation@peer"``."""
        return f"{self.relation}@{self.peer}"

    def __str__(self) -> str:
        rendered = self._str
        if rendered is None:
            values = ", ".join(map(render_constant, self.values))
            rendered = f"{self.relation}@{self.peer}({values})"
            _set_str(self, rendered)
        return rendered

    @classmethod
    def of(cls, qualified: str, *values: ConstantValue) -> "Fact":
        """Build a fact from a qualified relation name: ``Fact.of("r@p", 1, "x")``."""
        rel = RelationName.parse(qualified)
        return cls(rel.name, rel.peer, tuple(values))


# The slot setters: ``__setattr__`` refuses assignment, and a stage builds
# facts by the thousand — going through the slot descriptors is a third
# cheaper than ``object.__setattr__`` with a name lookup per field.
_set_relation = Fact.relation.__set__
_set_peer = Fact.peer.__set__
_set_values = Fact.values.__set__
_set_key = Fact._key.__set__
_set_hash = Fact._hash.__set__
_set_str = Fact._str.__set__

#: What ``Fact`` equality compares, read without a Python-level call: a set
#: of these answers a membership probe without ``Fact.__hash__`` /
#: ``Fact.__eq__`` frames, for passes over a whole relation.
fact_identity = attrgetter("relation", "peer", "_key")


def fact_matches_bindings(fact: Fact, bindings: Dict[int, ConstantValue]) -> bool:
    """``True`` when every bound position matches the fact's value exactly.

    Type-strict, mirroring :class:`~repro.core.terms.Constant` equality and
    the hash-index keys (``True`` stays distinct from ``1``); a bound
    position beyond the fact's arity never matches.  This is the one
    definition of positional matching: an indexed store's probe answers
    exactly the facts it accepts.
    """
    values = fact.values
    return all(position < len(values)
               and type(values[position]) is type(value)
               and values[position] == value
               for position, value in bindings.items())


@dataclass(frozen=True)
class Delta:
    """A set of insertions and deletions produced by one operation or one stage."""

    inserted: FrozenSet[Fact] = frozenset()
    deleted: FrozenSet[Fact] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.inserted) or bool(self.deleted)

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def merge(self, other: "Delta") -> "Delta":
        """Combine two deltas, ``other`` after ``self``.

        The later delta wins for a fact both name: inserted then deleted
        comes out deleted, deleted then inserted comes out inserted.  Nothing
        cancels out.
        """
        if not other:
            return self
        if not self:
            return other
        inserted = (set(self.inserted) | set(other.inserted)) - set(other.deleted)
        deleted = (set(self.deleted) | set(other.deleted)) - set(other.inserted)
        return Delta(frozenset(inserted), frozenset(deleted))

    @classmethod
    def insertion(cls, facts: Iterable[Fact]) -> "Delta":
        """Delta consisting only of insertions."""
        inserted = frozenset(facts)
        return cls(inserted=inserted) if inserted else _EMPTY_DELTA

    @classmethod
    def deletion(cls, facts: Iterable[Fact]) -> "Delta":
        """Delta consisting only of deletions."""
        deleted = frozenset(facts)
        return cls(deleted=deleted) if deleted else _EMPTY_DELTA

    @classmethod
    def empty(cls) -> "Delta":
        """The empty delta: one shared instance (a delta is immutable)."""
        return _EMPTY_DELTA


_EMPTY_DELTA = Delta()


#: The least number of facts a change feed holds before it gives up (see
#: :class:`ChangeFeed`).
FEED_FLOOR = 64


class ChangeFeed(set):
    """The facts of one relation that the stores wrote since its reader
    last drained the feed: each insert and each removal adds its fact, at
    the write (:meth:`FactStore._record`), whichever of a peer's stores made
    it — so a read between ``insert()`` and the next stage sees the change.

    A reader keeps what it read of the relation (a sorted snapshot, an
    aggregate view's group rows) and patches it with these facts
    (:func:`patch_sorted`).  A patch beats reading the relation again only
    while the feed is small next to what the reader keeps, so the feed holds
    at most ``bound`` facts — as many as the reader kept when it last
    drained it (:meth:`drain`), :data:`FEED_FLOOR` at least.  Past that it
    holds ``None`` as well and its reader reads the relation again; a reader
    that stopped reading pins no more facts than it already keeps.
    ``forget``, when set, drops what the reader keeps; the peer calls it
    when its process dies (:meth:`repro.core.state.PeerState.forget_reads`).
    """

    __slots__ = ("forget", "bound")

    def __init__(self, forget: Optional[Callable[[], None]] = None):
        super().__init__()
        self.forget = forget
        self.bound = FEED_FLOOR

    def drain(self, kept: int) -> None:
        """Empty the feed: its reader is up to date and keeps ``kept`` facts."""
        self.clear()
        self.bound = max(FEED_FLOOR, kept)


class ChangeFeeds(dict):
    """The change feeds of whoever reads a set of relations, by ``(relation,
    peer)``: a peer's three stores share one (:class:`FactStore`), and a
    provenance graph keeps one for the facts whose lineage moved."""

    def watch(self, relation: str, peer: str,
              forget: Optional[Callable[[], None]] = None) -> ChangeFeed:
        """A new feed of ``relation@peer``: every fact of it noted from now
        on is added to it."""
        feed = ChangeFeed(forget)
        self.setdefault((relation, peer), []).append(feed)
        return feed

    def unwatch(self, relation: str, peer: str, feed: ChangeFeed) -> None:
        """Stop filling ``feed``, a feed :meth:`watch` returned."""
        key = (relation, peer)
        kept = [other for other in self.get(key, ()) if other is not feed]
        if kept:
            self[key] = kept
        else:
            self.pop(key, None)

    def note(self, facts: Iterable[Fact]) -> None:
        """Add each fact to the feeds of its relation."""
        for fact in facts:
            readers = self.get((fact.relation, fact.peer))
            if readers is not None:
                for feed in readers:
                    feed.add(fact if len(feed) < feed.bound else None)

    def overflow(self) -> None:
        """Tell every reader to read again: each feed holds ``None``."""
        for feeds in self.values():
            for feed in feeds:
                feed.add(None)


def _renderings(fact: Fact) -> Tuple[str, ...]:
    """The renderings of the facts equal to ``fact``.

    Equal values render alike but for one pair: ``0.0 == -0.0``, which render
    apart.  So a fact with float zeros has one rendering per choice of their
    signs, its own among them.
    """
    values = fact.values
    if 0.0 not in values:
        return (str(fact),)
    zeros = [position for position, value in enumerate(values)
             if value.__class__ is float and value == 0.0]
    renderings = []
    for signs in product((0.0, -0.0), repeat=len(zeros)):
        variant = list(values)
        for position, sign in zip(zeros, signs):
            variant[position] = sign
        renderings.append(str(Fact(fact.relation, fact.peer, variant)))
    return tuple(renderings)


def patch_sorted(ordered: Sequence[Fact], changed: Iterable[Fact],
                 held: Callable[[Fact], Iterable[Fact]]) -> List[Fact]:
    """``ordered`` with its entries equal to each of the ``changed`` facts
    replaced by ``held(fact)``, in the same order.

    ``ordered`` is sorted by rendering and holds a fact once per source that
    holds it, as ``sorted(fact_view, key=str)`` does; ``held(fact)`` is each
    source's own object equal to ``fact``.  The objects of one fact need not
    render alike (a ``-0.0`` beside a ``0.0``), so each goes where its own
    rendering sorts, and the entries dropped are those equal to a changed
    fact under any of its renderings.  Each rendering's run is found by
    bisection; the runs between are copied whole, so a patch costs a copy of
    the list plus a bisection per rendering, whatever order the stores keep
    their facts in.
    """
    runs: Dict[str, List[Fact]] = {}
    for fact in changed:
        for rendering in _renderings(fact):
            runs.setdefault(rendering, [])
        for kept in held(fact):
            runs[str(kept)].append(kept)
    patched: List[Fact] = []
    at, end = 0, len(ordered)
    for rendering in sorted(runs):
        start = stop = bisect_left(ordered, rendering, at, key=str)
        while stop < end and str(ordered[stop]) == rendering:
            stop += 1
        patched += ordered[at:start]
        patched += runs[rendering]
        at = stop
    patched += ordered[at:]
    return patched


def _fold(inserted: Set[Fact], deleted: Set[Fact], step: Delta) -> None:
    """Fold one step into running sets, as :meth:`Delta.merge` would: for a
    fact the sets already name, the step's insert or delete wins."""
    inserted |= step.inserted
    inserted -= step.deleted
    deleted |= step.deleted
    deleted -= step.inserted


class FactStore:
    """Per-peer fact storage: one backend table per relation.

    The store tracks a *pending delta* accumulating every change since the
    last call to :meth:`take_delta`; the engine uses this to compute which
    updates must be pushed to remote peers and to drive seminaive evaluation.

    ``backend``/``namespace`` select where the tables physically live: each
    peer uses one backend with two namespaces (``"store"`` for extensional
    facts, ``"derived"`` for intensional ones).  Without an explicit backend
    a private in-memory one is created, preserving the historical behaviour.
    On a durable backend that already holds tables for this namespace (a
    reopened peer), the tables are re-attached — and their facts become
    visible — before any new write happens.

    The store wraps nothing: its tables take and hand back :class:`Fact`
    objects, so what a delta, a scan or a snapshot holds is what the table
    holds (on the memory backend, the very objects that were inserted).

    ``feeds`` holds the change feeds (:class:`ChangeFeed`) of the
    relations somebody reads; every recorded change of one is added to each
    of its feeds.  A peer's three stores share one.
    """

    def __init__(self, schemas: Optional[SchemaRegistry] = None, owner: Optional[str] = None,
                 backend=None, namespace: str = "store",
                 feeds: Optional[ChangeFeeds] = None):
        self.schemas = schemas if schemas is not None else SchemaRegistry()
        self.owner = owner
        if backend is None:
            # Imported here: the storage backends import Fact from this module.
            from repro.store.memory import MemoryBackend
            backend = MemoryBackend()
        self.backend = backend
        self.namespace = namespace
        self._tables: Dict[Tuple[str, str], StorageTable] = {}
        self._pending_inserted: Set[Fact] = set()
        self._pending_deleted: Set[Fact] = set()
        self._feeds = feeds if feeds is not None else ChangeFeeds()
        default_kind = (RelationKind.INTENSIONAL if namespace == "derived"
                        else RelationKind.EXTENSIONAL)
        for relation, peer, arity in self.backend.stored_relations(namespace):
            schema = self.schemas.get(relation, peer)
            if schema is None:
                schema = self.schemas.declare_implicit(relation, peer, arity,
                                                       kind=default_kind)
            self._tables[(relation, peer)] = self.backend.table(
                namespace, schema)

    # ------------------------------------------------------------------ #
    # table management
    # ------------------------------------------------------------------ #

    def _table(self, relation: str, peer: str, arity: Optional[int] = None,
               create: bool = True):
        key = (relation, peer)
        table = self._tables.get(key)
        if table is not None or not create:
            # A read never makes a table: every stored one was attached
            # when the store opened.
            return table
        schema = self.schemas.get(relation, peer)
        if schema is None:
            if arity is None:
                return None
            schema = self.schemas.declare_implicit(relation, peer, arity)
        table = self.backend.table(self.namespace, schema)
        self._tables[key] = table
        return table

    def relations(self) -> Tuple[RelationName, ...]:
        """Identifiers of every relation that has a table (possibly empty)."""
        return tuple(sorted((RelationName(name, peer) for name, peer in self._tables),
                            key=str))

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert(self, fact: Fact) -> Delta:
        """Insert ``fact``; returns the resulting delta (empty if already present)."""
        table = self._table(fact.relation, fact.peer, fact.arity)
        inserted, deleted = table.insert(fact)
        self._record(inserted, deleted)
        return Delta(frozenset(inserted), frozenset(deleted))

    def insert_many(self, facts: Iterable[Fact]) -> Delta:
        """Insert several facts; returns the merged delta.

        Facts are grouped per relation and handed to the table's batched
        insert path when the relation has no primary key (the common bulk-load
        shape), so SQL backends run one ``executemany`` per relation instead
        of one statement per fact.  Keyed relations keep the per-fact path:
        last-writer-wins replacement makes intra-batch order observable, and
        the delta/pending bookkeeping must see each step.  Semantics are
        identical to a sequence of :meth:`insert` calls either way.
        """
        inserted: Set[Fact] = set()
        deleted: Set[Fact] = set()
        grouped: Dict[Tuple[str, str], List[Fact]] = {}
        for fact in facts:
            grouped.setdefault((fact.relation, fact.peer), []).append(fact)
        for (relation, peer), group in grouped.items():
            table = self._table(relation, peer, group[0].arity)
            if not table.schema.key_indexes():
                batch, _ = table.insert_many(group)
                self._record(batch, ())
                inserted.update(batch)
                continue
            for fact in group:
                _fold(inserted, deleted, self.insert(fact))
        return Delta(frozenset(inserted), frozenset(deleted))

    def delete(self, fact: Fact) -> Delta:
        """Delete ``fact``; returns the resulting delta (empty if absent)."""
        table = self._table(fact.relation, fact.peer, fact.arity, create=False)
        removed = None if table is None else table.delete(fact)
        if removed is None:
            return Delta.empty()
        self._record((), (removed,))
        return Delta.deletion((removed,))

    def delete_many(self, facts: Iterable[Fact]) -> Delta:
        """Delete several facts; returns the merged delta."""
        deleted = {fact for fact in facts if self.delete(fact)}
        return Delta.deletion(deleted)

    def apply(self, delta: Delta) -> Delta:
        """Apply a delta (deletions first, then insertions); returns the effective delta."""
        inserted: Set[Fact] = set()
        deleted: Set[Fact] = set()
        for fact in delta.deleted:
            _fold(inserted, deleted, self.delete(fact))
        for fact in delta.inserted:
            _fold(inserted, deleted, self.insert(fact))
        return Delta(frozenset(inserted), frozenset(deleted))

    def replace_relation(self, relation: str, peer: str, rows: Iterable[Fact]) -> Delta:
        """Make ``relation@peer`` hold exactly ``rows``; returns the delta.

        Writes only the difference, in one batch each way: the pending
        delta and the change feeds see exactly the facts that leave or
        arrive, as if the relation had been cleared and ``rows`` inserted.
        A stored fact equal to an arriving one stays stored.  Only for
        relations without a primary key (displacement makes insertion order
        observable).
        """
        rows = list(rows)
        table = self._table(relation, peer, rows[0].arity if rows else None)
        if table is None:
            return Delta.empty()
        if table.schema.key_indexes():
            raise SchemaError(f"cannot replace keyed relation {table.schema.qualified_name}")
        inserted, deleted = table.replace(rows)
        self._record(inserted, deleted)
        return Delta(frozenset(inserted), frozenset(deleted))

    def clear_relation(self, relation: str, peer: str) -> Delta:
        """Remove every fact of ``relation@peer``."""
        table = self._table(relation, peer, create=False)
        if table is None:
            return Delta.empty()
        removed = table.clear()
        self._record((), removed)
        return Delta.deletion(removed)

    def clear_nonpersistent(self) -> Delta:
        """Remove facts of non-persistent extensional relations (end-of-stage
        semantics): the registry's scratch set names them, no table scan."""
        total = Delta.empty()
        for name, peer in self.schemas.scratch_extensional:
            table = self._tables.get((name, peer))
            if table is not None and len(table):
                total = total.merge(self.clear_relation(name, peer))
        return total

    def _record(self, inserted: Collection[Fact], deleted: Collection[Fact]) -> None:
        if self._feeds:
            self._feeds.note(deleted)
            self._feeds.note(inserted)
        for fact in deleted:
            if fact in self._pending_inserted:
                self._pending_inserted.discard(fact)
            else:
                self._pending_deleted.add(fact)
        for fact in inserted:
            if fact in self._pending_deleted:
                self._pending_deleted.discard(fact)
            else:
                self._pending_inserted.add(fact)

    def take_delta(self) -> Delta:
        """Return and reset the delta accumulated since the previous call."""
        delta = self.peek_delta()
        if delta:
            self._pending_inserted = set()
            self._pending_deleted = set()
        return delta

    def peek_delta(self) -> Delta:
        """Return the accumulated delta without resetting it (the shared
        :meth:`Delta.empty` when nothing is pending)."""
        if not (self._pending_inserted or self._pending_deleted):
            return _EMPTY_DELTA
        return Delta(frozenset(self._pending_inserted), frozenset(self._pending_deleted))

    def has_pending_changes(self) -> bool:
        """``True`` when changes accumulated since the last :meth:`take_delta`."""
        return bool(self._pending_inserted or self._pending_deleted)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def contains(self, fact: Fact) -> bool:
        """Return ``True`` if ``fact`` is currently stored."""
        table = self._table(fact.relation, fact.peer, create=False)
        return table is not None and fact in table

    def get(self, fact: Fact) -> Optional[Fact]:
        """The stored fact equal to ``fact``, or ``None``: the object a scan
        yields, which may render differently (``-0.0`` for ``0.0``)."""
        table = self._table(fact.relation, fact.peer, create=False)
        return None if table is None else table.get(fact)

    def count(self, relation: str, peer: str) -> int:
        """Number of facts currently stored in ``relation@peer``."""
        table = self._table(relation, peer, create=False)
        return len(table) if table is not None else 0

    def total_facts(self) -> int:
        """Total number of facts across all relations."""
        return sum(len(table) for table in self._tables.values())

    def facts(self, relation: str, peer: str,
              bindings: Optional[Dict[int, ConstantValue]] = None) -> Iterator[Fact]:
        """Iterate over the stored facts of ``relation@peer`` matching
        positional ``bindings``."""
        table = self._table(relation, peer, create=False)
        if table is None:
            return iter(())
        return table.scan(bindings)

    def all_facts(self) -> Iterator[Fact]:
        """Iterate over every stored fact."""
        for table in self._tables.values():
            yield from table

    def relation_snapshot(self, relation: str, peer: str) -> FrozenSet[Fact]:
        """Frozen snapshot of ``relation@peer``."""
        return frozenset(self.facts(relation, peer))

    def snapshot(self) -> FrozenSet[Fact]:
        """Frozen snapshot of the whole store."""
        return frozenset(self.all_facts())
