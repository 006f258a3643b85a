"""Per-peer state of the WebdamLog engine.

A peer's state consists of

* the **schemas** it knows about,
* its **extensional store** (base facts of relations located at the peer),
* the **derived store** of intensional facts computed by the last stage,
* the **provided facts** received from remote peers for *intensional* local
  relations — a volatile third :class:`FactStore` on a private memory
  backend: they persist until the sender retracts them (or, for a relation
  declared ``scratch``, for a single stage) but never outlive the process,
* the peer's **own rules**,
* the delegation **templates** held at the peer, one per shape, and the
  **bindings** remote delegators installed, one fact of a template's binding
  relation per delegation, in a fourth store on the same backend
  (:mod:`repro.core.delegation`).

The state also exposes the *fact view* used by the evaluator: the union of
the stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core import codec
from repro.core.delegation import (BINDING_PREFIX, SENT_TEMPLATE, DelegationDiff,
                                   DelegationStore, DelegationTracker, InstalledDelegation,
                                   binding_relation, delegation_id, is_binding, shape_of,
                                   stands_for)
from repro.core.errors import SchemaError
from repro.core.facts import ChangeFeed, ChangeFeeds, Delta, Fact, FactStore, patch_sorted
from repro.core.rules import Rule
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry
from repro.store.backend import DERIVED_NAMESPACE, STORE_NAMESPACE
from repro.store.memory import MemoryBackend


#: The metadata record (kind, key) present while the file holds a fixpoint.
_MARKER = ("stage", "fixpoint")
#: The table namespaces of the bindings installed at a peer and of those it
#: has out, with the records of the templates it sent (the latter kept on a
#: persistent backend only).
BINDING_NAMESPACE = "bound"
DELEGATED_NAMESPACE = "delegated"


def _record(encoded) -> str:
    """A metadata record as stored: the canonical JSON of its codec encoding."""
    return json.dumps(encoded, sort_keys=True)


@dataclass
class PendingInput:
    """Inputs received since the previous stage, waiting to be consumed by the next one."""

    inserted_facts: List[Tuple[str, Fact]] = field(default_factory=list)
    deleted_facts: List[Tuple[str, Fact]] = field(default_factory=list)
    #: Facts their senders' rules no longer derive (a deletion for a local
    #: intensional relation only, decided when the stage consumes them).
    withdrawn_facts: List[Tuple[str, Fact]] = field(default_factory=list)
    #: Delegation inputs in arrival order: ``("activate", shape, rule,
    #: sender, whole)`` puts a template in the program, ``("bind", binding)``
    #: / ``("unbind", binding)`` insert and delete a binding, ``("retire",
    #: shape)`` drops a template with its bindings.
    delegations: List[Tuple] = field(default_factory=list)

    def is_empty(self) -> bool:
        """``True`` when nothing is waiting."""
        return not self.size()

    def clear(self) -> None:
        """Drop every pending input."""
        self.inserted_facts.clear()
        self.deleted_facts.clear()
        self.withdrawn_facts.clear()
        self.delegations.clear()

    def size(self) -> int:
        """Total number of pending items."""
        return (len(self.inserted_facts) + len(self.deleted_facts) + len(self.withdrawn_facts)
                + len(self.delegations))


class PeerState:
    """Mutable state of one WebdamLog peer.

    When constructed over a durable backend that already holds data (a
    database file from a previous run), the state **restores itself**:
    persisted schemas are re-declared, fact tables re-attached, own rules
    re-added and installed delegations re-installed — all before the first
    stage runs.  ``restored`` reports whether anything was recovered.
    """

    def __init__(self, peer: str, schemas: Optional[SchemaRegistry] = None,
                 backend=None):
        self.peer = peer
        self.schemas = schemas if schemas is not None else SchemaRegistry()
        self.backend = backend if backend is not None else MemoryBackend()
        # Schemas must be back before the fact stores attach their tables.
        persisted_schemas = self.backend.load_meta("schema")
        for _key, payload in persisted_schemas:
            self.schemas.declare(codec.decode_schema(json.loads(payload)))
        # The change feeds of the relations somebody keeps a read of, shared
        # by the three stores: each write adds its facts to them.
        self._feeds = ChangeFeeds()
        self.store = FactStore(self.schemas, owner=peer, backend=self.backend,
                               namespace=STORE_NAMESPACE, feeds=self._feeds)
        self.derived = FactStore(self.schemas, owner=peer, backend=self.backend,
                                 namespace=DERIVED_NAMESPACE, feeds=self._feeds)
        # Facts remote peers derive for local intensional relations: a third
        # store on private schemas and a private memory backend, so never
        # persisted and unkeyed (two senders' key-colliding facts never
        # displace each other).  Beside it, who provides each: a fact is
        # visible while one sender still derives it.
        self.provided = FactStore(owner=peer, feeds=self._feeds)
        self._provided_senders: Dict[Fact, Set[str]] = {}
        # The relation snapshots :meth:`query` answers from, each with the
        # feed it is patched from.
        self._snapshots: Dict[Tuple[str, str],
                              Tuple[ChangeFeed, Tuple[Fact, ...]]] = {}
        # A process that dies frees what it kept for its readers: an aborted
        # backend (simulated process death) must not leave those facts alive
        # until a garbage collection finds this state.
        on_abort = getattr(self.backend, "on_abort", None)
        if on_abort is not None:
            on_abort(self.forget_reads)
        # The bindings installed here: on private schemas (a binding relation
        # is no relation of the peer's), read through the fact view.
        self.bindings = FactStore(SchemaRegistry(), owner=peer, backend=self.backend,
                                  namespace=BINDING_NAMESPACE)
        self.own_rules: List[Rule] = []
        self.delegations_in = DelegationStore(peer)
        persisted_rules = self.backend.load_meta("rule")
        for _key, payload in persisted_rules:
            self.own_rules.append(codec.decode_rule(json.loads(payload)))
        # The ids of the restored rules no program loaded since has claimed
        # (:meth:`load_rule`).
        self._unclaimed: Set[str] = {rule.rule_id for rule in self.own_rules}
        persisted_templates = self.backend.load_meta("template")
        for shape, payload in persisted_templates:
            record = json.loads(payload)
            self.delegations_in.learn(shape, record["delegator"],
                                      codec.decode_rule(record["rule"]), record["whole"])
            if record["active"]:
                self.delegations_in.activate(shape)
        self.restored = bool(persisted_schemas or persisted_rules or persisted_templates
                             or self.store.relations() or self.derived.relations())
        # The marker: the last commit closed a stage, with no provided fact
        # and nothing left for the next stage, so the derived tables hold the
        # fixpoint of the rest of the file.  ``resumable`` is what this open
        # found; the marker row is written only when its value changes.
        self._at_fixpoint = bool(self.backend.load_meta(_MARKER[0]))
        self.resumable = self.restored and self._at_fixpoint
        self._stage_ended = False
        # The bindings this peer has out, persisted like the ones it holds: a
        # reopened peer retracts those its program no longer derives, though
        # the process that sent them died.
        self.delegation_tracker = DelegationTracker(peer)
        self._delegated: Optional[FactStore] = None
        if self.backend.persistent:
            self._delegated = FactStore(SchemaRegistry(), owner=peer, backend=self.backend,
                                        namespace=DELEGATED_NAMESPACE)
            out = list(self._delegated.all_facts())
            if out:
                self.delegation_tracker.restore(
                    [fact for fact in out if is_binding(fact.relation)],
                    [fact for fact in out if fact.relation == SENT_TEMPLATE])
        self.pending = PendingInput()
        self.deferred_updates: Delta = Delta.empty()
        self.stage_counter = 0

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #

    def end_stage(self, settled: bool) -> None:
        """A stage wrote all it writes: the next :meth:`commit` closes it.
        ``settled`` says the stage left nothing for its successor; the
        commit then marks the file as a fixpoint unless provided facts,
        which are never persisted, fed it."""
        self._mark(settled and not self._provided_senders)
        self._stage_ended = True

    def commit(self) -> None:
        """Make every change since the last commit durable (stage boundary).
        A commit that closes no stage (:meth:`end_stage`) clears the marker:
        what it makes durable need not be a fixpoint."""
        if not self._stage_ended:
            self._mark(False)
        self._stage_ended = False
        self.backend.commit()

    def close(self, settled: bool = False) -> None:
        """Commit and release the backend.  ``settled``: nothing was written
        since the last stage commit, so its marker stands."""
        if not settled:
            self._mark(False)
        self.backend.close()

    def _mark(self, at_fixpoint: bool) -> None:
        if at_fixpoint != self._at_fixpoint and not getattr(self.backend, "closed", False):
            if at_fixpoint:
                self.backend.save_meta(*_MARKER, "true")
            else:
                self.backend.delete_meta(*_MARKER)
            self._at_fixpoint = at_fixpoint

    # ------------------------------------------------------------------ #
    # schema helpers
    # ------------------------------------------------------------------ #

    def declare(self, schema: RelationSchema) -> RelationSchema:
        """Declare a relation schema (persisted on durable backends).

        Re-declaring a known relation returns the registry's entry and writes
        nothing: every delegation install carries the schemas its rule
        mentions, so most declarations a peer receives are repeats.
        """
        new = self.schemas.get(schema.name, schema.peer) is None
        declared = self.schemas.declare(schema)
        if new:
            self.backend.save_meta("schema", f"{declared.name}@{declared.peer}",
                                   _record(codec.encode_schema(declared)))
        return declared

    def kind_of(self, relation: str, peer: str) -> Optional[RelationKind]:
        """Kind of ``relation@peer`` according to the known schemas."""
        schema = self.schemas.get(relation, peer)
        return schema.kind if schema is not None else None

    def is_local_intensional(self, fact: Fact) -> bool:
        """``True`` when ``fact`` belongs to a local intensional relation."""
        return (fact.peer == self.peer
                and self.kind_of(fact.relation, fact.peer) is RelationKind.INTENSIONAL)

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #

    def add_rule(self, rule: Rule) -> Rule:
        """Add one of the peer's own rules (validated for safety).

        A rule whose id the peer already holds (a second copy of one rule)
        is stored as ``<id>#2``, ``<id>#3``..., so each copy keeps its own
        ``rule`` record and is removed on its own."""
        rule.check_safety()
        rule_id = rule.rule_id
        held = {own.rule_id for own in self.own_rules}
        copy = 1
        while rule_id in held:
            copy += 1
            rule_id = f"{rule.rule_id}#{copy}"
        if rule.author is None or rule_id != rule.rule_id:
            rule = Rule(head=rule.head, body=rule.body, author=rule.author or self.peer,
                        origin=rule.origin, rule_id=rule_id)
        self.own_rules.append(rule)
        self.backend.save_meta("rule", rule.rule_id, _record(codec.encode_rule(rule)))
        return rule

    def load_rule(self, rule: Rule) -> Rule:
        """:meth:`add_rule` for a rule of a loaded program, unless the store
        a reopened peer restored already holds it: loading the program it
        was built with again claims one restored copy per copy it names
        (matched by content id, ``<id>#N`` copies included) and adds only
        the rest."""
        if self._unclaimed:
            for held in self.own_rules:
                if (held.rule_id in self._unclaimed
                        and held.rule_id.partition("#")[0] == rule.rule_id):
                    self._unclaimed.discard(held.rule_id)
                    return held
        return self.add_rule(rule)

    def remove_rule(self, rule_id: str) -> Optional[Rule]:
        """Remove an own rule by identifier; returns it when found."""
        for index, rule in enumerate(self.own_rules):
            if rule.rule_id == rule_id:
                self._unclaimed.discard(rule_id)
                self.backend.delete_meta("rule", rule_id)
                return self.own_rules.pop(index)
        return None

    def replace_rule(self, rule_id: str, new_rule: Rule) -> Rule:
        """Replace an own rule in place (used by the Wepic "customize rules" feature)."""
        new_rule.check_safety()
        for index, rule in enumerate(self.own_rules):
            if rule.rule_id == rule_id:
                replacement = Rule(head=new_rule.head, body=new_rule.body,
                                   author=new_rule.author or self.peer,
                                   origin=new_rule.origin, rule_id=rule_id)
                self.own_rules[index] = replacement
                self.backend.save_meta("rule", rule_id,
                                       _record(codec.encode_rule(replacement)))
                return replacement
        raise KeyError(f"no rule with id {rule_id!r} at peer {self.peer}")

    def all_rules(self) -> Tuple[Rule, ...]:
        """Own rules followed by installed delegated rules (deterministic order)."""
        return tuple(self.own_rules) + self.delegations_in.rules()

    # ------------------------------------------------------------------ #
    # delegation templates and bindings (persisted on durable backends)
    # ------------------------------------------------------------------ #

    def learn_template(self, shape: str, delegator: str, rule: Rule,
                       whole: bool = False) -> None:
        """Hold ``delegator``'s template of ``shape`` (out of the program
        until :meth:`activate_template`).  ``whole``: a rule delegated
        whole, which reads no binding relation."""
        if self.delegations_in.learn(shape, delegator, rule, whole):
            self._save_template(shape)

    def activate_template(self, shape: str) -> None:
        """Put a held template in the program."""
        if not self.delegations_in.is_active(shape):
            self.delegations_in.activate(shape)
            self._save_template(shape)

    def deactivate_template(self, shape: str) -> None:
        """Take a template out of the program, still holding it."""
        if self.delegations_in.is_active(shape):
            self.delegations_in.deactivate(shape)
            self._save_template(shape)

    def retire_template(self, shape: str) -> None:
        """Drop a template and every binding of it (the bindings store's
        delta carries their deletion into the stage)."""
        if self.delegations_in.forget(shape) is None:
            return
        if self.backend.persistent:
            self.backend.delete_meta("template", shape)
        self.bindings.clear_relation(binding_relation(shape), self.peer)

    def _save_template(self, shape: str) -> None:
        if self.backend.persistent:
            held = self.delegations_in.get(shape)
            self.backend.save_meta("template", shape, _record({
                "delegator": held.delegator, "rule": codec.encode_rule(held.rule),
                "whole": self.delegations_in.is_whole(shape),
                "active": self.delegations_in.is_active(shape)}))

    def describe(self, binding: Fact) -> Optional[InstalledDelegation]:
        """``binding`` as shown: the delegated rule it stands for, named as
        its delegator names the delegation.  ``None`` when no template of it
        is held."""
        shape = shape_of(binding.relation)
        held = self.delegations_in.get(shape)
        if held is None:
            return None
        rule = stands_for(held.rule, binding.values, self.peer)
        return InstalledDelegation(
            delegation_id(held.delegator, self.peer, held.rule.origin, rule),
            held.delegator, rule)

    def installed_delegations(self) -> Tuple[InstalledDelegation, ...]:
        """Every installed delegation as shown (:meth:`describe`), in id
        order: each binding, and each rule delegated whole."""
        shown: List[InstalledDelegation] = []
        for held in self.delegations_in.active():
            shape = held.delegation_id
            if self.delegations_in.is_whole(shape):
                shown.append(held)
            else:
                shown.extend(self.describe(binding) for binding in
                             self.bindings.facts(binding_relation(shape), self.peer))
        return tuple(sorted(shown, key=lambda d: d.delegation_id))

    def sent_delegations(self, diff: DelegationDiff) -> None:
        """Record that ``diff``'s installs and retractions went out, in the
        stage's transaction on a durable backend."""
        sent, retired = self.delegation_tracker.commit(diff)
        if self._delegated is not None:
            self._delegated.delete_many([*(d.binding for d in diff.to_retract), *retired])
            self._delegated.insert_many([*(d.binding for d in diff.to_install), *sent])
            self._delegated.take_delta()

    # ------------------------------------------------------------------ #
    # facts
    # ------------------------------------------------------------------ #

    def insert_fact(self, fact: Fact) -> Delta:
        """Insert a base fact into the local extensional store.

        Facts of relations located at other peers cannot be stored locally;
        the engine routes them through messages instead.
        """
        if fact.peer != self.peer:
            raise SchemaError(
                f"peer {self.peer} cannot store fact {fact} of a relation located at "
                f"{fact.peer}; send it as an update instead"
            )
        if self.is_local_intensional(fact):
            raise SchemaError(
                f"cannot insert base fact into intensional relation {fact.qualified_relation}"
            )
        return self.store.insert(fact)

    def insert_facts(self, facts: Iterable[Fact]) -> Delta:
        """Insert many base facts at once (bulk-load fast path).

        Same validation as :meth:`insert_fact` per fact, then one batched
        store insert, so SQL backends see a single ``executemany`` per
        relation instead of a statement per fact.
        """
        validated = []
        for fact in facts:
            if fact.peer != self.peer:
                raise SchemaError(
                    f"peer {self.peer} cannot store fact {fact} of a relation located "
                    f"at {fact.peer}; send it as an update instead"
                )
            if self.is_local_intensional(fact):
                raise SchemaError(
                    f"cannot insert base fact into intensional relation "
                    f"{fact.qualified_relation}"
                )
            validated.append(fact)
        return self.store.insert_many(validated)

    def delete_fact(self, fact: Fact) -> Delta:
        """Delete a base fact from the local extensional store."""
        if fact.peer != self.peer:
            raise SchemaError(
                f"peer {self.peer} cannot delete fact {fact} of a relation located at "
                f"{fact.peer}"
            )
        return self.store.delete(fact)

    def add_provided(self, fact: Fact, sender: str) -> None:
        """Record a fact ``sender`` derives for a local intensional relation.

        The same fact may be provided by several senders (two selected
        attendees publishing the same rating); it stays visible until the
        last of them retracts it.
        """
        senders = self._provided_senders.get(fact)
        if senders is None:
            self.provided.insert(fact)
            senders = self._provided_senders[fact] = set()
        senders.add(sender)

    def remove_provided(self, fact: Fact, sender: str) -> None:
        """``sender`` no longer derives ``fact``; it vanishes with its last sender."""
        senders = self._provided_senders.get(fact)
        if senders is None:
            return
        senders.discard(sender)
        if not senders:
            del self._provided_senders[fact]
            self.provided.delete(fact)

    def clear_provided(self, relations: Iterable[Tuple[str, str]]) -> Delta:
        """Drop every provided fact of the ``(name, peer)`` relations given
        (the scratch intensional relations: their inputs live one stage).

        Returns the deletion delta of everything dropped — even facts that
        only arrived this stage, because the fixpoint may already have
        derived from them (the incremental engine feeds this into the next
        stage's rederive pass).
        """
        removed = Delta.empty()
        for name, peer in relations:
            removed = removed.merge(self.provided.clear_relation(name, peer))
        for fact in removed.deleted:
            del self._provided_senders[fact]
        return removed

    # ------------------------------------------------------------------ #
    # the fact view used by the evaluator
    # ------------------------------------------------------------------ #

    def fact_view(self, relation: str, peer: str,
                  bindings: Optional[Dict[int, object]] = None) -> Iterator[Fact]:
        """Facts visible to rule evaluation for ``relation@peer``.

        The view is the union of the extensional store, the intensional
        facts derived so far in the current stage and the provided facts.  Facts
        of relations located at remote peers are never visible locally (they
        can only be reached through delegation).  ``bindings`` (a
        ``{position: value}`` map of argument positions already bound by the
        evaluator) routes every source through its incremental hash indexes
        instead of a relation scan.
        """
        if peer != self.peer:
            return
        if relation.startswith(BINDING_PREFIX):
            yield from self.bindings.facts(relation, peer, bindings)
            return
        yield from self.store.facts(relation, peer, bindings)
        yield from self.derived.facts(relation, peer, bindings)
        yield from self.provided.facts(relation, peer, bindings)

    def query(self, relation: str, peer: Optional[str] = None) -> Tuple[Fact, ...]:
        """Facts of ``relation`` visible at this peer (stored, derived or provided).

        Sorted by rendering, a fact once per source that holds it.  The
        answer is kept per queried relation and handed out again — the same
        tuple object — while its change feed is empty; the stores fill the
        feed at the write itself, not at the stage boundary, so a fact
        inserted between two stages is visible to the next read.  A changed
        relation is not sorted again: the kept answer is patched with the
        facts of the feed (:func:`~repro.core.facts.patch_sorted`), at the
        cost of what changed plus a copy.  The answer holds the stores' own
        facts, so it renders nothing it rendered before.
        """
        target_peer = peer or self.peer
        if target_peer != self.peer:
            return ()
        key = (relation, target_peer)
        kept = self._snapshots.get(key)
        if kept is None or None in kept[0]:
            facts = tuple(sorted(self.fact_view(relation, target_peer), key=str))
            feed = self.watch(relation, target_peer) if kept is None else kept[0]
        else:
            feed, facts = kept
            if not feed:
                return facts
            facts = tuple(patch_sorted(facts, feed, self.held))
        feed.drain(len(facts))
        self._snapshots[key] = (feed, facts)
        return facts

    def held(self, fact: Fact) -> List[Fact]:
        """Each source's own fact equal to ``fact``, in source order: what
        :meth:`fact_view` yields of it (a source may hold ``-0.0`` where
        another holds ``0.0``)."""
        return [kept for kept in (self.store.get(fact), self.derived.get(fact),
                                  self.provided.get(fact))
                if kept is not None]

    def watch(self, relation: str, peer: str,
              forget: Optional[Callable[[], None]] = None) -> ChangeFeed:
        """A new change feed of ``relation@peer``: from now on every fact of
        it that one of the three stores inserts or removes is added to it.
        ``forget`` drops what its reader keeps (see :meth:`forget_reads`)."""
        return self._feeds.watch(relation, peer, forget)

    def unwatch(self, relation: str, peer: str, feed: ChangeFeed) -> None:
        """Stop filling ``feed``, a feed :meth:`watch` returned."""
        self._feeds.unwatch(relation, peer, feed)

    def forget_snapshot(self, relation: str, peer: Optional[str] = None) -> None:
        """Release the kept answer of :meth:`query` for a relation nobody
        will read again (a closed live view's answer relation)."""
        key = (relation, peer or self.peer)
        kept = self._snapshots.pop(key, None)
        if kept is not None:
            self.unwatch(*key, kept[0])

    def forget_reads(self) -> None:
        """Drop every kept read — the snapshots, and through their feeds'
        ``forget`` what other readers keep — and every feed.  Run when the
        backend is aborted: the process the peer simulates died, and with it
        everything it kept; what the file holds is read again on reopen."""
        forgets = [feed.forget for feeds in self._feeds.values() for feed in feeds
                   if feed.forget is not None]
        self._feeds.clear()
        self._snapshots.clear()
        for forget in forgets:
            forget()

    def snapshot(self) -> Dict[str, Tuple[Fact, ...]]:
        """Snapshot of every non-empty relation, keyed by qualified name."""
        result: Dict[str, List[Fact]] = {}
        for source in (self.store, self.derived, self.provided):
            for fact in source.all_facts():
                result.setdefault(fact.qualified_relation, []).append(fact)
        return {name: tuple(sorted(facts, key=str)) for name, facts in sorted(result.items())}
