"""Per-peer state of the WebdamLog engine.

A peer's state consists of

* the **schemas** it knows about,
* its **extensional store** (base facts of relations located at the peer),
* the **derived store** of intensional facts computed by the last stage,
* the **provided facts** received from remote peers for *intensional* local
  relations — a volatile third :class:`FactStore` on a private memory
  backend: they persist until the sender retracts them (or, for a relation
  declared ``scratch``, for a single stage) but never outlive the process,
* the peer's **own rules**, and
* the **delegations** installed at the peer by remote delegators.

The state also exposes the *fact view* used by the evaluator: the union of
the three stores.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core import codec
from repro.core.delegation import DelegationStore, DelegationTracker, InstalledDelegation
from repro.core.errors import SchemaError
from repro.core.facts import Delta, Fact, FactStore
from repro.core.rules import Rule, ensure_rule_counter_above
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry
from repro.store.backend import DERIVED_NAMESPACE, STORE_NAMESPACE
from repro.store.memory import MemoryBackend


def _record(encoded) -> str:
    """A metadata record as stored: the canonical JSON of its codec encoding."""
    return json.dumps(encoded, sort_keys=True)


@dataclass
class PendingInput:
    """Inputs received since the previous stage, waiting to be consumed by the next one."""

    inserted_facts: List[Tuple[str, Fact]] = field(default_factory=list)
    deleted_facts: List[Tuple[str, Fact]] = field(default_factory=list)
    delegations_to_install: List[Tuple[str, str, Rule]] = field(default_factory=list)
    delegations_to_retract: List[Tuple[str, str]] = field(default_factory=list)

    def is_empty(self) -> bool:
        """``True`` when nothing is waiting."""
        return not (self.inserted_facts or self.deleted_facts
                    or self.delegations_to_install or self.delegations_to_retract)

    def clear(self) -> None:
        """Drop every pending input."""
        self.inserted_facts.clear()
        self.deleted_facts.clear()
        self.delegations_to_install.clear()
        self.delegations_to_retract.clear()

    def size(self) -> int:
        """Total number of pending items."""
        return (len(self.inserted_facts) + len(self.deleted_facts)
                + len(self.delegations_to_install) + len(self.delegations_to_retract))


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
        self.store = FactStore(self.schemas, owner=peer, backend=self.backend,
                               namespace=STORE_NAMESPACE)
        self.derived = FactStore(self.schemas, owner=peer, backend=self.backend,
                                 namespace=DERIVED_NAMESPACE)
        # Facts remote peers derive for local intensional relations: a third
        # store on private schemas and a private memory backend, so never
        # persisted and unkeyed (two senders' key-colliding facts never
        # displace each other).  Beside it, who provides each: a fact is
        # visible while one sender still derives it.
        self.provided = FactStore(owner=peer)
        self._provided_senders: Dict[Fact, Set[str]] = {}
        # The relation snapshots :meth:`query` answers from while the three
        # stores' generations of a relation stand still.
        self._snapshots: Dict[Tuple[str, str],
                              Tuple[Tuple[int, int, int], Tuple[Fact, ...]]] = {}
        self.own_rules: List[Rule] = []
        self.delegations_in = DelegationStore(peer)
        persisted_rules = self.backend.load_meta("rule")
        for _key, payload in persisted_rules:
            self.own_rules.append(codec.decode_rule(json.loads(payload)))
        persisted_delegations = self.backend.load_meta("delegation")
        for _key, payload in persisted_delegations:
            record = json.loads(payload)
            self.delegations_in.install(record["delegation_id"], record["delegator"],
                                        codec.decode_rule(record["rule"]))
        self.restored = bool(persisted_schemas or persisted_rules
                             or persisted_delegations
                             or self.store.relations() or self.derived.relations())
        if self.restored:
            self._advance_rule_counter()
        self.delegation_tracker = DelegationTracker(peer)
        self.pending = PendingInput()
        self.deferred_updates: Delta = Delta.empty()
        self.stage_counter = 0

    def _advance_rule_counter(self) -> None:
        """Keep fresh rule ids from colliding with restored ones.

        Restored rules keep their persisted ``rule-N`` identifiers (delegation
        ids are content-hashed over them, so identity must survive recovery);
        the global counter is bumped past every numeric suffix seen.
        """
        highest = 0
        for rule in self.own_rules:
            for match in re.findall(r"(\d+)", rule.rule_id):
                highest = max(highest, int(match))
        for installed in self.delegations_in.all():
            for match in re.findall(r"(\d+)", installed.rule.rule_id):
                highest = max(highest, int(match))
        if highest:
            ensure_rule_counter_above(highest)

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #

    def commit(self) -> None:
        """Make every change since the last commit durable (stage boundary)."""
        self.backend.commit()

    def close(self) -> None:
        """Commit and release the backend."""
        self.backend.close()

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
        """Add one of the peer's own rules (validated for safety)."""
        rule.check_safety()
        if rule.author is None:
            rule = Rule(head=rule.head, body=rule.body, author=self.peer,
                        origin=rule.origin, rule_id=rule.rule_id)
        self.own_rules.append(rule)
        self.backend.save_meta("rule", rule.rule_id, _record(codec.encode_rule(rule)))
        return rule

    def remove_rule(self, rule_id: str) -> Optional[Rule]:
        """Remove an own rule by identifier; returns it when found."""
        for index, rule in enumerate(self.own_rules):
            if rule.rule_id == rule_id:
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
    # installed delegations (persisted on durable backends)
    # ------------------------------------------------------------------ #

    def install_delegation(self, delegation_id: str, delegator: str,
                           rule: Rule) -> InstalledDelegation:
        """Install a delegated rule and persist it.

        Content-hashed delegation ids make this idempotent: a delegator that
        re-sends an install after the receiving peer recovered simply
        overwrites the identical record.
        """
        installed = self.delegations_in.install(delegation_id, delegator, rule)
        self.backend.save_meta("delegation", delegation_id, _record({
            "delegation_id": installed.delegation_id,
            "delegator": installed.delegator,
            "rule": codec.encode_rule(installed.rule),
        }))
        return installed

    def retract_delegation(self, delegation_id: str) -> Optional[InstalledDelegation]:
        """Retract a delegated rule and delete its persisted record."""
        installed = self.delegations_in.retract(delegation_id)
        if installed is not None:
            self.backend.delete_meta("delegation", delegation_id)
        return installed

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
        yield from self.store.facts(relation, peer, bindings)
        yield from self.derived.facts(relation, peer, bindings)
        yield from self.provided.facts(relation, peer, bindings)

    def query(self, relation: str, peer: Optional[str] = None) -> Tuple[Fact, ...]:
        """Facts of ``relation`` visible at this peer (stored, derived or provided).

        Sorted by rendering.  The answer is kept per queried relation and
        handed out again — the same tuple object — until one of the three
        sources records a change of that relation, so a page that polls an
        unchanged relation neither rebuilds nor re-sorts its facts.  The
        stores invalidate it at the write itself, not at the stage boundary:
        a fact inserted between two stages is visible to the next read.  On
        the memory backend the stores hand out their own facts, so a rebuild
        re-sorts objects that already carry their renderings.
        """
        target_peer = peer or self.peer
        if target_peer != self.peer:
            return ()
        key = (relation, target_peer)
        generations = (self.store.generation(relation, target_peer),
                       self.derived.generation(relation, target_peer),
                       self.provided.generation(relation, target_peer))
        snapshot = self._snapshots.get(key)
        if snapshot is not None and snapshot[0] == generations:
            return snapshot[1]
        facts = tuple(sorted(self.fact_view(relation, target_peer), key=str))
        self._snapshots[key] = (generations, facts)
        return facts

    def forget_snapshot(self, relation: str, peer: Optional[str] = None) -> None:
        """Release the kept answer of :meth:`query` for a relation nobody
        will read again (a closed live view's answer relation)."""
        self._snapshots.pop((relation, peer or self.peer), None)

    def snapshot(self) -> Dict[str, Tuple[Fact, ...]]:
        """Snapshot of every non-empty relation, keyed by qualified name."""
        result: Dict[str, List[Fact]] = {}
        for source in (self.store, self.derived, self.provided):
            for fact in source.all_facts():
                result.setdefault(fact.qualified_relation, []).append(fact)
        return {name: tuple(sorted(facts, key=str)) for name, facts in sorted(result.items())}

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def counts(self) -> Dict[str, int]:
        """Basic size counters of the peer state."""
        return {
            "extensional_facts": self.store.total_facts(),
            "derived_facts": self.derived.total_facts(),
            "provided_facts": self.provided.total_facts(),
            "own_rules": len(self.own_rules),
            "installed_delegations": len(self.delegations_in),
            "outstanding_delegations": len(self.delegation_tracker.outstanding()),
            "stage": self.stage_counter,
        }
