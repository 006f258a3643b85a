"""A runtime peer: engine + delegation control + wrappers + transport glue.

:class:`Peer` owns one :class:`~repro.core.engine.WebdamLogEngine` and wires
it to the rest of the system:

* incoming messages are dispatched to the engine — delegations go through
  the :class:`~repro.acl.delegation_control.DelegationController` first,
  implementing the paper's control-of-delegation model;
* the outputs of a stage are converted into one message per recipient,
  attaching the schemas of the relations a delegation template mentions so
  the recipient discovers them (run-time relation discovery);
* attached wrappers get ``before_stage`` / ``after_stage`` hooks so external
  services (the simulated Facebook, email, Dropbox) can exchange facts with
  the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.acl.delegation_control import DelegationController
from repro.acl.trust import TrustStore
from repro.core.delegation import binding_relation, is_binding, shape_of
from repro.core.engine import StageResult, WebdamLogEngine
from repro.core.errors import SchemaError, StratificationError
from repro.core.facts import Delta, Fact
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Derivation as ProvenanceDerivation
from repro.provenance.graph import Explanation, ProvenanceTracker
from repro.replication.state import ReplicationState
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    Message,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
)


@dataclass
class PeerStageReport:
    """What one peer did during one runtime round."""

    peer: str
    stage_result: StageResult
    delivered_messages: int = 0
    sent_messages: int = 0

    def is_quiescent(self) -> bool:
        """``True`` when the peer neither received nor produced anything."""
        return self.delivered_messages == 0 and self.stage_result.is_quiescent()


class Peer:
    """One WebdamLog peer as seen by the runtime."""

    def __init__(self, name: str, trust: Optional[TrustStore] = None,
                 provenance: bool = False,
                 storage=None, storage_options: Optional[Dict] = None,
                 replication: bool = False):
        self.name = name
        self.engine = WebdamLogEngine(name, storage=storage,
                                      storage_options=storage_options)
        if provenance:
            self.engine.provenance = ProvenanceTracker()
        self.controller = DelegationController(self.engine, trust=trust)
        self.wrappers: List = []
        # Delegations refused while delivering the current batch.
        self._refused: List[StratificationError] = []
        # Bindings that arrived before their template (a reordering channel),
        # by shape, in arrival order with their sender: submitted when that
        # sender's template comes.
        self._parked: Dict[str, List[Tuple[str, Fact, bool]]] = {}
        # ``replication=False`` ships each stage's update to a recipient as
        # one raw FactMessage, which assumes exactly-once, in-order delivery;
        # ``True`` ships dotted delta envelopes with anti-entropy (see
        # repro.replication).  The system decides from its transport's
        # delivery promise.
        self.replication: Optional[ReplicationState] = None
        if replication:
            backend = self.engine.state.backend
            # A backend that keeps nothing is never restored from, so its
            # peer journals no channel changes and persists none.
            self.replication = ReplicationState(
                name, journal=backend.persistent, metrics=self.engine.metrics)
            self.replication.restore(backend)
            # Remote-provided facts are volatile engine state: a raw-message
            # restart recovers them because the restarted *sender* re-ships
            # everything, but a causal outbox's live-set dedup suppresses that
            # re-send.  The inbox already knows exactly which facts have been
            # delivered, so re-inject them (idempotently) on reopen.  Its
            # bindings are durable, but one parked or pending when the
            # process died is submitted again.
            installed = self.engine.state.bindings
            for origin, box in sorted(self.replication.inboxes.items()):
                visible = sorted(box.visible, key=str)
                facts = [fact for fact in visible if not is_binding(fact.relation)]
                if facts:
                    self.engine.receive_facts(origin, inserted=facts)
                self._apply_effects(origin, [("bind", fact) for fact in visible
                                             if is_binding(fact.relation)
                                             and not installed.contains(fact)])
        # Derivations already shipped to each target (keyed like the
        # tracker's remote memory), so updates carry each one only once —
        # plus the facts appearing in that shipped lineage, so *alternative*
        # derivations recorded later for an already-shipped fact can be
        # routed to the targets that care.
        self._sent_derivations: Dict[str, set] = {}
        self._sent_lineage_facts: Dict[str, set] = {}

    # ------------------------------------------------------------------ #
    # user-facing conveniences (thin wrappers over the engine)
    # ------------------------------------------------------------------ #

    def load_program(self, program: str):
        """Load a WebdamLog program text into the peer's engine."""
        return self.engine.load_program(program)

    def add_rule(self, rule: Union[str, Rule]) -> Rule:
        """Add a rule to the peer's own program."""
        return self.engine.add_rule(rule)

    def replace_rule(self, rule_id: str, new_rule: Union[str, Rule]) -> Rule:
        """Replace one of the peer's own rules (Wepic rule customisation)."""
        return self.engine.replace_rule(rule_id, new_rule)

    def remove_rule(self, rule_id: str) -> Optional[Rule]:
        """Remove one of the peer's own rules by identifier."""
        return self.engine.remove_rule(rule_id)

    def remove_rules(self, rule_ids: Iterable[str]) -> List[Rule]:
        """Remove several own rules at once (live-view uninstall path)."""
        return self.engine.remove_rules(rule_ids)

    def insert_fact(self, fact: Union[str, Fact]) -> Delta:
        """Insert a base fact (local) or queue an update (remote)."""
        return self.engine.insert_fact(fact)

    def insert_facts(self, facts: Iterable[Union[str, Fact]]) -> Delta:
        """Insert many base facts at once (batched store write)."""
        return self.engine.insert_facts(facts)

    def delete_fact(self, fact: Union[str, Fact]) -> Delta:
        """Delete a base fact (local) or queue a remote deletion."""
        return self.engine.delete_fact(fact)

    def declare(self, schema: RelationSchema) -> RelationSchema:
        """Declare a relation schema."""
        return self.engine.declare(schema)

    def query(self, relation: str, peer: Optional[str] = None) -> Tuple[Fact, ...]:
        """Facts of ``relation`` visible at this peer."""
        return self.engine.query(relation, peer)

    def rules(self) -> Tuple[Rule, ...]:
        """The peer's own rules."""
        return self.engine.rules()

    def installed_delegations(self):
        """Delegations installed at this peer (after approval)."""
        return self.engine.installed_delegations()

    def pending_delegations(self):
        """Delegations waiting for the user's approval."""
        return self.controller.pending()

    def approve_delegation(self, delegation_id: str):
        """Approve one pending delegation."""
        return self.controller.approve(delegation_id)

    def approve_all_delegations(self, delegator: Optional[str] = None):
        """Approve every pending delegation (optionally from one delegator)."""
        return self.controller.approve_all(delegator)

    def reject_delegation(self, delegation_id: str):
        """Reject one pending delegation."""
        return self.controller.reject(delegation_id)

    def trust_peer(self, peer: str) -> None:
        """Add ``peer`` to this peer's trusted set."""
        self.controller.trust.trust(peer)

    def attach_wrapper(self, wrapper) -> None:
        """Attach a wrapper (simulated external service) to this peer."""
        self.wrappers.append(wrapper)
        attach = getattr(wrapper, "attach", None)
        if attach is not None:
            attach(self)
        # The wrapper may surface external data at its next before_stage hook.
        self.engine.mark_dirty()

    @property
    def provenance(self) -> Optional[ProvenanceTracker]:
        """The engine's provenance tracker (``None`` when not enabled)."""
        return self.engine.provenance

    def explain(self, fact: Fact) -> Explanation:
        """Why/lineage story of ``fact`` from the maintained provenance graph."""
        tracker = self.engine.provenance
        if tracker is None:
            raise RuntimeError(
                f"peer {self.name!r} has no provenance tracker attached; "
                "enable it with system().provenance() or "
                "Peer(..., provenance=True)"
            )
        return tracker.explain(fact)

    def needs_stage(self, now: int) -> bool:
        """``True`` when a stage at this peer in cycle ``now`` could change
        anything.

        The work-driven schedulers skip a peer that answers ``False``: it is
        guaranteed to run a quiescent stage.  Three things can ask for one.
        Under causal replication, replication attention (unsent ops, queued
        anti-entropy control, a digest due this cycle) — a peer that is only
        waiting for an ack is *not* staged; that the deployment has not
        settled meanwhile is :meth:`ReplicationState.unsettled`'s answer,
        which ``converge()`` consults.  The engine (see
        :meth:`WebdamLogEngine.needs_stage`).  And an attached wrapper,
        through ``wants_stage(peer)`` — the wrapped service may have changed
        where the engine cannot see it; a wrapper without the method cannot
        say when, and is polled every cycle.
        """
        if self.replication is not None and self.replication.needs_attention(now):
            return True
        return self.engine_needs_stage()

    def engine_needs_stage(self) -> bool:
        """``True`` when the engine or an attached wrapper asks for a stage
        (:meth:`needs_stage` without replication's attention): when it does
        not, delivered messages left the engine nothing to do."""
        if self.engine.needs_stage():
            return True
        for wrapper in self.wrappers:
            wants = getattr(wrapper, "wants_stage", None)
            if wants is None or wants(self):
                return True
        return False

    def close(self) -> None:
        """Commit and release the peer's storage backend."""
        self.engine.close()

    # ------------------------------------------------------------------ #
    # transport-facing methods
    # ------------------------------------------------------------------ #

    def deliver(self, message: Message, now: int = 0) -> None:
        """Dispatch one incoming message to the engine / controller.

        ``now`` is the scheduler cycle of the delivery
        (:attr:`WebdamLogSystem.current_round`); only causal replication's
        timers read it, so a peer driven by hand may leave it out.  A
        refused delegation install raises as in :meth:`deliver_all`.
        """
        self.deliver_all((message,), now)

    def _dispatch(self, message: Message, now: int) -> None:
        """Hand one message to the engine / controller (see :meth:`deliver`)."""
        if isinstance(message, FactMessage):
            self._apply_effects(message.sender, message.effects())
            return
        if self.replication is None:
            raise TypeError(
                f"peer {self.name!r} has no causal replication but received "
                f"a {message.kind()}; every peer of a deployment must run "
                "over the same transport"
            )
        if isinstance(message, DeltaEnvelopeMessage):
            self._apply_effects(message.sender,
                                self.replication.apply_envelope(message, now))
        elif isinstance(message, ReplicationDigestMessage):
            self.replication.on_digest(message.sender, message.frontier, now)
        elif isinstance(message, ReplicationPullMessage):
            self.replication.on_pull(message.sender, message.want)
        elif isinstance(message, ReplicationAckMessage):
            self.replication.on_ack(message.sender, message.acked)
        else:  # pragma: no cover - defensive
            raise TypeError(f"peer {self.name} cannot handle message {message!r}")

    def deliver_all(self, messages: Iterable[Message], now: int = 0) -> int:
        """Deliver a batch of messages; returns how many were processed.

        A delegation install that would close a cycle through negation is
        refused alone: every other message of the batch, and every other
        effect of the same message, is still delivered, and the first
        :class:`~repro.core.errors.StratificationError` is raised after the
        batch.
        """
        self._refused.clear()
        count = 0
        for message in messages:
            self._dispatch(message, now)
            count += 1
        if self._refused:
            raise self._refused[0]
        return count

    def _apply_effects(self, origin: str, effects) -> None:
        """Feed the effects of one update from ``origin`` to the engine.

        A raw :class:`FactMessage` and a replication envelope arrive here in
        the same shape (:data:`repro.replication.channel.Effect` tuples):
        templates, bindings and retractions go through the controller,
        derivations into the tracker, and the fact updates through one
        :meth:`receive_facts` call after them (it only queues them for the
        next stage).  So the engine's skip/delta/rederive input paths cannot
        tell the two delivery paths apart.
        """
        facts: Dict[str, List[Fact]] = {"insert": [], "delete": [], "withdraw": []}
        for effect in effects:
            kind = effect[0]
            if kind in facts:
                facts[kind].append(effect[1])
            elif kind == "bind" or kind == "unbind":
                self._submit_binding(origin, effect[1], kind == "bind")
            elif kind == "delegate":
                _, shape, rule, schemas = effect
                self._submit_template(origin, shape, rule, schemas)
            elif kind == "undelegate":
                self._unpark(origin, effect[1])
                self.controller.submit_retraction(origin, effect[1])
            elif kind == "derivation":
                self._record_shipped(effect[1], anchor=effect[2])
        if any(facts.values()):
            self.engine.receive_facts(origin, facts["insert"], facts["delete"],
                                      facts["withdraw"])

    def _submit_template(self, sender: str, shape: str, rule: Optional[Rule],
                         schemas: Iterable[RelationSchema]) -> None:
        """Learn a template's schemas, then the template — or hand a rule
        delegated whole to the controller — and submit the bindings that
        waited for it: those ``sender`` sent.

        A delegation refused with a
        :class:`~repro.core.errors.StratificationError` (by a schema or by
        the rule) is noted for :meth:`deliver_all` to raise.
        """
        try:
            for schema in schemas:
                try:
                    self.engine.declare(schema)
                except SchemaError:
                    # Conflicting schema knowledge: keep the local declaration.
                    pass
            if rule is None:
                return
            first = rule.body[0]
            if (first.relation_constant() == binding_relation(shape)
                    and first.peer_constant() == self.name):
                self.engine.receive_template(sender, shape, rule)
            else:
                self.controller.submit(sender, shape, rule)
        except StratificationError as refused:
            self._refused.append(refused)
        for binding, install in self._unpark(sender, shape):
            self._submit_binding(sender, binding, install)

    def _unpark(self, sender: str, shape: str) -> List[Tuple[Fact, bool]]:
        """Take the bindings of ``shape`` parked for its template: those
        ``sender`` sent, in arrival order.  Another peer's are dropped, as
        they would be at the engine: the template of a shape is its
        delegator's alone."""
        return [(binding, install) for origin, binding, install in self._parked.pop(shape, ())
                if origin == sender]

    def _submit_binding(self, sender: str, binding: Fact, install: bool) -> None:
        """Hand a delegation binding, or its retraction, to the controller;
        park it while its template has not arrived."""
        shape = shape_of(binding.relation)
        if shape not in self.engine.state.delegations_in:
            self._parked.setdefault(shape, []).append((sender, binding, install))
            return
        try:
            if install:
                self.controller.submit_binding(sender, binding)
            else:
                self.controller.submit_unbinding(sender, binding)
        except StratificationError as refused:
            self._refused.append(refused)

    def _record_shipped(self, derivation: ProvenanceDerivation,
                        anchor: bool) -> None:
        """Remember a derivation a remote peer shipped (provenance on only)."""
        tracker = self.engine.provenance
        if tracker is not None:
            tracker.record_remote(derivation, anchor=anchor)

    def notify_send_failed(self, message: Message) -> None:
        """The transport rejected a message (unknown recipient).

        Under causal replication the channel to that target is marked
        unreachable so its unacknowledged ops stop demanding attention —
        mirroring raw messages, which such a failure silently loses
        (wrapper-only pseudo-peers).
        """
        if self.replication is not None:
            self.replication.mark_unreachable(message.recipient)

    def drop_replication_channel(self, peer: str) -> None:
        """Forget the replication channels shared with a removed peer."""
        if self.replication is not None:
            self.replication.drop_channel(peer)

    def run_stage(self, now: int = 0) -> Tuple[StageResult, List[Message]]:
        """Run one engine stage and convert its outputs into messages.

        Under causal replication the stage's messages are absorbed into
        channel ops and re-emitted as delta envelopes (plus the anti-entropy
        control traffic that falls due in cycle ``now``); what changed in the
        channels is persisted inside the same transaction as the engine's
        stage commit, so recovery replays to the same causal join.
        """
        for wrapper in self.wrappers:
            before = getattr(wrapper, "before_stage", None)
            if before is not None:
                before(self)
        if self.replication is None:
            result = self.engine.run_stage()
            outgoing = self._messages_from(result)
        else:
            result = self.engine.run_stage(commit=False)
            self.replication.encode_outgoing(self._messages_from(result))
            outgoing = self.flush_channels(now)
        for wrapper in self.wrappers:
            after = getattr(wrapper, "after_stage", None)
            if after is not None:
                after(self, result)
        return result, outgoing

    def flush_channels(self, now: int = 0) -> List[Message]:
        """What the channels send in cycle ``now``: under causal replication
        the ops encoded so far and the anti-entropy answers and retransmits
        that fall due (:meth:`ReplicationState.flush`), the channels
        persisted and committed with the stage's writes, if any; nothing on
        the raw path.  Alone, it answers messages that ran no stage."""
        if self.replication is None:
            return []
        outgoing = self.replication.flush(now)
        self.replication.persist(self.engine.state.backend)
        self.engine.state.commit()
        return outgoing

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _messages_from(self, result: StageResult) -> List[Message]:
        """One :class:`FactMessage` per recipient of the stage: its fact
        update with the provenance shipped along, the fresh derivations
        routed to it, and the delegations installed at or retracted from it.
        Recipients come in the order they first appear in the update list,
        then the fresh derivations, templates, bindings, unbindings and
        retired templates."""
        updates = {update.target: update for update in result.outgoing_updates}
        derivations: Dict[str, Tuple[ProvenanceDerivation, ...]] = {
            target: self._derivations_for(target, update.inserted,
                                          update.deleted or update.withdrawn)
            for target, update in updates.items()}
        # Alternative derivations of facts already at a target: the facts
        # themselves produce no update, so they may travel without one.
        for target, fresh in self._fresh_derivations().items():
            derivations[target] = derivations.get(target, ()) + fresh
        installs: Dict[str, list] = {}
        for shape in result.templates_to_install:
            installs.setdefault(shape.target, []).append(
                (shape.name, shape.template, self._schemas_for(shape.template)))
        bound: Dict[str, list] = {}
        for delegation in result.delegations_to_install:
            bound.setdefault(delegation.target, []).append(delegation.binding)
        unbound: Dict[str, list] = {}
        for delegation in result.delegations_to_retract:
            unbound.setdefault(delegation.target, []).append(delegation.binding)
        retracts: Dict[str, list] = {}
        for target, shape in result.templates_to_retract:
            retracts.setdefault(target, []).append(shape)
        messages: List[Message] = []
        for target in dict.fromkeys([*updates, *derivations, *installs, *bound, *unbound,
                                     *retracts]):
            update = updates.get(target)
            messages.append(FactMessage(
                sender=self.name,
                recipient=target,
                inserted=update.inserted if update is not None else frozenset(),
                deleted=update.deleted if update is not None else frozenset(),
                withdrawn=update.withdrawn if update is not None else frozenset(),
                derivations=derivations.get(target, ()),
                installs=tuple(installs.get(target, ())),
                bound=tuple(bound.get(target, ())),
                unbound=tuple(unbound.get(target, ())),
                retracts=tuple(retracts.get(target, ())),
            ))
        return messages

    def _derivations_for(self, target: str, inserted: Iterable[Fact],
                         deleted: Iterable[Fact]
                         ) -> Tuple[ProvenanceDerivation, ...]:
        """The sender-side provenance shipped with one outgoing update.

        Walks the transitive derivation closure of the inserted facts in
        this peer's graph (so the receiver can answer lineage queries down
        to this peer's base facts) but ships each derivation to a given
        target only once, and prunes the walk at derivations earlier updates
        already carried — their closure was walked when they were first
        shipped, so each update costs its *new* lineage, not the accumulated
        history.  A deletion resets the target's memo: the receiver
        garbage-collects the retracted facts' lineage, so later
        re-insertions must re-ship their closure (re-recording shipped
        derivations is idempotent on the receiving side).  Empty when
        provenance is not enabled.
        """
        tracker = self.engine.provenance
        if tracker is None:
            return ()
        graph = tracker.graph
        sent = self._sent_derivations.setdefault(target, set())
        lineage = self._sent_lineage_facts.setdefault(target, set())
        if deleted:
            sent.clear()
            lineage.clear()
        return self._walk_closure(graph, sent, lineage, sorted(inserted, key=str))

    def _walk_closure(self, graph, sent: set, lineage: set,
                      frontier: List[Fact]) -> Tuple[ProvenanceDerivation, ...]:
        """Collect the unshipped derivation closure of ``frontier`` facts,
        updating the target's shipping memo and lineage-fact set."""
        collected: List[ProvenanceDerivation] = []
        seen: set = set()
        while frontier:
            fact = frontier.pop()
            if fact in seen:
                continue
            seen.add(fact)
            for derivation in graph.derivations_of(fact):
                key = derivation.key()
                if key in sent:
                    continue
                sent.add(key)
                lineage.add(derivation.fact)
                lineage.update(derivation.support)
                collected.append(derivation)
                frontier.extend(derivation.support)
        return tuple(collected)

    def _fresh_derivations(self) -> Dict[str, Tuple[ProvenanceDerivation, ...]]:
        """Route newly recorded derivations to targets holding their facts.

        A fact that gains an *alternative* derivation is itself unchanged,
        so no update message exists to carry the new lineage — without this,
        a receiver's explain/ACL answers would stay pinned to the first
        derivation ever shipped.  Each fresh derivation goes to every target
        whose shipped lineage contains its fact (the per-target memo already
        holds everything shipped through the normal update path this stage).
        """
        tracker = self.engine.provenance
        if tracker is None:
            return {}
        graph = tracker.graph
        fresh = tracker.drain_new_derivations()
        if not fresh:
            return {}
        routed: Dict[str, Tuple[ProvenanceDerivation, ...]] = {}
        for target, lineage in self._sent_lineage_facts.items():
            relevant = [d for d in fresh
                        if d.fact in lineage
                        and d.key() not in self._sent_derivations[target]]
            if not relevant:
                continue
            sent = self._sent_derivations[target]
            collected: List[ProvenanceDerivation] = []
            for derivation in relevant:
                if derivation.key() in sent:
                    continue
                sent.add(derivation.key())
                lineage.add(derivation.fact)
                lineage.update(derivation.support)
                collected.append(derivation)
                # New supports may be facts never shipped: carry their
                # lineage too, so the receiver reaches base facts.
                collected.extend(self._walk_closure(
                    graph, sent, lineage, list(derivation.support)))
            if collected:
                routed[target] = tuple(collected)
        return routed

    def _schemas_for(self, template: Rule) -> Tuple[RelationSchema, ...]:
        """Schemas (known locally) of the relations a template mentions."""
        schemas: List[RelationSchema] = []
        seen = set()
        atoms: Tuple[Atom, ...] = (template.head, *template.body[1:])
        for atom in atoms:
            relation = atom.relation_constant()
            peer = atom.peer_constant()
            if relation is None or peer is None:
                continue
            schema = self.engine.state.schemas.get(relation, peer)
            if schema is not None and schema.qualified_name not in seen:
                seen.add(schema.qualified_name)
                schemas.append(schema)
        return tuple(schemas)
