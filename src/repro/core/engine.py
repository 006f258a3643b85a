"""The WebdamLog per-peer engine.

A computation **stage** of a peer is broken down into the three steps
described in the paper:

1. the peer loads the inputs received from the remote peers since the
   previous stage (fact updates and delegations);
2. the peer runs a fixpoint computation of its program (its own rules plus
   the rules delegated to it);
3. the peer sends facts (updates) and rules (delegations) to other peers.

:class:`WebdamLogEngine` implements exactly this loop for one peer, step 2 in
:mod:`repro.core.maintenance`.  It is transport-agnostic: incoming inputs are
pushed through ``receive_*`` methods (by the runtime layer, by wrappers, or
directly by tests), and the outputs of a stage are returned in a
:class:`StageResult` for the caller to deliver.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
                    Union)

from repro.core.delegation import Delegation, Shape, binding_relation, shape_of
from repro.core.errors import EvaluationError, SchemaError, StratificationError
from repro.core.evaluation import RuleOutcome
from repro.core.facts import Delta, Fact
from repro.core.maintenance import Maintenance
from repro.core.metrics import Metrics
from repro.core.parser import ParsedProgram, parse_fact, parse_program, parse_rule
from repro.core.rules import Rule
from repro.core.schema import RelationSchema, SchemaRegistry
from repro.core.state import PeerState
# The module, not the function: stratification imports repro.core in turn.
from repro.datalog import stratification
from repro.planner import BodyPlanner, StatsProvider
from repro.provenance.graph import ProvenanceTracker
from repro.store.backend import resolve_backend


@dataclass(frozen=True)
class OutgoingUpdate:
    """Fact updates addressed to one remote peer.

    ``deleted`` are the user's explicit deletions, which apply to a relation
    of either kind; ``withdrawn`` are facts the rules derived for the peer
    and no longer derive, which only its intensional relations give up (a
    derived fact in an extensional relation is an update, and stays).
    """

    target: str
    inserted: FrozenSet[Fact] = frozenset()
    deleted: FrozenSet[Fact] = frozenset()
    withdrawn: FrozenSet[Fact] = frozenset()

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted) + len(self.withdrawn)

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted or self.withdrawn)


@dataclass
class StageResult:
    """Everything produced by one computation stage of a peer."""

    peer: str
    stage: int
    consumed_inputs: int = 0
    fixpoint_iterations: int = 0
    rules_evaluated: int = 0
    substitutions_explored: int = 0
    derived_intensional: int = 0
    derived_changed: bool = False
    deferred_local_updates: int = 0
    #: Which fixpoint strategy the stage used: ``"full"`` (recompute every
    #: derived relation — an engine's first stage, unless it resumed from a
    #: committed fixpoint), ``"delta"``
    #: (seminaive over the inserted facts and the added rules),
    #: ``"rederive"`` (delete-and-rederive: on the deleted tuples'
    #: consequences for a fact deletion; on the affected predicate closure
    #: when the delta reaches negation, a rule with a local intensional head
    #: was removed or a relation became intensional) or ``"skip"`` (nothing
    #: changed that a local rule reads — nothing evaluated at all).
    evaluation_path: str = "full"
    #: The ids of the rules that changed a derived fact or grew their memo
    #: (what step 3 diffs) this stage, in the order they first did.
    changing_rules: List[str] = field(default_factory=list)
    outgoing_updates: List[OutgoingUpdate] = field(default_factory=list)
    #: The templates targets learn before their first binding, the bindings
    #: installed and retracted (:mod:`repro.core.delegation`), and the
    #: ``(target, shape)`` templates no rule binds any more.
    templates_to_install: List[Shape] = field(default_factory=list)
    delegations_to_install: List[Delegation] = field(default_factory=list)
    delegations_to_retract: List[Delegation] = field(default_factory=list)
    templates_to_retract: List[Tuple[str, str]] = field(default_factory=list)

    def outgoing_fact_count(self) -> int:
        """Total number of facts shipped to remote peers this stage."""
        return sum(len(update) for update in self.outgoing_updates)

    def has_outgoing(self) -> bool:
        """``True`` when the stage produced anything for other peers."""
        return bool(self.outgoing_updates or self.delegations_to_install
                    or self.delegations_to_retract or self.templates_to_retract)

    def is_quiescent(self) -> bool:
        """``True`` when the stage neither consumed inputs nor produced changes.

        A network of peers has converged when every peer reports a quiescent
        stage and no messages are in flight.
        """
        return (self.consumed_inputs == 0
                and not self.has_outgoing()
                and not self.derived_changed
                and self.deferred_local_updates == 0)


class WebdamLogEngine:
    """The WebdamLog engine of a single peer."""

    def __init__(self, peer: str, schemas: Optional[SchemaRegistry] = None,
                 storage=None, storage_options: Optional[Dict] = None):
        self.peer = peer
        # The peer's one registry of work counts (see repro.core.metrics):
        # the backend, the planner and the peer's replication bump it too.
        self.metrics: Metrics = Counter()
        backend = resolve_backend(storage, peer=peer, options=storage_options)
        backend.metrics = self.metrics
        self.state = PeerState(peer, schemas, backend=backend)
        # Cost-based ordering of every rule body's local prefix.
        self._planner = BodyPlanner(peer, StatsProvider(self.state), self.metrics)
        # Monotonically increasing program version: bumped by the first stage
        # that finds another rule set (see core/maintenance.py).  The planner's
        # plan cache is keyed on it, so uninstalling a view's rules can never
        # leave a stale plan.
        self.program_version = 0
        # Optional provenance tracker (see :mod:`repro.provenance`): when set,
        # every derivation of the fixpoint is recorded through its ``record``
        # method, which the access-control view policies build upon, and its
        # maintenance hooks (``on_tuples_deleted`` / ``on_base_deleted`` /
        # ``on_rederive`` / ``on_full_recompute``) keep the graph consistent
        # along the delta and rederive stages.
        self.provenance: Optional[ProvenanceTracker] = None
        # Facts addressed to remote peers by the local user (or wrappers),
        # flushed at the next stage.
        self._pending_remote_inserts: Dict[str, Set[Fact]] = {}
        self._pending_remote_deletes: Dict[str, Set[Fact]] = {}
        # The facts the rules derive for remote peers as last shipped (the
        # outcome's own set, never written): the next stage ships only its
        # signed diff against them.
        self._sent_remote: Set[Fact] = set()
        # Whether the engine needs a stage for reasons the stores cannot see:
        # raised by every method that hands it input (rule or program
        # changes, received facts and delegations, facts queued for remote
        # peers); a completed stage lowers it unless it leaves work to its
        # successor.  Starts ``True``: a freshly built peer has never
        # evaluated its program.
        self._dirty = True
        # Step 2 of every stage: the fixpoint, maintained from what changed.
        self._maintenance = Maintenance(self)
        # The outcome _emit_outputs last diffed (an idle stage hands it again).
        self._emitted: Optional[RuleOutcome] = None
        # Deletions performed by end-of-stage housekeeping (scratch relation
        # clears, scratch provided facts) that the next fixpoint must treat
        # as part of its input delta.
        self._carryover_delta: Delta = Delta.empty()

    # ------------------------------------------------------------------ #
    # program loading and direct updates (the "user" API)
    # ------------------------------------------------------------------ #

    def load_program(self, program: Union[str, ParsedProgram]) -> ParsedProgram:
        """Load a WebdamLog program (text or already parsed).

        Schema declarations are registered, facts of local relations are
        inserted, facts of remote relations are queued to be pushed at the
        next stage, and rules are added to the peer's own program — on a
        reopened peer, only those its store does not hold already.  Raises
        :class:`~repro.core.errors.StratificationError` before any of that
        when its rules and declarations would close a cycle through
        negation.
        """
        if isinstance(program, str):
            program = parse_program(program, default_peer=self.peer, author=self.peer)
        self._check_stratifiable(program.rules, program.schemas)
        for schema in program.schemas:
            self._declare(schema)
        for fact in program.facts:
            if fact.peer == self.peer:
                self.state.insert_fact(fact)
            else:
                self.send_fact(fact)
        for rule in program.rules:
            self.state.load_rule(rule)
        self.mark_dirty()
        return program

    def declare(self, schema: RelationSchema) -> RelationSchema:
        """Declare a relation schema.

        Only a relation that *becomes* intensional changes what the engine
        computed so far; re-declaring a known relation (every delegation
        install carries its schemas) changes nothing.  A local relation
        that becomes intensional widens what a head with a variable
        relation derives into: it is refused, like a rule, when that would
        close a cycle through negation.
        """
        if (schema.is_intensional() and schema.peer == self.peer
                and self.state.schemas.get(schema.name, schema.peer) is None):
            self._check_stratifiable((), (schema,))
        return self._declare(schema)

    def _declare(self, schema: RelationSchema) -> RelationSchema:
        """:meth:`declare` without the stratification check."""
        new = self.state.schemas.get(schema.name, schema.peer) is None
        declared = self.state.declare(schema)
        if new and declared.is_intensional():
            if declared.peer == self.peer:
                self._maintenance.newly_intensional.add(declared.qualified_name)
            else:
                # Facts shipped there that vanished since are now view facts
                # to retract: the next stage must diff its outputs again.
                self._emitted = None
        self.mark_dirty()
        return declared

    def add_rule(self, rule: Union[str, Rule]) -> Rule:
        """Add a rule to the peer's own program (parsed if given as text).

        Raises :class:`~repro.core.errors.StratificationError`, and leaves
        the program unchanged, when the rule would close a cycle through
        negation.
        """
        if isinstance(rule, str):
            rule = parse_rule(rule, default_peer=self.peer, author=self.peer)
        self._check_stratifiable((rule,))
        self.mark_dirty()
        return self.state.add_rule(rule)

    def remove_rule(self, rule_id: str) -> Optional[Rule]:
        """Remove an own rule by identifier."""
        removed = self.state.remove_rule(rule_id)
        if removed is not None:
            self.mark_dirty()
        return removed

    def remove_rules(self, rule_ids: Iterable[str]) -> List[Rule]:
        """Remove several own rules at once.

        Used by the live-view machinery to uninstall a compiled query: the
        next stage rederives the closure of the removed heads, which clears
        the view's derived facts, and the delegation diff retracts whatever
        the removed rules had delegated.
        Unknown identifiers are skipped; the removed rules are returned.
        """
        removed = [rule for rule_id in rule_ids
                   if (rule := self.state.remove_rule(rule_id)) is not None]
        if removed:
            self.mark_dirty()
        return removed

    def replace_rule(self, rule_id: str, new_rule: Union[str, Rule]) -> Rule:
        """Replace an own rule (the Wepic *customize rules* operation).

        Refused like :meth:`add_rule` when the new rule would close a cycle
        through negation.
        """
        if isinstance(new_rule, str):
            new_rule = parse_rule(new_rule, default_peer=self.peer, author=self.peer)
        self._check_stratifiable((new_rule,), replacing=rule_id)
        self.mark_dirty()
        return self.state.replace_rule(rule_id, new_rule)

    def rules(self) -> Tuple[Rule, ...]:
        """The peer's own rules."""
        return tuple(self.state.own_rules)

    def installed_delegations(self):
        """Delegations installed at this peer by remote delegators, each
        binding shown as the rule it stands for."""
        return self.state.installed_delegations()

    def insert_fact(self, fact: Union[str, Fact]) -> Delta:
        """Insert a base fact.  Local facts go to the store, remote facts are queued."""
        if isinstance(fact, str):
            fact = parse_fact(fact, default_peer=self.peer)
        if fact.peer == self.peer:
            return self.state.insert_fact(fact)
        self.send_fact(fact)
        return Delta.insertion([fact])

    def insert_facts(self, facts: Iterable[Union[str, Fact]]) -> Delta:
        """Insert many base facts in one batch (the bulk-load fast path).

        Local facts flow through the storage backend's batched insert
        (``executemany`` on SQLite) instead of one round trip per fact;
        remote facts are queued individually like :meth:`insert_fact`.
        Returns the delta of the local insertions.
        """
        local: List[Fact] = []
        for fact in facts:
            if isinstance(fact, str):
                fact = parse_fact(fact, default_peer=self.peer)
            if fact.peer == self.peer:
                local.append(fact)
            else:
                self.send_fact(fact)
        if not local:
            return Delta.empty()
        return self.state.insert_facts(local)

    def delete_fact(self, fact: Union[str, Fact]) -> Delta:
        """Delete a base fact.  Local facts are removed, remote deletions are queued."""
        if isinstance(fact, str):
            fact = parse_fact(fact, default_peer=self.peer)
        if fact.peer == self.peer:
            return self.state.delete_fact(fact)
        self._pending_remote_deletes.setdefault(fact.peer, set()).add(fact)
        self.mark_dirty()
        return Delta.deletion([fact])

    def send_fact(self, fact: Fact) -> None:
        """Queue a fact addressed to a remote peer (shipped at the next stage)."""
        if fact.peer == self.peer:
            raise SchemaError(f"fact {fact} is local; use insert_fact")
        self._pending_remote_inserts.setdefault(fact.peer, set()).add(fact)
        self.mark_dirty()

    # ------------------------------------------------------------------ #
    # transport-facing input methods (step 1 inputs)
    # ------------------------------------------------------------------ #

    def receive_facts(self, sender: str, inserted: Iterable[Fact] = (),
                      deleted: Iterable[Fact] = (),
                      withdrawn: Iterable[Fact] = ()) -> None:
        """Record fact updates received from ``sender`` for the next stage
        (see :class:`OutgoingUpdate` for ``deleted`` and ``withdrawn``).  A
        withdrawal aimed at a relation that is not local and intensional
        changes nothing, so it is not kept and asks for no stage."""
        pending = self.state.pending
        updates = ([(sender, fact) for fact in inserted],
                   [(sender, fact) for fact in deleted],
                   [(sender, fact) for fact in withdrawn
                    if self.state.is_local_intensional(fact)])
        if any(updates):
            pending.inserted_facts.extend(updates[0])
            pending.deleted_facts.extend(updates[1])
            pending.withdrawn_facts.extend(updates[2])
            self.mark_dirty()

    def receive_template(self, sender: str, shape: str, rule: Rule) -> None:
        """Learn ``sender``'s template of ``shape``: it enters the program
        with the first binding of it admitted (:meth:`receive_binding`)."""
        self.state.learn_template(shape, sender, rule)

    def receive_binding(self, sender: str, binding: Fact) -> None:
        """Record a delegation — one binding of a template ``sender`` sent —
        for the next stage, which inserts it.

        The template's first binding puts it in the program: refused with
        :class:`~repro.core.errors.StratificationError`, and nothing
        recorded, when it would close a cycle through negation.  A binding
        of no template ``sender`` sent is dropped."""
        shape = shape_of(binding.relation)
        held = self.state.delegations_in.get(shape)
        if (held is None or held.delegator != sender or binding.peer != self.peer
                or binding.arity != held.rule.body[0].arity):
            return
        if not self._after_inputs(shape)[1]:
            self._check_stratifiable((), activating={shape: held.rule})
            self.state.pending.delegations.append(("activate", shape, held.rule, sender, False))
        self.state.pending.delegations.append(("bind", binding))
        self.mark_dirty()

    def receive_unbinding(self, sender: str, binding: Fact) -> None:
        """Record a delegation retraction — a binding deleted — from its delegator."""
        held = self.state.delegations_in.get(shape_of(binding.relation))
        if held is not None and held.delegator == sender:
            self.state.pending.delegations.append(("unbind", binding))
            self.mark_dirty()

    def receive_retirement(self, sender: str, shape: str) -> None:
        """Record that ``sender`` retired its template of ``shape``: the
        next stage drops it with every binding of it."""
        if self._after_inputs(shape)[0] == sender:
            self.state.pending.delegations.append(("retire", shape))
            self.mark_dirty()

    def receive_delegation(self, sender: str, delegation_id: str, rule: Rule) -> None:
        """Record a rule delegated whole by ``sender`` for the next stage.

        A rule delegated whole is a template that needs no binding: it is in
        the program exactly while it is installed, under the shape
        ``delegation_id``.  (A delegator's own rules delegate templates
        with bindings; a whole rule arrives from a hand-built message or a
        direct call.)  Refused with
        :class:`~repro.core.errors.StratificationError`, and nothing
        recorded, when it would close a cycle through negation.
        """
        self._check_stratifiable((), activating={delegation_id: rule})
        self.state.pending.delegations.append(
            ("activate", delegation_id, rule, sender, True))
        self.mark_dirty()

    def receive_delegation_retraction(self, sender: str, delegation_id: str) -> None:
        """Record the retraction of a rule ``sender`` delegated whole."""
        self.receive_retirement(sender, delegation_id)

    def _after_inputs(self, shape: str) -> Tuple[Optional[str], bool]:
        """The delegator holding ``shape``, and whether its template is in
        the program, once the waiting inputs are consumed: an unheld shape
        goes to the first delegator whose template activates it."""
        held = self.state.delegations_in.get(shape)
        holder = held.delegator if held is not None else None
        active = self.state.delegations_in.is_active(shape)
        for change in self.state.pending.delegations:
            if change[0] == "activate" and change[1] == shape and holder in (None, change[3]):
                holder, active = change[3], True
            elif change[0] == "retire" and change[1] == shape:
                holder, active = None, False
        return holder, active

    def _templates_after_inputs(self) -> Dict[str, Rule]:
        """The templates in the program once the waiting inputs are consumed."""
        templates = {held.delegation_id: held.rule
                     for held in self.state.delegations_in.active()}
        for change in self.state.pending.delegations:
            if change[0] == "activate":
                templates[change[1]] = change[2]
            elif change[0] == "retire":
                templates.pop(change[1], None)
        return templates

    def _check_stratifiable(self, added: Sequence[Rule],
                            declared: Iterable[RelationSchema] = (),
                            replacing: Optional[str] = None,
                            activating: Mapping[str, Rule] = {}) -> None:
        """Raise :class:`~repro.core.errors.StratificationError` when the
        program the next stage will run has a cycle through negation: the
        own rules (without ``replacing``), the ``added`` rules, the
        ``declared`` schemas, and the templates as :meth:`_consume_inputs`
        will leave them (:meth:`_templates_after_inputs`), with
        ``activating`` (shape to rule) about to enter.  So no later change
        can close a cycle with a waiting delegation that the stage would then
        find, and one already on its way out blocks nothing.

        A template bound to nothing blocks nothing either: when the program
        is refused only because of such templates, they leave it instead
        (they return with their next binding, checked again)."""
        state = self.state
        templates = self._templates_after_inputs()
        templates.update(activating)
        rules = [rule for rule in state.own_rules if rule.rule_id != replacing]
        rules.extend(added)
        intensional = state.schemas.intensional_at(self.peer).union(
            schema.qualified_name for schema in declared
            if schema.peer == self.peer and schema.is_intensional())
        try:
            stratification.stratify([*rules, *templates.values()], intensional)
        except StratificationError:
            idle = {shape for shape in templates
                    if shape not in activating and not self._bound_after_inputs(shape)}
            if not idle:
                raise
            stratification.stratify(
                [*rules, *(rule for shape, rule in templates.items() if shape not in idle)],
                intensional)
            for shape in idle:
                state.deactivate_template(shape)
            state.pending.delegations = [
                change for change in state.pending.delegations
                if not (change[0] == "activate" and change[1] in idle)]

    def _bound_after_inputs(self, shape: str) -> bool:
        """Whether the template of ``shape`` has a binding once the waiting
        inputs are consumed (a rule delegated whole is bound while held)."""
        if self.state.delegations_in.is_whole(shape):
            return True
        relation = binding_relation(shape)
        bound = set(self.state.bindings.facts(relation, self.peer))
        for change in self.state.pending.delegations:
            if change[0] == "activate" and change[1] == shape and change[4]:
                return True
            if change[0] in ("bind", "unbind") and change[1].relation == relation:
                (bound.add if change[0] == "bind" else bound.discard)(change[1])
            elif change[0] == "retire" and change[1] == shape:
                bound.clear()
        return bool(bound)

    def has_pending_input(self) -> bool:
        """``True`` when inputs are waiting to be consumed by the next stage."""
        return (not self.state.pending.is_empty()
                or bool(self.state.deferred_updates)
                or bool(self._pending_remote_inserts)
                or bool(self._pending_remote_deletes))

    def mark_dirty(self) -> None:
        """Flag that the peer's next stage may produce new results.

        Called by every method that hands the engine input — program
        mutations, received facts and delegations, facts queued for remote
        peers — and by the runtime when a wrapper is attached; the
        work-driven schedulers use :meth:`needs_stage` to decide which peers
        to activate.
        """
        self._dirty = True

    def needs_stage(self) -> bool:
        """``True`` when running a stage could change anything.

        A stage consumes: the program (rules, delegations, schemas), the
        pending inputs (:meth:`has_pending_input`), what the previous stage
        left for it (deferred extensional updates; the deletions its
        housekeeping made in scratch relations and their provided facts,
        whose consequences are still derived) and the writes the stores saw
        since.  The last are read off the stores, because wrappers and
        callers write to them directly; every other input arrives through a
        method of this class (or the end of :meth:`run_stage`) that raises
        one flag.  A peer for which all of this is quiet is guaranteed to run
        a quiescent stage — a work-driven scheduler can safely skip it, and
        probes every peer every cycle to find out, hence one flag and not a
        walk over the queues.
        """
        return (self._dirty
                or self.state.store.has_pending_changes()
                or self.state.provided.has_pending_changes())

    # ------------------------------------------------------------------ #
    # the computation stage
    # ------------------------------------------------------------------ #

    def run_stage(self, commit: bool = True) -> StageResult:
        """Run one three-step computation stage and return its outputs.

        ``commit=False`` leaves the stage-boundary transaction open: the
        caller must invoke ``state.commit()`` itself after folding its own
        writes into the same transaction (causal replication persists its
        channel state this way, so the dots and the facts they delivered
        become durable atomically).
        """
        self.state.stage_counter += 1
        result = StageResult(peer=self.peer, stage=self.state.stage_counter)

        # ---- step 1: load inputs ------------------------------------- #
        result.consumed_inputs = self._consume_inputs()

        # ---- step 2: local fixpoint ----------------------------------- #
        input_delta = (self._carryover_delta
                       .merge(self.state.store.peek_delta())
                       .merge(self.state.provided.peek_delta())
                       .merge(self.state.bindings.peek_delta()))
        self._carryover_delta = Delta.empty()
        outcome = self._maintenance.run(input_delta, result)

        # ---- step 3: emit updates and delegations ---------------------- #
        self._emit_outputs(outcome, result)

        # End-of-stage housekeeping.  The deletions these clears perform are
        # carried over into the next fixpoint's input delta: the facts were
        # visible to *this* stage's evaluation, so their consequences must be
        # retracted by the next one.
        # Facts provided to a scratch intensional relation live one stage (as
        # in the PODS model); elsewhere they stay until the sender retracts
        # them, which is the behaviour the Wepic demo relies on.
        housekeeping = Delta.empty()
        scratch = self.state.schemas.scratch_intensional
        if scratch:
            housekeeping = housekeeping.merge(self.state.clear_provided(scratch))
        housekeeping = housekeeping.merge(self.state.store.clear_nonpersistent())
        self._carryover_delta = self._carryover_delta.merge(housekeeping)
        if outcome.local_extensional:
            deferred = {fact for fact in outcome.local_extensional
                        if not self.state.store.contains(fact)}
        else:
            deferred = set()
        self.state.deferred_updates = Delta.insertion(deferred)
        result.deferred_local_updates = len(self.state.deferred_updates)

        metrics = self.metrics
        metrics["core", "substitutions_explored"] += result.substitutions_explored
        metrics["core", "fixpoint_iterations"] += result.fixpoint_iterations
        metrics["core", "rules_evaluated"] += result.rules_evaluated
        metrics["core", f"stages_{result.evaluation_path}"] += 1

        # Delta accounting: the stores accumulated every change since the end
        # of the previous stage (including user updates made between stages);
        # taking the deltas starts the next stage's.  The derived store's net
        # delta nets out intra-stage churn: it says whether a derived relation
        # changed.  Readers learn what changed from their change feeds.
        self.state.store.take_delta()
        self.state.provided.take_delta()
        self.state.bindings.take_delta()
        result.derived_changed = bool(self.state.derived.take_delta())
        # Stage boundary: everything this stage wrote — facts, schemas, rules,
        # delegations — becomes durable in one transaction.  This is the
        # recovery unit: a peer that dies mid-stage reopens at the previous
        # stage boundary, and resumes from it when the commit marks a
        # fixpoint (nothing carried over to the next stage).
        self.state.end_stage(settled=not self._carryover_delta)
        if commit:
            self.state.commit()
        # Everything that raised the flag is consumed (a stage that raises
        # keeps it); these two are inputs of the next stage that no store
        # delta shows.
        self._dirty = bool(deferred or self._carryover_delta)
        return result

    def run_to_quiescence(self, max_stages: int = 50) -> List[StageResult]:
        """Run stages until the peer is locally quiescent (single-peer helper).

        Outgoing messages are *not* delivered anywhere; use
        :class:`repro.runtime.system.WebdamLogSystem` to run a network of
        peers.  Raises :class:`EvaluationError` if quiescence is not reached
        within ``max_stages``.
        """
        results: List[StageResult] = []
        for _ in range(max_stages):
            result = self.run_stage()
            results.append(result)
            if result.is_quiescent():
                return results
        raise EvaluationError(
            f"peer {self.peer} did not reach quiescence within {max_stages} stages"
        )

    def close(self) -> None:
        """Commit outstanding writes and release the storage backend.

        On a durable backend the peer can later be rebuilt over the same
        database and will restore its facts, rules and installed delegations.
        It resumes from the committed fixpoint when nothing was handed to
        the engine or written to its stores since its last stage; otherwise
        its first stage recomputes every view.
        """
        self.state.close(settled=not (self.needs_stage()
                                      or self.state.derived.has_pending_changes()))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(self, relation: str, peer: Optional[str] = None) -> Tuple[Fact, ...]:
        """Facts of ``relation@peer`` currently visible at this peer."""
        return self.state.query(relation, peer)

    def snapshot(self) -> Dict[str, Tuple[Fact, ...]]:
        """Snapshot of every non-empty relation visible at this peer."""
        return self.state.snapshot()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _consume_inputs(self) -> int:
        consumed = 0
        pending = self.state.pending

        # Deferred local extensional updates decided by the previous stage.
        if self.state.deferred_updates:
            consumed += len(self.state.deferred_updates)
            self.state.store.apply(self.state.deferred_updates)
            self.state.deferred_updates = Delta.empty()

        for sender, fact in pending.inserted_facts:
            consumed += 1
            if fact.peer != self.peer:
                # Mis-routed fact; ignore (the runtime should not let this happen).
                continue
            if not self.state.is_local_intensional(fact):
                self.state.store.insert(fact)
            elif fact.arity == self.state.schemas.get(fact.relation, fact.peer).arity:
                self.state.add_provided(fact, sender)
            # else: malformed (not the declared arity); ignored as well.
        for sender, fact in pending.deleted_facts:
            consumed += 1
            if fact.peer != self.peer:
                continue
            if self.state.is_local_intensional(fact):
                self.state.remove_provided(fact, sender)
            else:
                self.state.store.delete(fact)
        for sender, fact in pending.withdrawn_facts:
            consumed += 1
            if self.state.is_local_intensional(fact):
                self.state.remove_provided(fact, sender)
        # Delegations: a template enters the program with its first binding,
        # a binding is a fact, and a retired template goes with its bindings.
        held = self.state.delegations_in
        for change in pending.delegations:
            kind = change[0]
            if kind == "bind":
                consumed += 1
                if held.is_active(shape_of(change[1].relation)):
                    self.state.bindings.insert(change[1])
            elif kind == "unbind":
                if self.state.bindings.delete(change[1]):
                    consumed += 1
            elif kind == "activate":
                _, shape, rule, sender, whole = change
                self.state.learn_template(shape, sender, rule, whole)
                if held.holds(shape, sender, rule):
                    consumed += whole
                    self.state.activate_template(shape)
            elif change[1] in held:
                consumed += 1
                self.state.retire_template(change[1])
        pending.clear()
        return consumed

    def _emit_outputs(self, outcome: RuleOutcome, result: StageResult) -> None:
        if (outcome is self._emitted and not self._pending_remote_inserts
                and not self._pending_remote_deletes):
            # The outcome last diffed, and nothing queued by the user: every
            # sent set and outstanding delegation already matches it; only a
            # removed rule may have left a sent template without its rule.
            if self.state.delegation_tracker.needs_retire():
                self._emit_delegations(outcome, result)
            return
        self._emitted = outcome
        # -- facts derived for remote peers ------------------------------ #
        # The signed diff of what the rules derive for remote peers, against
        # what was last shipped, by target; the set differences walk the
        # stored hashes, so a stage pays a loop over what changed only.
        # Only the receiver knows its relation's kind: an intensional one
        # gives a withdrawn fact up, an extensional one keeps it (the paper's
        # semantics for updates to another peer's extensional relations).
        current = outcome.remote_facts
        derived_updates: Dict[str, Tuple[Set[Fact], Set[Fact]]] = {}
        for side, facts in ((0, current - self._sent_remote),
                            (1, self._sent_remote - current)):
            for fact in facts:
                derived_updates.setdefault(fact.peer, (set(), set()))[side].add(fact)
        self._sent_remote = current

        # -- user-initiated updates to remote relations ------------------ #
        user_targets = set(self._pending_remote_inserts) | set(self._pending_remote_deletes)
        for target in sorted(derived_updates.keys() | user_targets):
            derived_ins, withdrawn = derived_updates.get(target, (set(), set()))
            user_del = self._pending_remote_deletes.pop(target, set())
            update = OutgoingUpdate(
                target=target,
                inserted=frozenset(derived_ins | self._pending_remote_inserts.pop(target, set())),
                deleted=frozenset(user_del), withdrawn=frozenset(withdrawn - user_del))
            if update:
                result.outgoing_updates.append(update)

        self._emit_delegations(outcome, result)

    def _emit_delegations(self, outcome: RuleOutcome, result: StageResult) -> None:
        """The bindings to install and retract, the templates to send first,
        and those to retire, against what the peer has out."""
        tracker = self.state.delegation_tracker
        diff = tracker.diff(outcome.delegations)
        tracker.retire(diff, self.state.all_rules())
        self.state.sent_delegations(diff)
        result.templates_to_install = diff.templates
        result.delegations_to_install = diff.to_install
        result.delegations_to_retract = diff.to_retract
        result.templates_to_retract = diff.retired
