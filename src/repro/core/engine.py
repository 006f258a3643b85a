"""The WebdamLog per-peer engine.

A computation **stage** of a peer is broken down into the three steps
described in the paper:

1. the peer loads the inputs received from the remote peers since the
   previous stage (fact updates and delegations);
2. the peer runs a fixpoint computation of its program (its own rules plus
   the rules delegated to it);
3. the peer sends facts (updates) and rules (delegations) to other peers.

:class:`WebdamLogEngine` implements exactly this loop for one peer.  It is
transport-agnostic: incoming inputs are pushed through ``receive_*`` methods
(by the runtime layer, by wrappers, or directly by tests), and the outputs of
a stage are returned in a :class:`StageResult` for the caller to deliver.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.core.delegation import Delegation, DelegationDiff
from repro.core.errors import EvaluationError, SchemaError
from repro.core.evaluation import (LocationPattern, RuleEvaluator, RuleOutcome,
                                   head_targets, location_pattern, pattern_matches)
from repro.core.facts import Delta, Fact, fact_matches_bindings
from repro.core.parser import ParsedProgram, parse_fact, parse_program, parse_rule
from repro.core.rules import Rule
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry
from repro.core.state import PeerState
# The module, not the function: stratification imports repro.core in turn.
from repro.datalog import stratification
from repro.planner import BodyPlanner, StatsProvider
from repro.provenance.graph import ProvenanceTracker
from repro.store.backend import resolve_backend


def _patterns_of(predicate: str) -> Tuple[LocationPattern, ...]:
    """The four location patterns that agree with ``"rel@peer"``."""
    name, _, owner = predicate.partition("@")
    return (name, owner), (name, None), (None, owner), (None, None)


class _ProgramAnalysis:
    """What a stage needs to know about a peer's current program, computed
    once per program: the strata, each rule's shape (body and head patterns)
    and head targets, and the *reader index* from each body pattern to the
    rules reading it.

    Cached on the engine and rebuilt whenever the rule set changes (own
    rules added/removed/replaced, delegations installed or retracted) or the
    peer's intensional relations do — the cache is validated by object
    identity against ``state.all_rules()``, so any mutation path is seen,
    including ones that bypass the engine API (e.g. the delegation
    controller installing an approved rule).  The superseded analysis is
    what the rule set is diffed against: a program change reaches the
    fixpoint as the rules added and the rules removed.  A rebuild reuses the
    shape of every rule that survives it, matched by identity.

    Dependencies are position-wise.  An atom whose relation or peer is a
    variable is kept as the pattern of its constant position, so
    ``communicate@$attendee`` is re-fired by ``communicate@*`` alone, and the
    closure of a head with a variable position is the finite set
    :func:`~repro.core.evaluation.head_targets` gives: no delta ever asks for
    a full recompute.  A predicate ``rel@peer`` is read exactly by the rules
    filed under one of its four patterns (:func:`_patterns_of`), so
    :meth:`reading` — which the seminaive loop, DRed's over-delete waves and
    the closures below all ask — costs what the delta names, not what the
    program holds.
    """

    __slots__ = ("rules", "local_intensional", "strata", "shape", "targets",
                 "_by_head", "_negated", "_readers", "_stratum_of",
                 "_by_predicate", "_defining")

    def __init__(self, rules: Tuple[Rule, ...], local_intensional: FrozenSet[str],
                 previous: Optional["_ProgramAnalysis"] = None):
        self.rules = rules
        self.local_intensional = local_intensional
        self.strata = stratification.stratify(rules, local_intensional)
        # Keyed by id(rule): the analysis keeps its rules alive, and a stage
        # asks per rule — hashing a Rule walks every term of it.  ``shape``
        # is (distinct body patterns, head pattern, negated body patterns);
        # the targets of one head pattern are one set, shared by its rules.
        self.shape: Dict[int, Tuple[Tuple[LocationPattern, ...], LocationPattern,
                                    Tuple[LocationPattern, ...]]] = {}
        self.targets: Dict[int, FrozenSet[str]] = {}
        shapes = previous.shape if previous is not None else {}
        known = (previous._by_head if previous is not None
                 and previous.local_intensional is local_intensional else {})
        self._by_head: Dict[LocationPattern, FrozenSet[str]] = {}
        self._readers: Dict[LocationPattern, List[int]] = {}
        negated: Set[LocationPattern] = set()
        for position, rule in enumerate(rules):
            key = id(rule)
            shape = shapes.get(key)
            if shape is None:
                shape = (tuple(dict.fromkeys(map(location_pattern, rule.body))),
                         location_pattern(rule.head),
                         tuple(location_pattern(atom) for atom in rule.body
                               if atom.negated))
            self.shape[key] = shape
            head = shape[1]
            if head not in self._by_head:
                self._by_head[head] = known.get(head) or frozenset(
                    head_targets(head, local_intensional))
            self.targets[key] = self._by_head[head]
            for pattern in shape[0]:
                self._readers.setdefault(pattern, []).append(position)
            negated.update(shape[2])
        self._negated = frozenset(negated)
        self._stratum_of: Dict[int, int] = {
            id(rule): number for number, stratum in enumerate(self.strata)
            for rule in stratum} if len(self.strata) > 1 else {}
        # predicate -> positions of its readers, filled as stages ask.
        self._by_predicate: Dict[str, Tuple[int, ...]] = {}
        self._defining: Dict[str, List[Rule]] = {}

    def matches(self, rules: Tuple[Rule, ...]) -> bool:
        """``True`` when the analysis still describes exactly these rules."""
        return len(self.rules) == len(rules) and all(
            map(operator.is_, self.rules, rules))

    def changes(self, rules: Tuple[Rule, ...]) -> Tuple[List[Rule], List[Rule]]:
        """``(added, removed)``: ``rules`` against the analysed ones, by identity."""
        current = {id(rule) for rule in rules}
        return ([rule for rule in rules if id(rule) not in self.shape],
                [rule for rule in self.rules if id(rule) not in current])

    def _readers_of(self, predicate: str) -> Tuple[int, ...]:
        positions = self._by_predicate.get(predicate)
        if positions is None:
            found: Set[int] = set()
            for pattern in _patterns_of(predicate):
                found.update(self._readers.get(pattern, ()))
            positions = self._by_predicate[predicate] = tuple(sorted(found))
        return positions

    def reading(self, predicates: Iterable[str],
                stratum: Optional[int] = None) -> List[Rule]:
        """The rules whose body reads one of ``predicates``, in written order
        (only the rules of stratum number ``stratum`` when given)."""
        found: Set[int] = set()
        for predicate in predicates:
            found.update(self._readers_of(predicate))
        rules = [self.rules[position] for position in sorted(found)]
        if stratum is not None and self._stratum_of:
            rules = [rule for rule in rules if self._stratum_of[id(rule)] == stratum]
        return rules

    def defining(self, predicate: str) -> List[Rule]:
        """The rules whose head agrees with ``predicate`` (kept per predicate)."""
        rules = self._defining.get(predicate)
        if rules is None:
            rules = self._defining[predicate] = [
                rule for rule in self.rules
                if pattern_matches(self.shape[id(rule)][1], predicate)]
        return rules

    def feeds_itself(self, rules: List[Rule]) -> bool:
        """``True`` when one of ``rules`` reads a predicate one of them
        derives into: only then can a second pass over them find more."""
        targets: Set[str] = set()
        for rule in rules:
            targets |= self.targets[id(rule)]
        ids = {id(rule) for rule in rules}
        return any(id(rule) in ids for rule in self.reading(targets))

    def reaches_negation(self, seed_predicates: Set[str]) -> bool:
        """``True`` when facts new in the seed predicates can reach a negated
        body occurrence — directly, or through the heads they derive into.

        Follows rule bodies forward to heads only (unlike
        :meth:`affected_closure` it does not pull in sibling definitions of
        reached heads — it answers "what can this delta change", not "what
        must be recomputed").
        """
        if not self._negated:
            return False
        reachable = set(seed_predicates)
        frontier = reachable
        while frontier:
            grown: Set[str] = set()
            for rule in self.reading(frontier):
                grown |= self.targets[id(rule)]
            frontier = grown - reachable
            reachable |= frontier
        return any(pattern in self._negated
                   for predicate in reachable for pattern in _patterns_of(predicate))

    def affected_closure(self, seed_predicates: Set[str],
                         seed_rules: List[Rule],
                         shipped: Callable[[Rule], Set[str]]
                         ) -> Tuple[Set[str], Set[Rule]]:
        """Predicates and rules transitively reachable from a delta.

        A rule is affected when it is a seed rule, its body reads an affected
        predicate *or* its head derives into one (every definition of a
        cleared predicate must re-fire, not only the ones the delta touched).
        Every predicate an affected rule derives into is affected in turn;
        for a head with a variable position that is its local targets plus
        ``shipped(rule)``, the predicates of what it has sent or deferred so
        far (their recorded derivations die with the rule's memo).
        """
        closed = {id(rule) for rule in seed_rules}
        affected_rules: Set[Rule] = set(seed_rules)
        targets: Dict[int, FrozenSet[str]] = {}
        deriving: Dict[str, List[Rule]] = {}
        fresh = set(seed_predicates)
        for rule in self.rules:
            key = id(rule)
            into = self.targets[key]
            if None in self.shape[key][1]:
                into = into | shipped(rule)
            targets[key] = into
            if key in closed:
                fresh |= into
            else:
                for predicate in into:
                    deriving.setdefault(predicate, []).append(rule)
        affected = set(fresh)
        while fresh:
            candidates = self.reading(fresh)
            for predicate in fresh:
                candidates.extend(deriving.get(predicate, ()))
            fresh = set()
            for rule in candidates:
                key = id(rule)
                if key not in closed:
                    closed.add(key)
                    affected_rules.add(rule)
                    fresh |= targets[key]
            fresh -= affected
            affected |= fresh
        return affected, affected_rules


@dataclass(frozen=True)
class OutgoingUpdate:
    """Fact updates addressed to one remote peer."""

    target: str
    inserted: FrozenSet[Fact] = frozenset()
    deleted: FrozenSet[Fact] = frozenset()

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def __bool__(self) -> bool:
        return bool(self.inserted) or bool(self.deleted)


#: The one empty set every stage without masked deletions shares
#: (``frozenset()`` allocates a new object per call).
_NO_FACTS: FrozenSet[Fact] = frozenset()


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
    #: derived relation — an engine's first stage), ``"delta"``
    #: (seminaive over the inserted facts and the added rules),
    #: ``"rederive"`` (delete-and-rederive: on the deleted tuples'
    #: consequences for a fact deletion; on the affected predicate closure
    #: when the delta reaches negation, a rule with a local intensional head
    #: was removed or a relation became intensional) or ``"skip"`` (nothing
    #: changed that a local rule reads — nothing evaluated at all).
    evaluation_path: str = "full"
    outgoing_updates: List[OutgoingUpdate] = field(default_factory=list)
    delegations_to_install: List[Delegation] = field(default_factory=list)
    delegations_to_retract: List[Delegation] = field(default_factory=list)
    #: Net change of the facts *visible* at the peer during this stage —
    #: extensional, derived and provided facts combined, with deletions that
    #: are still visible through another source filtered out.  This is what
    #: the :mod:`repro.api` subscription machinery consumes, so observers are
    #: fed from deltas as stages complete instead of re-scanning relations.
    visible_delta: Delta = field(default_factory=Delta.empty)
    #: The deletions filtered out of ``visible_delta``: one source dropped
    #: the fact, another still holds it.  ``fact_view`` yields a fact once
    #: per source holding it, so a reader that counts rows (an aggregate
    #: live view) must learn of these too.  Almost always empty.
    masked_deletions: FrozenSet[Fact] = _NO_FACTS

    def outgoing_fact_count(self) -> int:
        """Total number of facts shipped to remote peers this stage."""
        return sum(len(update) for update in self.outgoing_updates)

    def outgoing_message_count(self) -> int:
        """Number of messages (updates + delegation installs/retracts) emitted."""
        return (len(self.outgoing_updates) + len(self.delegations_to_install)
                + len(self.delegations_to_retract))

    def has_outgoing(self) -> bool:
        """``True`` when the stage produced anything for other peers."""
        return bool(self.outgoing_updates or self.delegations_to_install
                    or self.delegations_to_retract)

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
        backend = resolve_backend(storage, peer=peer, options=storage_options)
        self.state = PeerState(peer, schemas, backend=backend)
        # Cost-based ordering of every rule body's local prefix.
        self._planner = BodyPlanner(peer, StatsProvider(self.state))
        # Monotonically increasing program version: bumped whenever the rule
        # set changes (rules added/removed/replaced, delegations installed or
        # retracted, programs loaded).  The planner's plan cache is keyed on
        # it, so uninstalling a view's rules can never leave a stale plan.
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
        # Facts previously shipped to each target as the result of rule
        # derivations; used to avoid re-sending and to retract view facts.
        self._sent_remote: Dict[str, Set[Fact]] = {}
        # Whether the engine needs a stage for reasons the stores cannot see:
        # raised by every method that hands it input (rule or program
        # changes, received facts and delegations, facts queued for remote
        # peers); a completed stage lowers it unless it leaves work to its
        # successor.  Starts ``True``: a freshly built peer has never
        # evaluated its program.
        self._dirty = True
        # --- incremental-fixpoint state --------------------------------- #
        # Dependency analysis of the program the last fixpoint evaluated
        # (``None`` before the first stage), checked by identity against
        # state.all_rules() at every stage: a changed rule set is diffed
        # against it, so the fixpoint sees the rules added and removed.
        self._analysis: Optional[_ProgramAnalysis] = None
        # Local relations declared intensional since the last fixpoint: heads
        # deriving into them were classified extensional until now, so their
        # definitions re-fire (the rule-set identity check cannot see this).
        self._newly_intensional: Set[str] = set()
        # Per-rule cumulative outputs (remote facts, delegations, deferred
        # extensional updates) of the last fixpoint.  The stage outcome fed
        # to _emit_outputs is the union over the current rules, so skipping
        # un-affected rules never loses (or spuriously retracts) outputs.
        self._rule_memo: Dict[Rule, RuleOutcome] = {}
        # That union, kept until a memo entry changes (``None`` = stale), and
        # the union _emit_outputs last diffed: an idle stage hands the same
        # object over again and has nothing to send.
        self._outcome: Optional[RuleOutcome] = None
        self._emitted: Optional[RuleOutcome] = None
        # Deletions performed by end-of-stage housekeeping (scratch relation
        # clears, scratch provided facts) that the next fixpoint must treat
        # as part of its input delta.
        self._carryover_delta: Delta = Delta.empty()
        # Lifetime work counters across all stages (benchmark / test probes).
        self.eval_counters: Dict[str, int] = {
            "substitutions_explored": 0,
            "fixpoint_iterations": 0,
            "rules_evaluated": 0,
            "stages_full": 0,
            "stages_delta": 0,
            "stages_rederive": 0,
            "stages_skip": 0,
            "plans_computed": 0,
            "plans_cached": 0,
            "plans_reordered": 0,
        }

    # ------------------------------------------------------------------ #
    # program loading and direct updates (the "user" API)
    # ------------------------------------------------------------------ #

    def load_program(self, program: Union[str, ParsedProgram]) -> ParsedProgram:
        """Load a WebdamLog program (text or already parsed).

        Schema declarations are registered, facts of local relations are
        inserted, facts of remote relations are queued to be pushed at the
        next stage, and rules are added to the peer's own program.  Raises
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
            self.state.add_rule(rule)
        self._invalidate_program_cache()
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
                self._newly_intensional.add(declared.qualified_name)
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
        self._invalidate_program_cache()
        self.mark_dirty()
        return self.state.add_rule(rule)

    def remove_rule(self, rule_id: str) -> Optional[Rule]:
        """Remove an own rule by identifier."""
        removed = self.state.remove_rule(rule_id)
        if removed is not None:
            self._invalidate_program_cache()
            self.mark_dirty()
        return removed

    def remove_rules(self, rule_ids: Iterable[str]) -> List[Rule]:
        """Remove several own rules at once (one cache invalidation).

        Used by the live-view machinery to uninstall a compiled query: the
        next stage rederives the closure of the removed heads, which clears
        the view's derived facts, and the delegation diff retracts whatever
        the removed rules had delegated.
        Unknown identifiers are skipped; the removed rules are returned.
        """
        removed = [rule for rule_id in rule_ids
                   if (rule := self.state.remove_rule(rule_id)) is not None]
        if removed:
            self._invalidate_program_cache()
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
        self._invalidate_program_cache()
        self.mark_dirty()
        return self.state.replace_rule(rule_id, new_rule)

    def _invalidate_program_cache(self) -> None:
        """Bump :attr:`program_version` (the rule set is about to change).

        The version keys the planner's plan cache — so removing rules (e.g.
        a live view uninstalling its magic predicates on ``close()``) can
        never leave a stale plan behind.  The program analysis is *kept*:
        the next fixpoint diffs the new rule set against it.
        """
        self.program_version += 1
        self._planner.sync(self.program_version)

    def rules(self) -> Tuple[Rule, ...]:
        """The peer's own rules."""
        return tuple(self.state.own_rules)

    def installed_delegations(self):
        """Delegations installed at this peer by remote delegators."""
        return self.state.delegations_in.all()

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
                      deleted: Iterable[Fact] = ()) -> None:
        """Record fact updates received from ``sender`` for the next stage."""
        for fact in inserted:
            self.state.pending.inserted_facts.append((sender, fact))
        for fact in deleted:
            self.state.pending.deleted_facts.append((sender, fact))
        self.mark_dirty()

    def receive_delegation(self, sender: str, delegation_id: str, rule: Rule) -> None:
        """Record a delegation install received from ``sender`` for the next stage.

        A delegated rule can close a cycle through negation that neither
        peer's own program shows: such a delegation is refused with
        :class:`~repro.core.errors.StratificationError`, and nothing is
        recorded.
        """
        install = (sender, delegation_id, rule)
        self._check_stratifiable((), installing=(install,))
        self.state.pending.delegations_to_install.append(install)
        self.mark_dirty()

    def _check_stratifiable(self, added: Sequence[Rule],
                            declared: Iterable[RelationSchema] = (),
                            replacing: Optional[str] = None,
                            installing: Sequence[Tuple[str, str, Rule]] = ()) -> None:
        """Raise :class:`~repro.core.errors.StratificationError` when the
        program the next stage will run has a cycle through negation: the
        own rules (without ``replacing``), the ``added`` rules, the
        ``declared`` schemas, and the delegations as :meth:`_consume_inputs`
        will leave them — the waiting installs (and ``installing``, the
        ``(sender, delegation_id, rule)`` about to wait) applied in order,
        then the waiting retractions their delegator sent.  So no later
        change can close a cycle with a waiting install that the stage would
        then find, and a delegation already on its way out blocks nothing."""
        delegated = {installed.delegation_id: (installed.delegator, installed.rule)
                     for installed in self.state.delegations_in.all()}
        pending = self.state.pending
        for sender, delegation_id, rule in (*pending.delegations_to_install, *installing):
            delegated[delegation_id] = (sender, rule)
        for sender, delegation_id in pending.delegations_to_retract:
            installed = delegated.get(delegation_id)
            if installed is not None and installed[0] == sender:
                del delegated[delegation_id]
        rules = [rule for rule in self.state.own_rules if rule.rule_id != replacing]
        rules.extend(rule for _, rule in delegated.values())
        rules.extend(added)
        intensional = self.state.schemas.intensional_at(self.peer).union(
            schema.qualified_name for schema in declared
            if schema.peer == self.peer and schema.is_intensional())
        stratification.stratify(rules, intensional)

    def receive_delegation_retraction(self, sender: str, delegation_id: str) -> None:
        """Record a delegation retraction received from ``sender`` for the next stage."""
        self.state.pending.delegations_to_retract.append((sender, delegation_id))
        self.mark_dirty()

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
        outcome = self._run_fixpoint(result)

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

        # Lifetime work accounting (benchmarks and tests read these).
        counters = self.eval_counters
        counters["substitutions_explored"] += result.substitutions_explored
        counters["fixpoint_iterations"] += result.fixpoint_iterations
        counters["rules_evaluated"] += result.rules_evaluated
        counters[f"stages_{result.evaluation_path}"] += 1
        counters.update(self._planner.counters)

        # Delta accounting: the stores accumulated every change since the end
        # of the previous stage (including user updates made between stages).
        # Taking the deltas here nets out intra-stage churn — in particular
        # the clear-and-recompute of the derived store, whose net delta is
        # exactly "what changed in the derived relations this stage".
        store_delta = self.state.store.take_delta()
        derived_delta = self.state.derived.take_delta()
        provided_delta = self.state.provided.take_delta()
        result.derived_changed = bool(derived_delta)
        result.visible_delta, result.masked_deletions = self._visible_delta(
            store_delta, derived_delta, provided_delta)
        # Stage boundary: everything this stage wrote — facts, schemas, rules,
        # delegations — becomes durable in one transaction.  This is the
        # recovery unit: a peer that dies mid-stage reopens at the previous
        # stage boundary.
        if commit:
            self.state.commit()
        # Everything that raised the flag is consumed (a stage that raises
        # keeps it); these two are inputs of the next stage that no store
        # delta shows.
        self._dirty = bool(deferred or self._carryover_delta)
        return result

    def _visible_delta(self, store_delta: Delta, derived_delta: Delta,
                       provided_delta: Delta) -> Tuple[Delta, FrozenSet[Fact]]:
        """Combine the per-source deltas into one delta of *visible* facts.

        A fact reported deleted by one source may still be visible through
        another (e.g. a derivation that vanished while the same fact is still
        provided by a remote sender); such deletions are dropped so the delta
        describes actual visibility transitions, and returned beside it.
        """
        combined = store_delta.merge(derived_delta).merge(provided_delta)
        if not combined.deleted:
            return combined, _NO_FACTS
        still_visible = {
            fact for fact in combined.deleted
            if self.state.provided.contains(fact)
            or self.state.derived.contains(fact)
            or self.state.store.contains(fact)
        }
        if not still_visible:
            return combined, _NO_FACTS
        return (Delta(combined.inserted, combined.deleted - still_visible),
                frozenset(still_visible))

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
        """
        self.state.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(self, relation: str, peer: Optional[str] = None) -> Tuple[Fact, ...]:
        """Facts of ``relation@peer`` currently visible at this peer."""
        return self.state.query(relation, peer)

    def snapshot(self) -> Dict[str, Tuple[Fact, ...]]:
        """Snapshot of every non-empty relation visible at this peer."""
        return self.state.snapshot()

    def counts(self) -> Dict[str, int]:
        """Size counters of the peer state plus lifetime work counters."""
        combined = self.state.counts()
        combined.update(self.eval_counters)
        return combined

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
        for sender, delegation_id, rule in pending.delegations_to_install:
            consumed += 1
            known = self.state.delegations_in.get(delegation_id)
            if (known is not None and known.delegator == sender
                    and known.rule == rule):
                # A duplicated install delivery is a strict no-op, like a
                # duplicated retraction below.
                continue
            self.state.install_delegation(delegation_id, sender, rule)
            self._invalidate_program_cache()
        for sender, delegation_id in pending.delegations_to_retract:
            installed = self.state.retract_delegation(delegation_id)
            if installed is None:
                # Unknown (or already-retracted) delegation: a duplicated
                # retraction delivery must be a strict no-op — in particular
                # it must not invalidate the program cache, whose resulting
                # recompute would touch provenance support counts twice.
                continue
            if installed.delegator != sender:
                # Only the original delegator may retract; re-install (the
                # rule set is net unchanged, so the cache stays valid too).
                self.state.install_delegation(
                    delegation_id, installed.delegator, installed.rule
                )
                continue
            consumed += 1
            self._invalidate_program_cache()
        pending.clear()
        return consumed

    def _run_fixpoint(self, result: StageResult) -> RuleOutcome:
        """Run the local fixpoint, choosing its path from *what changed*:
        the input delta, the rules added and removed since the last fixpoint,
        and the local relations that became intensional.

        * **full** — recompute every local intensional relation, stratum by
          stratum, a recursive one draining deltas as ``delta`` does.  Only
          the first stage of an engine and primary-key displacement take it.
        * **skip** — nothing changed that a local rule reads: the memoised
          outcome is returned without evaluating anything.  Removed rules
          with remote heads need no more than this — dropping their memo
          makes :meth:`_emit_outputs` retract what they had shipped.
        * **delta** — facts were only inserted, rules only added, and neither
          reaches a negated literal: added rules are evaluated once in full,
          then each stratum drains the delta of the facts new this stage.
        * **rederive** — the delta contains deletions.  Delete-and-rederive
          on *tuples* (:meth:`_fixpoint_dred`): the consequences of the
          deleted facts are over-deleted along the delta rules, each is
          probed for a derivation that survives, and the seminaive pass picks
          up from what was rederived and inserted.  No relation is cleared
          and the cost follows the deleted tuples' consequences.  Three
          triggers still clear *predicates* (:meth:`_fixpoint_rederive` on
          the affected closure, added rules included; rules and relations
          outside it untouched), because they invalidate facts no deleted
          tuple names: a delta (or an added rule's head) that reaches a
          negated literal, a local relation that became intensional, and a
          removed rule that derived into a local intensional relation (under
          a provenance tracker: into any relation — its recorded derivations
          die with the predicates' and the sibling definitions re-record
          theirs).

        In every case the outcome handed to :meth:`_emit_outputs` is the
        union of the per-rule memo, so remote updates, delegations and
        deferred extensional writes diff against complete sets — exactly what
        a full recompute would have produced.

        What depends only on the program — strata, head targets, which rules
        read which predicates — comes from the cached
        :class:`_ProgramAnalysis`, rebuilt only when the rule set or the
        peer's intensional relations (kept by the schema registry) change.
        The rest of a stage is work on its delta: the rules it re-fires are
        looked up by the delta's predicates, not found by testing each rule.
        """
        rules = self.state.all_rules()
        previous = self._analysis
        added: List[Rule] = []
        removed: List[Rule] = []
        reclassified, self._newly_intensional = self._newly_intensional, set()
        local_intensional = self.state.schemas.intensional_at(self.peer)
        rules_changed = previous is None or not previous.matches(rules)
        if rules_changed or previous.local_intensional is not local_intensional:
            analysis = self._analysis = _ProgramAnalysis(
                rules, local_intensional, previous)
        else:
            analysis = previous
        if rules_changed:
            if previous is not None:
                added, removed = previous.changes(rules)
            # Identity backstop: rule mutations that bypassed the engine API
            # still move the program version (and drop cached plans).
            self.program_version += 1
            self._planner.sync(self.program_version)

        input_delta = (self._carryover_delta
                       .merge(self.state.store.peek_delta())
                       .merge(self.state.provided.peek_delta()))
        self._carryover_delta = Delta.empty()

        force_full = previous is None

        delta_predicates = ({fact.qualified_relation for fact in input_delta.inserted}
                            | {fact.qualified_relation for fact in input_delta.deleted})
        if not (force_full or delta_predicates or added or removed or reclassified):
            result.evaluation_path = "skip"
            return self._memo_outcome()

        evaluator = self._evaluator()
        if force_full:
            result.evaluation_path = "full"
            return self._fixpoint_rederive(analysis, evaluator, result,
                                           None, None, input_delta.deleted)

        # A removed rule loses its memo, which retracts what it had sent.
        # What it derived into local intensional relations is only found by
        # rederiving those; under a provenance tracker so are the derivations
        # it recorded for *any* head, a remote one included.
        orphaned: Set[str] = set()
        for rule in removed:
            if rule in rules:
                continue  # replaced by an equal rule: nothing was removed
            head = previous.shape[id(rule)][1]
            if self.provenance is None:
                orphaned |= head_targets(head, local_intensional) & local_intensional
            else:
                orphaned |= head_targets(head, local_intensional)
                orphaned |= self._shipped_predicates(rule)
            if self._rule_memo.pop(rule, None) is not None:
                self._outcome = None

        # Negation makes insertions non-monotone: check the *derivation
        # closure* of the new facts against the negated predicates — an
        # insert may only reach a negated occurrence through derived
        # intermediates.
        fresh = set(delta_predicates)
        for rule in added:
            fresh |= analysis.targets[id(rule)]
        if orphaned or reclassified or analysis.reaches_negation(fresh):
            result.evaluation_path = "rederive"
            affected_predicates, affected_rules = analysis.affected_closure(
                delta_predicates | orphaned | reclassified, added,
                self._shipped_predicates)
            outcome = self._fixpoint_rederive(analysis, evaluator, result,
                                              affected_predicates, affected_rules,
                                              input_delta.deleted)
        elif input_delta.deleted:
            result.evaluation_path = "rederive"
            outcome = self._fixpoint_dred(analysis, evaluator, result,
                                          input_delta, added)
        elif delta_predicates or added:
            result.evaluation_path = "delta"
            outcome = self._fixpoint_seminaive(analysis, evaluator, result,
                                               input_delta.inserted, added)
        else:
            result.evaluation_path = "skip"
            return self._memo_outcome()
        return outcome

    def _evaluator(self, fact_source=None) -> RuleEvaluator:
        """The rule evaluator of one stage.

        With a ``fact_source`` of its own, an evaluator that only looks:
        it reads that source and records no derivation.
        """
        looks = fact_source is not None
        return RuleEvaluator(
            peer=self.peer,
            fact_source=fact_source if looks else self.state.fact_view,
            kind_resolver=self.state.kind_of,
            on_derivation=(self.provenance.record
                           if self.provenance is not None and not looks else None),
            planner=self._planner,
        )

    def _shipped_predicates(self, rule: Rule) -> Set[str]:
        """The predicates ``rule`` has sent or deferred facts of so far."""
        entry = self._rule_memo.get(rule)
        if entry is None:
            return set()
        return ({fact.qualified_relation for fact in entry.remote_facts}
                | {fact.qualified_relation for fact in entry.local_extensional})

    def _fixpoint_seminaive(self, analysis: _ProgramAnalysis,
                            evaluator: RuleEvaluator, result: StageResult,
                            inserted: FrozenSet[Fact],
                            added: List[Rule]) -> RuleOutcome:
        """Seminaive pass over an insert-only input delta and added rules.

        The derived store is *not* cleared: previous derivations stay valid
        under insertions (negation is excluded by the caller).  Added rules
        are evaluated once in full, and each stratum drains the delta of the
        facts new this stage (:meth:`_drain`).
        """
        fresh: Dict[str, Set[Fact]] = {}
        for fact in inserted:
            fresh.setdefault(fact.qualified_relation, set()).add(fact)
        if all(self._drain(analysis, evaluator, result, fresh, stratum,
                           added if stratum == 0 else ())
               for stratum in range(len(analysis.strata))):
            return self._memo_outcome()
        # An insertion displaced a derived fact by primary key, which is not
        # monotone: recompute this stage in full.
        result.evaluation_path = "full"
        return self._fixpoint_rederive(analysis, evaluator, result, None, None)

    def _absorb(self, rule: Rule, outcome: RuleOutcome, result: StageResult,
                new_facts: Optional[Set[Fact]], replaced: Optional[Dict] = None,
                displacing: bool = False,
                entered: Optional[Set[Fact]] = None) -> bool:
        """Fold one evaluation of ``rule`` in: count it, merge its memo, collect
        the facts of a ``replaced`` relation and insert the other local
        intensional ones, the new ones into ``new_facts``.  ``False``, at
        once, on a primary-key displacement unless ``displacing``; a
        displaced fact then leaves ``new_facts``.  A fact of ``entered``
        (the facts a drain's deltas took in so far) that comes back, after a
        displacement took it out, raises :class:`EvaluationError`: its key's
        value has cycled, and the drain would repeat it for ever."""
        result.rules_evaluated += 1
        result.substitutions_explored += outcome.substitutions_explored
        self._memo_merge(rule, outcome)
        for fact in outcome.local_intensional:
            if replaced and (into := replaced.get(fact.qualified_relation)):
                into[1].append(fact)
                continue
            insert_delta = self.state.derived.insert(fact)
            if not insert_delta:
                continue
            if insert_delta.deleted:
                if not displacing:
                    return False
                if new_facts is not None:
                    new_facts.difference_update(insert_delta.deleted)
            if entered is not None and fact in entered:
                raise EvaluationError(
                    f"rule {rule.rule_id} ({rule}) derives {fact} into "
                    f"{fact.qualified_relation} again after a displacement took "
                    "it out: the key's value cycles, so the program has no fixpoint")
            result.derived_intensional += 1
            if new_facts is not None:
                new_facts.add(fact)
        return True

    def _drain(self, analysis: _ProgramAnalysis, evaluator: RuleEvaluator,
               result: StageResult, fresh: Dict[str, Set[Fact]], stratum: int,
               first: Sequence[Rule] = (), displacing: bool = False) -> bool:
        """Drain stratum number ``stratum``: evaluate the ``first`` rules in
        full, then re-fire the stratum's readers of the delta, restricted to
        it — first ``fresh`` and what ``first`` inserted, then what the last
        round inserted — until a round inserts nothing.  ``fresh`` gathers
        every delta by predicate; ``False`` as :meth:`_absorb` says, unless
        ``displacing``."""
        delta = {predicate: set(facts) for predicate, facts in fresh.items()}
        new_facts: Set[Fact] = set()
        entered: Optional[Set[Fact]] = set() if displacing else None
        for rule in first:
            if not self._absorb(rule, evaluator.evaluate_rule(rule), result,
                                new_facts, displacing=displacing, entered=entered):
                return False
        while True:
            if entered is not None:
                entered |= new_facts
            for fact in new_facts:
                predicate = fact.qualified_relation
                delta.setdefault(predicate, set()).add(fact)
                fresh.setdefault(predicate, set()).add(fact)
            if not delta:
                return True
            result.fixpoint_iterations += 1
            new_facts = set()
            for rule in analysis.reading(delta, stratum):
                if not self._absorb(rule, evaluator.evaluate_rule_delta(rule, delta),
                                    result, new_facts, displacing=displacing,
                                    entered=entered):
                    return False
            delta = {}

    def _fixpoint_dred(self, analysis: _ProgramAnalysis,
                       evaluator: RuleEvaluator, result: StageResult,
                       input_delta: Delta, added: List[Rule]) -> RuleOutcome:
        """Delete-and-rederive on tuples, for a delta no negation can see.

        1. **Over-delete.**  The deleted input facts that no base source —
           store, provided set — still holds seed a delta, and the delta
           rules fire on it against the *pre-delete* state (today's facts
           plus the seeds; the derived store is not touched yet, nothing is
           recorded): a derivation that used two deleted facts, or one at two
           body positions, is only there.  Whatever they produce that this
           peer holds — a head in the derived store, a remote fact,
           delegation or deferred extensional fact in the producing rule's
           memo — *may* have lost its last derivation; over-deleted heads
           feed the next round.  A seed still in the derived store is
           over-deleted too: it may support itself through a cycle.
        2. **Delete** them from the derived store and the memos.
        3. **Re-derive.**  Each one is asked of its defining rules (a memo
           entry: of the rule that held it) from the substitution it fixes —
           :meth:`RuleEvaluator.derives` — and put back where a derivation
           survives.
        4. **Propagate.**  The seminaive pass runs on the inserted and the
           re-derived facts: it finds what only derives *through* them, and
           records and merges as on the delta path.

        The provenance graph follows by exact removal
        (:meth:`ProvenanceTracker.on_tuples_deleted`): every derivation it
        holds was valid before, and stays valid unless a support stopped
        being visible.
        """
        state = self.state
        derived = state.derived
        dead = {fact for fact in input_delta.deleted
                if not state.provided.contains(fact) and not state.store.contains(fact)}
        overdeleted = {fact for fact in dead if derived.contains(fact)}

        # -- 1. over-delete ------------------------------------------------ #
        seeds: Dict[Tuple[str, str], List[Fact]] = {}
        for fact in dead - overdeleted:
            seeds.setdefault((fact.relation, fact.peer), []).append(fact)

        def before(relation, peer, bindings=None):
            yield from state.fact_view(relation, peer, bindings)
            for fact in seeds.get((relation, peer), ()):
                if not bindings or fact_matches_bindings(fact, bindings):
                    yield fact

        looker = self._evaluator(before)
        lost: Dict[Rule, RuleOutcome] = {}
        wave = dead
        while wave:
            result.fixpoint_iterations += 1
            delta: Dict[str, Set[Fact]] = {}
            for fact in wave:
                delta.setdefault(fact.qualified_relation, set()).add(fact)
            wave = set()
            for rule in analysis.reading(delta):
                outcome = looker.evaluate_rule_delta(rule, delta)
                result.rules_evaluated += 1
                result.substitutions_explored += outcome.substitutions_explored
                for fact in outcome.local_intensional:
                    if fact not in overdeleted and derived.contains(fact):
                        overdeleted.add(fact)
                        wave.add(fact)
                entry = self._rule_memo.get(rule)
                if entry is not None:
                    held = RuleOutcome(
                        local_extensional=outcome.local_extensional & entry.local_extensional,
                        remote_facts=outcome.remote_facts & entry.remote_facts,
                        delegations=outcome.delegations & entry.delegations)
                    if not held.is_empty():
                        lost.setdefault(rule, RuleOutcome()).merge(held)

        # -- 2. delete ------------------------------------------------------ #
        for fact in overdeleted:
            derived.delete(fact)
        for rule, held in lost.items():
            entry = self._rule_memo[rule]
            entry.local_extensional -= held.local_extensional
            entry.remote_facts -= held.remote_facts
            entry.delegations -= held.delegations
            self._outcome = None

        # -- 3. re-derive ---------------------------------------------------- #
        prober = self._evaluator(state.fact_view)

        def survives(rule: Rule, wanted: Union[Fact, Delegation]) -> bool:
            found, explored = prober.derives(rule, wanted)
            result.rules_evaluated += 1
            result.substitutions_explored += explored
            return found

        rederived: Set[Fact] = set()
        for fact in overdeleted:
            if any(survives(rule, fact)
                   for rule in analysis.defining(fact.qualified_relation)):
                derived.insert(fact)
                result.derived_intensional += 1
                rederived.add(fact)
        for rule, held in lost.items():
            self._memo_merge(rule, RuleOutcome(
                local_extensional={fact for fact in held.local_extensional
                                   if survives(rule, fact)},
                remote_facts={fact for fact in held.remote_facts
                              if survives(rule, fact)},
                delegations={delegation for delegation in held.delegations
                             if survives(rule, delegation)}))

        # -- 4. propagate ------------------------------------------------------ #
        outcome = self._fixpoint_seminaive(analysis, evaluator, result,
                                           input_delta.inserted | rederived, added)
        if self.provenance is not None:
            self.provenance.on_tuples_deleted(dead, {
                fact for fact in dead | overdeleted
                if not state.provided.contains(fact) and not derived.contains(fact)})
        return outcome

    def _fixpoint_rederive(self, analysis: _ProgramAnalysis,
                           evaluator: RuleEvaluator, result: StageResult,
                           affected_predicates: Optional[Set[str]],
                           affected_rules: Optional[Set[Rule]],
                           deleted: FrozenSet[Fact] = _NO_FACTS) -> RuleOutcome:
        """Delete-and-rederive on predicates: recompute the affected derived
        relations with their defining rules, stratum by stratum.

        ``affected_* = None`` means *everything* (the ``full`` path);
        ``deleted`` are the stage's deleted input facts.  A stratum that
        feeds itself runs its rules once in full, then drains deltas
        (:meth:`_drain`).  One that does not runs once and replaces each
        unkeyed relation only it defines by what its rules derived
        (:meth:`FactStore.replace_relation` writes only the rows that
        differ); other relations are cleared up front.  Either way the
        pending delta taken at the end of the stage is the true change.
        """
        full = affected_rules is None
        if self.provenance is not None:
            # The deleted input facts die in the graph with everything that
            # hangs on them, and the recomputed predicates' derivations die
            # here and are re-recorded by the re-evaluation below, so the
            # graph tracks exact derivability.
            if deleted:
                self.provenance.on_base_deleted(deleted)
            if full:
                self.provenance.on_full_recompute()
            else:
                self.provenance.on_rederive(affected_predicates)
        local_intensional = analysis.local_intensional
        cleared = {name: self.state.schemas.lookup(name)
                   for name in sorted(local_intensional)
                   if full or name in affected_predicates}
        if full:
            self._rule_memo = {}
        else:
            for rule in affected_rules:
                self._rule_memo.pop(rule, None)
        self._outcome = None

        passes = []
        for number, stratum in enumerate(analysis.strata):
            selected = stratum if full else [r for r in stratum if r in affected_rules]
            if not selected:
                continue
            # More than one round only for rules that read what they derive.
            recursive = analysis.feeds_itself(selected)
            # Relations this stratum replaces instead of clearing: it must
            # define them alone, and key displacement needs insertion order.
            # The derived facts are handed over as they are; a stored fact
            # equal to one of them stays stored.
            replaced: Dict[str, Tuple[RelationSchema, List[Fact]]] = {}
            if not recursive:
                ids = {id(rule) for rule in selected}
                for rule in selected:
                    for predicate in analysis.targets[id(rule)]:
                        schema = cleared.get(predicate)
                        if (schema is not None and not schema.key_indexes()
                                and all(id(other) in ids
                                        for other in analysis.defining(predicate))):
                            replaced[predicate] = (schema, [])
                            del cleared[predicate]
            passes.append((number, selected, recursive, replaced))
        for schema in cleared.values():
            self.state.derived.clear_relation(schema.name, schema.peer)

        for number, selected, recursive, replaced in passes:
            result.fixpoint_iterations += 1
            if recursive:
                self._drain(analysis, evaluator, result, {}, number, selected, True)
                continue
            for rule in selected:
                self._absorb(rule, evaluator.evaluate_rule(rule), result, None,
                             replaced, displacing=True)
            for predicate, (schema, facts) in replaced.items():
                self.state.derived.replace_relation(schema.name, schema.peer, facts)
                result.derived_intensional += self.state.derived.count(
                    schema.name, schema.peer)
        return self._memo_outcome()

    def _memo_merge(self, rule: Rule, outcome: RuleOutcome) -> None:
        """Fold one evaluation's non-intensional outputs into the rule's memo.

        Local intensional facts live in the derived store (which *is* their
        memo); only the outputs that :meth:`_emit_outputs` diffs are kept.
        """
        entry = self._rule_memo.get(rule)
        if entry is None:
            entry = self._rule_memo[rule] = RuleOutcome()
        if not (outcome.local_extensional <= entry.local_extensional
                and outcome.remote_facts <= entry.remote_facts
                and outcome.delegations <= entry.delegations):
            entry.local_extensional |= outcome.local_extensional
            entry.remote_facts |= outcome.remote_facts
            entry.delegations |= outcome.delegations
            self._outcome = None

    def _memo_outcome(self) -> RuleOutcome:
        """The stage outcome: the union of every current rule's memo.

        Shared between stages until a memo entry changes — read-only.
        """
        total = self._outcome
        if total is None:
            total = self._outcome = RuleOutcome()
            for entry in self._rule_memo.values():
                total.local_extensional |= entry.local_extensional
                total.remote_facts |= entry.remote_facts
                total.delegations |= entry.delegations
        return total

    def _emit_outputs(self, outcome: RuleOutcome, result: StageResult) -> None:
        if (outcome is self._emitted and not self._pending_remote_inserts
                and not self._pending_remote_deletes):
            # The outcome last diffed, and nothing queued by the user: every
            # sent set and outstanding delegation already matches it.
            return
        self._emitted = outcome
        # -- facts derived for remote peers ------------------------------ #
        current_by_target: Dict[str, Set[Fact]] = {}
        for fact in outcome.remote_facts:
            current_by_target.setdefault(fact.peer, set()).add(fact)

        targets = set(current_by_target) | set(self._sent_remote)
        derived_updates: Dict[str, Tuple[Set[Fact], Set[Fact]]] = {}
        for target in targets:
            current = current_by_target.get(target, set())
            previous = self._sent_remote.get(target, set())
            newly_derived = current - previous
            vanished = previous - current
            # Facts destined to relations known to be intensional at the
            # remote peer are view facts: retract them when no longer
            # derivable.  Unknown or extensional relations are insert-only
            # updates (the paper's semantics for updates to extensional
            # relations of other peers).
            to_delete = {
                fact for fact in vanished
                if self.state.kind_of(fact.relation, fact.peer) is RelationKind.INTENSIONAL
            }
            if newly_derived or to_delete:
                derived_updates[target] = (newly_derived, to_delete)
            self._sent_remote[target] = (previous - to_delete) | current

        # -- user-initiated updates to remote relations ------------------ #
        user_targets = set(self._pending_remote_inserts) | set(self._pending_remote_deletes)
        for target in sorted(targets | user_targets):
            derived_ins, derived_del = derived_updates.get(target, (set(), set()))
            user_ins = self._pending_remote_inserts.pop(target, set())
            user_del = self._pending_remote_deletes.pop(target, set())
            inserted = frozenset(derived_ins | user_ins)
            deleted = frozenset(derived_del | user_del)
            if inserted or deleted:
                result.outgoing_updates.append(
                    OutgoingUpdate(target=target, inserted=inserted, deleted=deleted)
                )

        # -- delegations -------------------------------------------------- #
        diff = self.state.delegation_tracker.diff(outcome.delegations)
        self.state.delegation_tracker.commit(diff)
        result.delegations_to_install = list(diff.to_install)
        result.delegations_to_retract = list(diff.to_retract)
