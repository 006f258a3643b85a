"""Step 2 of a stage, the fixpoint of a peer's program: :class:`Maintenance`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.core.analysis import ProgramAnalysis
from repro.core.delegation import Delegation
from repro.core.errors import EvaluationError
from repro.core.evaluation import RuleEvaluator, RuleOutcome, head_targets
from repro.core.facts import Delta, Fact, fact_matches_bindings
from repro.core.rules import Rule
from repro.core.schema import RelationSchema

if TYPE_CHECKING:
    from repro.core.engine import StageResult, WebdamLogEngine


def _ships(analysis: ProgramAnalysis, rule: Rule, peer: str) -> bool:
    """``True`` when ``rule`` can produce what step 3 of a stage sends or
    defers: its head is remote, extensional or has a variable position, or
    a body atom can leave ``peer`` (a delegation)."""
    body, head, _ = analysis.shape[id(rule)]
    return (None in head or head[1] != peer
            or "%s@%s" % head not in analysis.local_intensional
            or any(owner != peer for _, owner in body))


def _count(result: StageResult, explored: int) -> None:
    """Count one evaluation of a rule, which explored ``explored`` substitutions."""
    result.rules_evaluated += 1
    result.substitutions_explored += explored


class Maintenance:
    """The fixpoint of one engine's program, kept from what changed.  The
    engine's provenance tracker and planner are read at every stage: either
    may be swapped after the engine is built."""

    def __init__(self, engine: WebdamLogEngine):
        self._engine = engine
        self._state = engine.state
        # Dependency analysis of the program the last fixpoint evaluated
        # (``None`` before the first stage), checked by identity against
        # state.all_rules() at every stage: a changed rule set is diffed
        # against it, so the fixpoint sees the rules added and removed.
        self._analysis: Optional[ProgramAnalysis] = None
        # Local relations declared intensional since the last fixpoint (the
        # engine adds them): heads deriving into them were classified
        # extensional until now, so their definitions re-fire (the rule-set
        # identity check cannot see this).
        self.newly_intensional: Set[str] = set()
        # Per-rule cumulative outputs (remote facts, delegations, deferred
        # extensional updates) of the last fixpoint.  The stage outcome fed
        # to _emit_outputs is the union over the current rules, so skipping
        # un-affected rules never loses (or spuriously retracts) outputs.
        self._rule_memo: Dict[Rule, RuleOutcome] = {}
        # That union, kept until a memo entry changes (``None`` = stale).
        self._outcome: Optional[RuleOutcome] = None
        # A durable peer reopened over a commit that marked a fixpoint
        # (``PeerState.resumable``): the program it restored and its
        # intensional relations then, whose fixpoint the derived tables
        # hold, until the first stage diffs against them (:meth:`run`).
        self._restored: Optional[Tuple[Tuple[Rule, ...], FrozenSet[str]]] = (
            (self._state.all_rules(), self._state.schemas.intensional_at(self._state.peer))
            if self._state.resumable else None)

    def run(self, input_delta: Delta, result: StageResult) -> RuleOutcome:
        """Run the local fixpoint, choosing its path from *what changed*:
        the input delta, the rules added and removed since the last fixpoint,
        and the local relations that became intensional.

        * **full** — recompute every local intensional relation, stratum by
          stratum, a recursive one draining deltas as ``delta`` does.  Only
          primary-key displacement and the first stage of an engine take it
          — unless the engine was reopened over a stage commit that marked a
          fixpoint and has no provenance tracker (whose graph is not
          persisted).  Such a stage starts from the restored program: it
          re-evaluates only the rules whose memo step 3 diffs
          (:meth:`_resume`) and takes one of the paths below for whatever
          changed since the reopen.
        * **skip** — nothing changed that a local rule reads: the memoised
          outcome is returned without evaluating anything.  Removed rules
          with remote heads need no more than this — dropping their memo
          makes step 3 retract what they had shipped.
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

        In every case the outcome returned (for step 3 to diff) is the union
        of the per-rule memo, so remote updates, delegations and deferred
        extensional writes diff against complete sets — exactly what a full
        recompute would have produced.

        What depends only on the program — strata, head targets, which rules
        read which predicates — comes from the cached
        :class:`ProgramAnalysis`, rebuilt only when the rule set or the
        peer's intensional relations (kept by the schema registry) change.
        The rest of a stage is work on its delta: the rules it re-fires are
        looked up by the delta's predicates, not found by testing each rule.
        """
        rules = self._state.all_rules()
        previous = self._analysis
        added: List[Rule] = []
        removed: List[Rule] = []
        reclassified, self.newly_intensional = self.newly_intensional, set()
        local_intensional = self._state.schemas.intensional_at(self._state.peer)
        resumed = False
        if self._restored is not None:
            restored, self._restored = self._restored, None
            if self._engine.provenance is None:
                previous = self._analysis = ProgramAnalysis(*restored)
                resumed = True
        rules_changed = previous is None or not previous.matches(rules)
        if rules_changed or previous.local_intensional is not local_intensional:
            analysis = self._analysis = ProgramAnalysis(
                rules, local_intensional, previous)
        else:
            analysis = previous
        if rules_changed:
            if previous is not None:
                added, removed = previous.changes(rules)
                if added and removed:
                    # A rule removed and added again (a view asked again
                    # over the rules a reopen restored) is no change: the
                    # equal rule finds the memo the removed one left.
                    both = set(added).intersection(removed)
                    if both:
                        added = [rule for rule in added if rule not in both]
                        removed = [rule for rule in removed if rule not in both]
            # The one place a program change is found: every mutation path
            # shows as another rule set here, and moves the program version
            # (which drops the cached plans).
            self._engine.program_version += 1
            self._engine._planner.sync(self._engine.program_version)

        if resumed:
            self._resume(analysis, added, result)
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
            head = previous.shape[id(rule)][1]
            if self._engine.provenance is None:
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

    def _resume(self, analysis: ProgramAnalysis, added: List[Rule],
                result: StageResult) -> None:
        """The first stage of a resumed engine: the derived tables hold the
        restored program's fixpoint, but the per-rule memos died with the
        process.  Rebuild those step 3 diffs: evaluate in full each rule
        that can ship (:func:`_ships`) and keep what it ships; its local
        intensional facts are already stored.  The ``added`` rules are left
        to the stage's path, which evaluates them in full."""
        fresh = {id(rule) for rule in added}
        evaluator = None
        for rule in analysis.rules:
            if id(rule) not in fresh and _ships(analysis, rule, self._state.peer):
                evaluator = evaluator or self._evaluator()
                outcome = evaluator.evaluate_rule(rule)
                _count(result, outcome.substitutions_explored)
                self._memo_merge(rule, outcome)

    def _evaluator(self, fact_source=None) -> RuleEvaluator:
        """The rule evaluator of one stage.

        With a ``fact_source`` of its own, an evaluator that only looks:
        it reads that source and records no derivation.
        """
        provenance = self._engine.provenance
        looks = fact_source is not None
        return RuleEvaluator(
            peer=self._state.peer,
            fact_source=fact_source if looks else self._state.fact_view,
            kind_resolver=self._state.kind_of,
            on_derivation=(provenance.record
                           if provenance is not None and not looks else None),
            planner=self._engine._planner,
        )

    def _shipped_predicates(self, rule: Rule) -> Set[str]:
        """The predicates ``rule`` has sent or deferred facts of so far."""
        entry = self._rule_memo.get(rule)
        if entry is None:
            return set()
        return ({fact.qualified_relation for fact in entry.remote_facts}
                | {fact.qualified_relation for fact in entry.local_extensional})

    def _fixpoint_seminaive(self, analysis: ProgramAnalysis,
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
        _count(result, outcome.substitutions_explored)
        self._memo_merge(rule, outcome)
        for fact in outcome.local_intensional:
            if replaced and (into := replaced.get(fact.qualified_relation)):
                into[1].append(fact)
                continue
            insert_delta = self._state.derived.insert(fact)
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

    def _drain(self, analysis: ProgramAnalysis, evaluator: RuleEvaluator,
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

    def _fixpoint_dred(self, analysis: ProgramAnalysis,
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
        state = self._state
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
                _count(result, outcome.substitutions_explored)
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
        # A probe stops before the provenance hook: the stage's evaluator serves.
        def survives(rule: Rule, wanted: Union[Fact, Delegation]) -> bool:
            found, explored = evaluator.derives(rule, wanted)
            _count(result, explored)
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
        if self._engine.provenance is not None:
            self._engine.provenance.on_tuples_deleted(dead, {
                fact for fact in dead | overdeleted
                if not state.provided.contains(fact) and not derived.contains(fact)})
        return outcome

    def _fixpoint_rederive(self, analysis: ProgramAnalysis,
                           evaluator: RuleEvaluator, result: StageResult,
                           affected_predicates: Optional[Set[str]],
                           affected_rules: Optional[Set[Rule]],
                           deleted: FrozenSet[Fact] = frozenset()) -> RuleOutcome:
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
        if self._engine.provenance is not None:
            # The deleted input facts die in the graph with everything that
            # hangs on them, and the recomputed predicates' derivations die
            # here and are re-recorded by the re-evaluation below, so the
            # graph tracks exact derivability.
            if deleted:
                self._engine.provenance.on_base_deleted(deleted)
            if full:
                self._engine.provenance.on_full_recompute()
            else:
                self._engine.provenance.on_rederive(affected_predicates)
        local_intensional = analysis.local_intensional
        cleared = {name: self._state.schemas.lookup(name)
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
            self._state.derived.clear_relation(schema.name, schema.peer)

        for number, selected, recursive, replaced in passes:
            result.fixpoint_iterations += 1
            if recursive:
                self._drain(analysis, evaluator, result, {}, number, selected, True)
                continue
            for rule in selected:
                self._absorb(rule, evaluator.evaluate_rule(rule), result, None,
                             replaced, displacing=True)
            for predicate, (schema, facts) in replaced.items():
                self._state.derived.replace_relation(schema.name, schema.peer, facts)
                result.derived_intensional += self._state.derived.count(
                    schema.name, schema.peer)
        return self._memo_outcome()

    def _memo_merge(self, rule: Rule, outcome: RuleOutcome) -> None:
        """Fold one evaluation's non-intensional outputs into the rule's memo.

        Local intensional facts live in the derived store (which *is* their
        memo); only the outputs that step 3 diffs are kept.
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
