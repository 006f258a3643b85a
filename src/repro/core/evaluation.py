"""Left-to-right evaluation of WebdamLog rules at one peer.

The evaluation of a rule at peer ``p`` proceeds literal by literal, left to
right, maintaining a set of candidate substitutions:

* a body literal located at ``p`` (after applying the current substitution)
  is matched against the peer's local facts, extending the substitutions;
* a *negated* local literal filters out substitutions for which a matching
  fact exists;
* the first literal located at a *remote* peer stops local evaluation for
  that substitution: the partially instantiated remainder of the rule becomes
  a :class:`~repro.core.delegation.Delegation` to that peer.

Substitutions that survive the whole body produce the head fact, which is
classified as a local intensional derivation, a (deferred) local extensional
update, or a fact destined for a remote peer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple,
                    Union)

from repro.core.delegation import Delegation
from repro.core.errors import EvaluationError
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind
from repro.core.terms import Constant, Variable
from repro.core.unification import CompiledAtom, Substitution

#: Callable giving the evaluator access to local facts:
#: ``fact_source(relation_name, peer_name, bindings)`` returns an iterable of
#: facts; ``bindings`` is an optional ``{argument position: value}`` map the
#: source may use to answer from a hash index instead of a scan — every fact
#: it returns must match them (:func:`repro.core.facts.fact_matches_bindings`).
FactSource = Callable[[str, str, Optional[Dict[int, object]]], Iterable[Fact]]

#: Callable classifying a relation: returns a :class:`RelationKind` (or None if unknown).
KindResolver = Callable[[str, str], Optional[RelationKind]]


#: ``(relation, peer)`` of an atom as dependency analysis and seminaive
#: restriction see it; ``None`` marks a position that is still a variable.
LocationPattern = Tuple[Optional[str], Optional[str]]


def location_pattern(atom: Atom) -> LocationPattern:
    """The constant relation and peer of ``atom`` (``None`` where variable)."""
    return atom.relation_constant(), atom.peer_constant()


def pattern_matches(pattern: LocationPattern, predicate: str) -> bool:
    """``True`` when ``"rel@peer"`` agrees with every constant position."""
    relation, peer = pattern
    name, _, owner = predicate.partition("@")
    return relation in (None, name) and peer in (None, owner)


def head_targets(head: LocationPattern,
                 local_intensional: FrozenSet[str]) -> Set[str]:
    """The predicates a head can derive into during a local fixpoint.

    A head with a variable position reaches, *locally*, only this peer's
    intensional relations: its facts for other peers leave through the
    stage's remote updates, and local extensional heads are deferred and
    arrive as the next stage's input delta.
    """
    if None in head:
        return {predicate for predicate in local_intensional
                if pattern_matches(head, predicate)}
    return {"%s@%s" % head}


@dataclass
class RuleOutcome:
    """Everything produced by evaluating one rule once."""

    local_intensional: Set[Fact] = field(default_factory=set)
    local_extensional: Set[Fact] = field(default_factory=set)
    remote_facts: Set[Fact] = field(default_factory=set)
    delegations: Set[Delegation] = field(default_factory=set)
    substitutions_explored: int = 0

    def merge(self, other: "RuleOutcome") -> "RuleOutcome":
        """Accumulate another outcome into this one."""
        self.local_intensional |= other.local_intensional
        self.local_extensional |= other.local_extensional
        self.remote_facts |= other.remote_facts
        self.delegations |= other.delegations
        self.substitutions_explored += other.substitutions_explored
        return self

    def is_empty(self) -> bool:
        """``True`` when nothing at all was produced."""
        return not (self.local_intensional or self.local_extensional
                    or self.remote_facts or self.delegations)

    def total_derivations(self) -> int:
        """Number of facts and delegations produced."""
        return (len(self.local_intensional) + len(self.local_extensional)
                + len(self.remote_facts) + len(self.delegations))


class _Derived(Exception):
    """Unwinds the body walk of :meth:`RuleEvaluator.derives` at its first hit."""


def delegation_bindings(rule: Rule, delegation: Delegation) -> Substitution:
    """The variables of ``rule`` that a delegation split from it fixes.

    The delegated rule is ``rule``'s head and the remainder of its body under
    the substitution of the local prefix: wherever ``rule`` has a variable
    and the delegated rule a constant, the prefix bound it.
    """
    delegated = delegation.rule
    remainder = rule.body[len(rule.body) - len(delegated.body):]
    substitution: Substitution = {}
    for pattern, atom in zip((rule.head, *remainder),
                             (delegated.head, *delegated.body)):
        for term, bound in zip((pattern.relation, pattern.peer, *pattern.args),
                               (atom.relation, atom.peer, *atom.args)):
            if isinstance(term, Variable) and isinstance(bound, Constant):
                substitution[term] = bound
    return substitution


class RuleEvaluator:
    """Evaluates WebdamLog rules at a single peer.

    Parameters
    ----------
    peer:
        Name of the local peer.
    fact_source:
        Access to the local facts (extensional, ephemeral and intensional
        facts derived so far in the current fixpoint).
    kind_resolver:
        Maps ``(relation, peer)`` to a :class:`RelationKind`.  Unknown local
        relations in head position default to extensional (the engine
        declares them implicitly), matching the run-time relation discovery
        described in the paper.
    """

    def __init__(self, peer: str, fact_source: FactSource,
                 kind_resolver: Optional[KindResolver] = None,
                 on_derivation: Optional[Callable[[Fact, Rule, Tuple[Fact, ...]], None]] = None,
                 planner=None):
        self.peer = peer
        self.fact_source = fact_source
        self.kind_resolver = kind_resolver or (lambda relation, peer_name: None)
        # Optional provenance hook: called with (derived fact, rule, supporting facts)
        # for every head emitted locally or for a remote peer.
        self.on_derivation = on_derivation
        # Optional cost-based body planner (repro.planner.BodyPlanner): rules
        # are then walked in the planned literal order instead of the written
        # one.  Only the local prefix of a body is ever permuted, so the
        # delegation and negation semantics are order-identical; provenance
        # support tuples are normalised back to written order on emission.
        self.planner = planner
        # What a running :meth:`derives` probe is looking for.
        self._wanted: Union[Fact, Delegation, None] = None

    def _plan_of(self, rule: Rule, delta_index: Optional[int] = None,
                 bound: Optional[Substitution] = None):
        if self.planner is None:
            return None
        if bound is not None:
            return self.planner.plan_rule_bound(rule, frozenset(bound))
        if delta_index is None:
            return self.planner.plan_rule(rule)
        return self.planner.plan_rule_delta(rule, delta_index)

    # ------------------------------------------------------------------ #

    def evaluate_rule(self, rule: Rule) -> RuleOutcome:
        """Evaluate one rule and return everything it produces."""
        outcome = RuleOutcome()
        self._evaluate_from(rule, 0, {}, outcome, (), plan=self._plan_of(rule))
        return outcome

    def evaluate_rule_delta(self, rule: Rule,
                            delta: Mapping[str, Set[Fact]]) -> RuleOutcome:
        """Seminaive evaluation of one rule against a delta.

        ``delta`` maps qualified relation names (``"rel@peer"``) to the facts
        that became visible since the rule last fired.  The rule is evaluated
        once per positive body occurrence of a delta predicate, with that
        occurrence restricted to the delta facts — every derivation that uses
        at least one delta fact is found, old derivations using only
        pre-existing facts are not re-explored.  A body literal whose relation
        or peer position is still a variable is restricted to the delta facts
        of the predicates agreeing with its constant position.
        """
        outcome = RuleOutcome()
        for index, literal in enumerate(rule.body):
            if literal.negated:
                continue
            pattern = location_pattern(literal)
            if None in pattern:
                restricted: Set[Fact] = set()
                for predicate, facts in delta.items():
                    if pattern_matches(pattern, predicate):
                        restricted |= facts
            else:
                restricted = delta.get("%s@%s" % pattern, set())
            if not restricted:
                continue
            self._evaluate_from(rule, 0, {}, outcome, (),
                                restrict=(index, restricted),
                                plan=self._plan_of(rule, delta_index=index))
        return outcome

    def derives(self, rule: Rule,
                wanted: Union[Fact, Delegation]) -> Tuple[bool, int]:
        """Does ``rule`` produce ``wanted`` right now?  A head-bound probe.

        The body is walked from the substitution ``wanted`` fixes — the match
        of the rule head against a wanted fact, :func:`delegation_bindings`
        of a wanted delegation — and planned with those variables bound, so
        every literal they reach is a hash probe instead of a scan; the walk
        stops at the first derivation.  Nothing is recorded or collected.
        Returns ``(found, substitutions explored)``.
        """
        if isinstance(wanted, Delegation):
            substitution = delegation_bindings(rule, wanted)
        else:
            substitution = rule.compiled.head.match(wanted, {})
            if substitution is None:
                return False, 0  # the head cannot produce this fact
        outcome = RuleOutcome()
        self._wanted = wanted
        try:
            self._evaluate_from(rule, 0, substitution, outcome, (),
                                plan=self._plan_of(rule, bound=substitution))
            found = False
        except _Derived:
            found = True
        finally:
            self._wanted = None
        return found, outcome.substitutions_explored

    # ------------------------------------------------------------------ #

    def _evaluate_from(self, rule: Rule, step: int, substitution: Substitution,
                       outcome: RuleOutcome,
                       support: Tuple[Tuple[int, Fact], ...],
                       restrict: Optional[Tuple[int, Set[Fact]]] = None,
                       plan=None) -> None:
        outcome.substitutions_explored += 1
        body = rule.compiled.body
        if step == len(body):
            self._emit_head(rule, substitution, outcome, support)
            return

        # ``step`` counts walked literals; ``index`` is the original body
        # position of the literal walked at this step.  Without a plan the
        # two coincide (written order).  Plans only permute the local prefix,
        # so when a remote literal is reached every earlier original position
        # is already consumed and ``rule.body[index:]`` is a valid remainder.
        index = plan.order[step] if plan is not None else step
        literal = body[index]
        relation_name, peer_name = literal.locate(substitution)
        if peer_name is None:
            raise EvaluationError(
                f"rule {rule.rule_id}: peer position of literal "
                f"{rule.body[index].substitute(substitution)} is unbound "
                "at evaluation time (unsafe rule?)"
            )

        if peer_name != self.peer:
            # Remote literal: delegate the remainder of the rule.
            if restrict is not None and all(
                    walked != restrict[0] for walked, _ in support):
                # The delta literal was not walked yet, so this delegation
                # uses no delta fact: it is an old one, or the pass restricted
                # to an earlier literal finds it.
                return
            self._emit_delegation(rule, index, substitution, peer_name, outcome)
            return

        if relation_name is None:
            raise EvaluationError(
                f"rule {rule.rule_id}: relation position of literal #{index + 1} "
                f"({rule.body[index]}) is still a variable after substitution"
            )

        if literal.negated:
            if not self._has_match(literal, relation_name, peer_name, substitution):
                self._evaluate_from(rule, step + 1, substitution, outcome, support,
                                    restrict, plan)
            return

        if restrict is not None and index == restrict[0]:
            candidates: Iterable[Fact] = restrict[1]
            if (literal.relation.__class__ is Variable
                    or literal.peer.__class__ is Variable):
                # The restriction holds the delta of every predicate the open
                # position could match; only the one it is bound to joins.
                candidates = [fact for fact in candidates
                              if fact.relation == relation_name
                              and fact.peer == peer_name]
        else:
            candidates = self.fact_source(relation_name, peer_name,
                                          literal.bindings(substitution))
        extend = literal.extend
        for fact in candidates:
            extended = extend(fact.values, substitution)
            if extended is not None:
                self._evaluate_from(rule, step + 1, extended, outcome,
                                    support + ((index, fact),), restrict, plan)

    def _has_match(self, literal: CompiledAtom, relation_name: str, peer_name: str,
                   substitution: Substitution) -> bool:
        bindings = literal.bindings(substitution)
        candidates = self.fact_source(relation_name, peer_name, bindings)
        if bindings is not None and len(bindings) == literal.arity:
            # Fully ground literal: every candidate from the indexed source
            # already matches all argument positions, so existence reduces to
            # a non-empty probe with an arity check — no substitution is built.
            return any(fact.arity == literal.arity for fact in candidates)
        for fact in candidates:
            if literal.extend(fact.values, substitution) is not None:
                return True
        return False

    # ------------------------------------------------------------------ #

    def _emit_delegation(self, rule: Rule, index: int, substitution: Substitution,
                         target: str, outcome: RuleOutcome) -> None:
        head = rule.head.substitute(substitution)
        remainder = tuple(atom.substitute(substitution) for atom in rule.body[index:])
        delegated_rule = Rule(
            head=head,
            body=remainder,
            author=self.peer,
            origin=rule.origin or rule.rule_id,
            rule_id=f"{rule.rule_id}@{target}",
        )
        delegation = Delegation(
            target=target,
            rule=delegated_rule,
            delegator=self.peer,
            origin_rule_id=rule.origin or rule.rule_id,
        )
        if self._wanted is not None:
            if delegation == self._wanted:
                raise _Derived
            return
        outcome.delegations.add(delegation)

    def _emit_head(self, rule: Rule, substitution: Substitution,
                   outcome: RuleOutcome,
                   support: Tuple[Tuple[int, Fact], ...]) -> None:
        fact = rule.compiled.head.ground(substitution)
        if fact is None:
            raise EvaluationError(
                f"rule {rule.rule_id}: head {rule.head.substitute(substitution)} "
                "is not ground after evaluating the body"
            )
        if self._wanted is not None:
            if fact == self._wanted:
                raise _Derived
            return
        if self.on_derivation is not None:
            # Support facts are tagged with their original body position and
            # sorted back to written order, so provenance (and explain())
            # records identical derivations whatever order the planner chose
            # (the positions are distinct: no two facts are ever compared).
            self.on_derivation(
                fact, rule, tuple(supporting for _, supporting in sorted(support)))
        if fact.peer != self.peer:
            outcome.remote_facts.add(fact)
            return
        kind = self.kind_resolver(fact.relation, fact.peer)
        if kind is RelationKind.INTENSIONAL:
            outcome.local_intensional.add(fact)
        else:
            outcome.local_extensional.add(fact)
