"""The analysis of a peer's program that its stages share: :class:`ProgramAnalysis`."""

from __future__ import annotations

import operator
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.evaluation import (LocationPattern, head_targets, location_pattern,
                                   pattern_matches)
from repro.core.rules import Rule
# The module, not the function: stratification imports repro.core in turn.
from repro.datalog import stratification


def _patterns_of(predicate: str) -> Tuple[LocationPattern, ...]:
    """The four location patterns that agree with ``"rel@peer"``."""
    name, _, owner = predicate.partition("@")
    return (name, owner), (name, None), (None, owner), (None, None)


class ProgramAnalysis:
    """What a stage needs to know about a peer's current program, computed
    once per program: the strata, each rule's shape (body and head patterns)
    and head targets, and the *reader index* from each body pattern to the
    rules reading it.

    Cached by :class:`~repro.core.maintenance.Maintenance` and rebuilt
    whenever the rule set changes (own rules added/removed/replaced,
    delegations installed or retracted) or the peer's intensional relations
    do — the cache is validated by object identity against
    ``state.all_rules()``, so any mutation path is seen, including ones that
    bypass the engine API (e.g. the delegation controller installing an
    approved rule).  The superseded analysis is what the rule set is diffed
    against: a program change reaches the fixpoint as the rules added and
    the rules removed.  A rebuild reuses the shape of every rule that
    survives it, matched by identity.

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

    Every answer that depends on the program alone is memoized per
    predicate for the analysis's lifetime: the readers of a predicate (per
    stratum), whether it reaches a negated literal, the rules defining it.
    A predicate's closure is exact per predicate (the closure of a union is
    the union of the closures), so the memos grow with the program's
    predicates, not with the stages run; a new program version is a new
    analysis, which starts them empty.
    """

    __slots__ = ("rules", "local_intensional", "strata", "shape", "targets",
                 "_by_head", "_negated", "_readers", "_stratum_at",
                 "_by_predicate", "_defining", "_reaches")

    def __init__(self, rules: Tuple[Rule, ...], local_intensional: FrozenSet[str],
                 previous: Optional["ProgramAnalysis"] = None):
        self.rules = rules
        self.local_intensional = local_intensional
        self.strata = stratification.stratify(rules, local_intensional)
        # Keyed by id(rule): the analysis keeps its rules alive, and tells a
        # rule from an equal one by identity (changes()).  ``shape``
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
        # The stratum of the rule at each position (empty for one stratum).
        self._stratum_at: List[int] = []
        if len(self.strata) > 1:
            number_of = {id(rule): number for number, stratum in enumerate(self.strata)
                         for rule in stratum}
            self._stratum_at = [number_of[id(rule)] for rule in rules]
        # Filled as stages ask: a predicate (or ``(predicate, stratum)``) ->
        # the positions of its readers and those rules; a predicate -> its
        # definitions; a predicate -> whether it reaches a negated literal.
        self._by_predicate: Dict[object, Tuple[Tuple[int, ...], List[Rule]]] = {}
        self._defining: Dict[str, List[Rule]] = {}
        self._reaches: Dict[str, bool] = {}

    def matches(self, rules: Tuple[Rule, ...]) -> bool:
        """``True`` when the analysis still describes exactly these rules."""
        return len(self.rules) == len(rules) and all(
            map(operator.is_, self.rules, rules))

    def changes(self, rules: Tuple[Rule, ...]) -> Tuple[List[Rule], List[Rule]]:
        """``(added, removed)``: ``rules`` against the analysed ones, by identity."""
        current = {id(rule) for rule in rules}
        return ([rule for rule in rules if id(rule) not in self.shape],
                [rule for rule in self.rules if id(rule) not in current])

    def _readers_of(self, predicate: str, stratum: Optional[int]
                    ) -> Tuple[Tuple[int, ...], List[Rule]]:
        key = predicate if stratum is None else (predicate, stratum)
        readers = self._by_predicate.get(key)
        if readers is None:
            found: Set[int] = set()
            for pattern in _patterns_of(predicate):
                found.update(self._readers.get(pattern, ()))
            positions = sorted(found)
            if stratum is not None:
                positions = [at for at in positions if self._stratum_at[at] == stratum]
            readers = self._by_predicate[key] = (
                tuple(positions), [self.rules[at] for at in positions])
        return readers

    def reading(self, predicates: Iterable[str],
                stratum: Optional[int] = None) -> List[Rule]:
        """The rules whose body reads one of ``predicates``, in written order
        (only the rules of stratum number ``stratum`` when given).

        The list of a single reading predicate is the memo's own: a caller
        that changes the list copies it first."""
        if not self._stratum_at:
            stratum = None
        found = [readers for readers in (self._readers_of(predicate, stratum)
                                         for predicate in predicates) if readers[0]]
        if len(found) == 1:
            return found[0][1]
        if not found:
            return []
        positions: Set[int] = set()
        for readers, _ in found:
            positions.update(readers)
        return [self.rules[at] for at in sorted(positions)]

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
        for predicate in seed_predicates:
            reaches = self._reaches.get(predicate)
            if reaches is None:
                reaches = self._reaches[predicate] = self._reaches_negation_from(predicate)
            if reaches:
                return True
        return False

    def _reaches_negation_from(self, predicate: str) -> bool:
        reachable = {predicate}
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
            candidates = list(self.reading(fresh))
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
