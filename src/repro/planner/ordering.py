"""Cost-based join ordering of WebdamLog rule bodies.

WebdamLog bodies are evaluated left to right and the order is *semantically
loaded*: the first remote literal splits the rule into a delegation, and a
variable used as a relation/peer name or inside a negated literal must be
bound before the literal is reached.  The planner therefore permutes only
the **maximal local prefix** — the leading run of literals whose relation is
a constant and whose peer is (syntactically) the evaluating peer:

* no delegation can originate inside the prefix, so by the time evaluation
  reaches the written suffix every prefix literal is consumed and the
  remainder ``rule.body[index:]`` handed to a delegation is exactly what
  written-order evaluation would have produced;
* positive prefix literals are pure joins and commute freely;
* a negated prefix literal is placed as soon as every non-anonymous argument
  variable is bound by an already-placed positive literal — it then filters
  exactly the substitutions written order would have filtered.

Within the prefix the order is chosen greedily: at each step the cheapest
remaining positive literal is picked, where the cost of a literal is its
relation count divided by the distinct-value counts of its bound argument
positions (constants, or variables bound by already-placed literals).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.metrics import Metrics
from repro.core.rules import Atom, Rule
from repro.core.terms import Constant, Variable
from repro.planner.plans import RulePlan
from repro.planner.stats import StatsProvider, drifted


class BodyPlanner:
    """Plans rule-body evaluation order for one peer.

    Plans are cached per ``(rule_id, delta_index, bound variables)``; a
    program change drops the plans of the rules it removed (:meth:`forget`:
    a rule id names one rule's content, or the one own rule a replacement
    keeps it for) and a cached plan is replanned when the count of any
    relation it reads has drifted by more than the stats drift factor
    (insert/retract churn changes the cheapest order).
    """

    def __init__(self, peer: str, stats: StatsProvider, metrics: Metrics):
        self.peer = peer
        self.stats = stats
        #: The owning engine's registry (see :mod:`repro.core.metrics`).
        self.metrics = metrics
        # {(rule_id, delta_index, bound variables):
        #      (plan, {(relation, peer): count at planning})}
        self._cache: Dict[Tuple[str, Optional[int], FrozenSet[Variable]],
                          Optional[Tuple[RulePlan, Dict[Tuple[str, str], int]]]] = {}

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #

    def forget(self, rule_ids: Iterable[str]) -> None:
        """Drop the cached plans of the rules with these ids (rules the
        program no longer holds)."""
        gone = set(rule_ids)
        if gone:
            for key in [key for key in self._cache if key[0] in gone]:
                del self._cache[key]

    # ------------------------------------------------------------------ #
    # planning entry points
    # ------------------------------------------------------------------ #

    def plan_rule(self, rule: Rule) -> Optional[RulePlan]:
        """Plan a full evaluation of ``rule``; ``None`` when there is nothing
        to order (local prefix shorter than two literals)."""
        return self._cached_plan(rule, None)

    def plan_rule_delta(self, rule: Rule, delta_index: int) -> Optional[RulePlan]:
        """Plan a seminaive evaluation with body position ``delta_index``
        restricted to the delta.  The delta literal always comes first; the
        rest of the local prefix is ordered by cost with the delta literal's
        variables treated as bound.  ``None`` when the delta position lies
        outside the local prefix (written order applies)."""
        return self._cached_plan(rule, delta_index)

    def plan_rule_bound(self, rule: Rule, bound: FrozenSet[Variable]
                        ) -> Optional[RulePlan]:
        """Plan an evaluation that starts from a substitution of ``bound``
        (a head-bound probe: "does this rule still derive that fact?").
        The local prefix is ordered by cost with those variables treated as
        bound from the first literal on — ``reach($x, $z) :- reach($x, $y),
        edge($y, $z)`` asked for one ``($x, $z)`` starts at ``edge(?, $z)``
        instead of walking ``reach($x, ?)``."""
        return self._cached_plan(rule, None, bound)

    def _cached_plan(self, rule: Rule, delta_index: Optional[int],
                     bound: FrozenSet[Variable] = frozenset()
                     ) -> Optional[RulePlan]:
        key = (rule.rule_id, delta_index, bound)
        if key in self._cache:
            entry = self._cache[key]
            if entry is None:
                return None
            plan, snapshot = entry
            if not any(drifted(baseline, self.stats.count(relation, peer))
                       for (relation, peer), baseline in snapshot.items()):
                self.metrics["planner", "plans_cached"] += 1
                return plan
        plan, snapshot = self._compute(rule, delta_index, bound)
        self._cache[key] = None if plan is None else (plan, snapshot)
        if plan is not None:
            self.metrics["planner", "plans_computed"] += 1
            if plan.reordered:
                self.metrics["planner", "plans_reordered"] += 1
        return plan

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #

    def _local_prefix(self, rule: Rule) -> int:
        """Length of the maximal reorderable prefix of the body."""
        length = 0
        for atom in rule.body:
            if (atom.relation_constant() is None
                    or atom.peer_constant() != self.peer):
                break
            length += 1
        return length

    def _compute(self, rule: Rule, delta_index: Optional[int],
                 initially_bound: FrozenSet[Variable] = frozenset()
                 ) -> Tuple[Optional[RulePlan], Dict[Tuple[str, str], int]]:
        prefix = self._local_prefix(rule)
        if prefix < 2 or (delta_index is not None and delta_index >= prefix):
            return None, {}

        bound: Set[Variable] = set(initially_bound)
        order: List[int] = []
        remaining = set(range(prefix))
        chose = False

        def place(index: int) -> None:
            order.append(index)
            remaining.discard(index)
            atom = rule.body[index]
            if not atom.negated:
                bound.update(atom.argument_variables())

        if delta_index is not None:
            place(delta_index)

        while remaining:
            placeable_negations = [
                index for index in sorted(remaining)
                if rule.body[index].negated and all(
                    variable in bound or variable.is_anonymous()
                    for variable in rule.body[index].argument_variables())
            ]
            if placeable_negations:
                # A bound negation is a pure filter: apply it as early as
                # possible so it prunes before the next join fans out.
                place(placeable_negations[0])
                continue
            positives = [index for index in sorted(remaining)
                         if not rule.body[index].negated]
            if not positives:
                # Only negations whose variables are not yet bound remain.
                # Written-order safety guarantees this cannot happen once
                # every prefix positive is placed; bail out defensively.
                return None, {}
            best_index, best_cost = positives[0], None
            if len(positives) > 1:
                chose = True
                for index in positives:
                    cost = self._estimate(rule.body[index], bound)
                    if best_cost is None or cost < best_cost:
                        best_index, best_cost = index, cost
            place(best_index)

        order.extend(range(prefix, len(rule.body)))
        # A plan that never chose between two literals is the only order
        # there is: no count can make it stale, so none is kept to check.
        snapshot: Dict[Tuple[str, str], int] = {}
        for index in range(prefix) if chose else ():
            atom = rule.body[index]
            relation, peer = atom.relation_constant(), atom.peer_constant()
            snapshot[(relation, peer)] = self.stats.count(relation, peer)
        plan = RulePlan(rule_id=rule.rule_id, order=tuple(order),
                        delta_index=delta_index,
                        bound=tuple(sorted(v.name for v in initially_bound)))
        return plan, snapshot

    def _estimate(self, atom: Atom, bound: Set[Variable]) -> float:
        """Estimated number of candidate facts for ``atom`` given ``bound``.

        Relation count divided by the distinct-value count of every argument
        position that will be bound when the literal is reached (a constant,
        or a variable bound by an already-placed literal).
        """
        relation = atom.relation_constant()
        peer = atom.peer_constant()
        cost = float(self.stats.count(relation, peer))
        if cost == 0.0:
            return 0.0
        seen_here: Set[Variable] = set()
        for position, term in enumerate(atom.args):
            selective = isinstance(term, Constant) or (
                isinstance(term, Variable)
                and (term in bound or term in seen_here))
            if selective:
                cost /= max(1, self.stats.distinct(relation, peer, position))
            if isinstance(term, Variable):
                seen_here.add(term)
        return cost
