"""Plan objects recorded for observability.

A :class:`RulePlan` describes how one rule body is walked: the literal order
(original body positions), the estimated candidate cardinality of each step
at planning time, and the actual number of matches observed while the plan
was executed.  A :class:`StagePlan` collects the plans a fixpoint stage used
together with the magic predicates active in the program, and is surfaced on
:attr:`repro.core.engine.StageResult.plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class LiteralStep:
    """One step of a rule plan: the literal at original body ``index``.

    ``estimate`` is the planner's candidate-cardinality estimate at planning
    time (``None`` for steps whose input is a delta restriction or a negated
    filter); ``actual`` counts the facts that matched at this step while the
    plan was executed, cumulatively across uses of the (cached) plan.
    """

    index: int
    literal: str
    estimate: Optional[float] = None
    actual: int = 0

    def as_dict(self) -> Dict:
        """Plain-data form (used by benchmarks and debugging dumps)."""
        return {
            "index": self.index,
            "literal": self.literal,
            "estimate": self.estimate,
            "actual": self.actual,
        }


@dataclass
class RulePlan:
    """The chosen evaluation order for one rule body.

    ``order`` holds original body positions; positions outside the local
    prefix keep their written order at the tail, so delegation remainders
    (``rule.body[index:]``) stay exactly the written suffix.  ``delta_index``
    is the body position restricted to the delta during seminaive evaluation
    (always first in ``order``), ``None`` for full evaluations.  ``bound``
    names the variables the walk starts with (a head-bound probe); empty
    for evaluations that start from nothing.
    """

    rule_id: str
    order: Tuple[int, ...]
    steps: Tuple[LiteralStep, ...]
    reordered: bool
    delta_index: Optional[int] = None
    cached: bool = False
    bound: Tuple[str, ...] = ()

    def key(self) -> Tuple[str, Optional[int], Tuple[str, ...]]:
        """Identity of the plan within a stage."""
        return (self.rule_id, self.delta_index, self.bound)

    def as_dict(self) -> Dict:
        """Plain-data form (used by benchmarks and debugging dumps)."""
        return {
            "rule_id": self.rule_id,
            "order": list(self.order),
            "reordered": self.reordered,
            "delta_index": self.delta_index,
            "bound": list(self.bound),
            "cached": self.cached,
            "steps": [step.as_dict() for step in self.steps],
        }


@dataclass
class StagePlan:
    """Every plan one fixpoint stage executed, plus the active magic predicates."""

    rule_plans: Tuple[RulePlan, ...] = ()
    magic_relations: Tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> Dict:
        """Plain-data form (used by benchmarks and debugging dumps)."""
        return {
            "rule_plans": [plan.as_dict() for plan in self.rule_plans],
            "magic_relations": list(self.magic_relations),
        }
