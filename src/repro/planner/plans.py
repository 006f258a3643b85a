"""The plan the cost-based planner chose for one rule body."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class RulePlan:
    """The chosen evaluation order for one rule body.

    ``order`` holds original body positions; positions outside the local
    prefix keep their written order at the tail, so delegation remainders
    (``rule.body[index:]``) stay exactly the written suffix.  ``delta_index``
    is the body position restricted to the delta during seminaive evaluation
    (always first in ``order``), ``None`` for full evaluations.  ``bound``
    names the variables the walk starts with (a head-bound probe); empty
    for evaluations that start from nothing.  A plan is shared by every
    evaluation that hits the planner's cache, so it is immutable.
    """

    rule_id: str
    order: Tuple[int, ...]
    delta_index: Optional[int] = None
    bound: Tuple[str, ...] = ()

    @property
    def reordered(self) -> bool:
        """``True`` when ``order`` differs from the written body order."""
        return self.order != tuple(range(len(self.order)))

    def as_dict(self) -> Dict:
        """Plain-data form (what :meth:`repro.api.views.LiveView.plan` lists)."""
        return {
            "rule_id": self.rule_id,
            "order": list(self.order),
            "reordered": self.reordered,
            "delta_index": self.delta_index,
            "bound": list(self.bound),
        }
