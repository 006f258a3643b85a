"""Cost-based rule planning for the WebdamLog engine.

The planner sits between the program and the tuple-at-a-time evaluator:

* :class:`~repro.planner.ordering.BodyPlanner` reorders each rule body by
  estimated cardinality (running relation counts plus per-bound-position
  selectivity estimates from :class:`~repro.planner.stats.StatsProvider`),
  keeping the WebdamLog left-to-right semantics intact — only the maximal
  *local prefix* of a body (literals with a constant relation located at the
  evaluating peer) is permuted, so delegation splits, negation safety and
  variable-location binding are untouched;
* :mod:`repro.planner.magic` applies a magic-set / demand transformation to
  multi-clause live-view programs, so only demand-reachable facts of the
  view's auxiliary relations are derived;
* :class:`~repro.planner.plans.RulePlan` is the chosen literal order of one
  rule body, cached by the planner and listed by
  :meth:`repro.api.views.LiveView.plan`.
"""

from repro.planner.plans import RulePlan
from repro.planner.stats import StatsProvider
from repro.planner.ordering import BodyPlanner
from repro.planner.magic import MagicRewrite, apply_magic

__all__ = [
    "RulePlan",
    "StatsProvider",
    "BodyPlanner",
    "MagicRewrite",
    "apply_magic",
]
