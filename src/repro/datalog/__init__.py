"""What the WebdamLog engine needs beyond its own rule evaluator.

* :mod:`repro.datalog.stratification` — :func:`stratify` groups a peer's
  rules into strata for stratified negation;
* :mod:`repro.datalog.aggregation` — the group-by aggregate functions shared
  by aggregate views.

Rules are evaluated by :mod:`repro.core.evaluation` alone.
"""

from repro.datalog.aggregation import Aggregate, compute_aggregate

__all__ = [
    "Aggregate",
    "compute_aggregate",
]
