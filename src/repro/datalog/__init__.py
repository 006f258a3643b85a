"""What the WebdamLog engine needs beyond its own rule evaluator.

* :mod:`repro.datalog.stratification` — :func:`stratify` groups a peer's
  rules into strata for stratified negation;
* :mod:`repro.datalog.aggregation` — the group-by aggregate functions shared
  by aggregate views, the SQL compiler and the Wepic ranking module.

Rules are evaluated by :mod:`repro.core.evaluation` alone.
"""

from repro.datalog.aggregation import Aggregate, aggregate_relation, compute_aggregate

__all__ = [
    "Aggregate",
    "aggregate_relation",
    "compute_aggregate",
]
