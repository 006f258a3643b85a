"""Group-by aggregation: the aggregate functions of aggregate views.

An aggregate view such as::

    board($id, avg($stars), count($stars)) :- rate@hub($user, $id, $stars)

keeps its raw tuples as rule output and groups them on read, on the
non-aggregated positions, through :func:`compute_aggregate`
(:class:`repro.api.views.LiveView`), in Python on every backend.

The Wepic application's ``ratingSummary`` view is one (average rating and
rating count per picture).
"""

from __future__ import annotations

import enum
from typing import Sequence


class Aggregate(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    @classmethod
    def from_name(cls, name: str) -> "Aggregate":
        """Look up an aggregate by its lowercase name."""
        try:
            return cls(name.lower())
        except ValueError as exc:
            raise ValueError(f"unknown aggregate function {name!r}") from exc


def compute_aggregate(function: Aggregate, values: Sequence) -> object:
    """Apply one aggregate function to a sequence of values.

    ``COUNT`` counts the values; the numeric aggregates return ``None`` on an
    empty input.  This is the single evaluation point of the live-view read
    path.
    """
    if function is Aggregate.COUNT:
        return len(values)
    numeric = list(values)
    if not numeric:
        return None
    if function is Aggregate.SUM:
        return sum(numeric)
    if function is Aggregate.MIN:
        return min(numeric)
    if function is Aggregate.MAX:
        return max(numeric)
    if function is Aggregate.AVG:
        return sum(numeric) / len(numeric)
    raise ValueError(f"unsupported aggregate {function}")  # pragma: no cover
