"""Group-by aggregation: the aggregate functions and one plain-tuple group-by.

An aggregate view such as::

    board($id, avg($stars), count($stars)) :- rate@hub($user, $id, $stars)

keeps its raw tuples as rule output and groups them on read, on the
non-aggregated positions, through :func:`compute_aggregate`
(:class:`repro.api.views.LiveView`).  The SQL compiler's ``GROUP BY``
pushdown only runs where its answers are bit-identical to that function's.

The Wepic application uses aggregation for its "select and rank photos based
on their annotations" feature (average rating, comment counts).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Sequence, Tuple


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
    empty input.  This is the single evaluation point shared by
    :func:`aggregate_relation` and the live-view read path.
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


def aggregate_relation(rows: Iterable[Tuple], group_by: Sequence[int],
                       aggregates: Sequence[Tuple[int, Aggregate]]) -> List[Tuple]:
    """Standalone group-by over plain tuples.

    Used by the Wepic ranking module to compute summary tables without going
    through a rule.

    Parameters
    ----------
    rows:
        Input tuples.
    group_by:
        Positions forming the group key (kept in the output, in order).
    aggregates:
        ``(position, function)`` pairs computed per group and appended to the
        output row after the group key.
    """
    groups: Dict[Tuple, List[Tuple]] = {}
    for row in rows:
        key = tuple(row[i] for i in group_by)
        groups.setdefault(key, []).append(row)
    output: List[Tuple] = []
    for key, members in groups.items():
        aggregated = tuple(
            compute_aggregate(function, [member[position] for member in members])
            for position, function in aggregates
        )
        output.append(key + aggregated)
    return output
