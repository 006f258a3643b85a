"""Cardinality statistics over a peer's state.

The planner's cost model needs two numbers per relation: the current fact
count (cheap — the stores maintain running counts) and, per argument
position, an estimate of the number of distinct values (used as the
selectivity of binding that position).  Distinct counts are computed lazily
— one scan of a relation counts every position — and cached; a cached entry
is recomputed when the relation's count has drifted by more than
:data:`DRIFT_FACTOR` since it was taken, so estimates track insert/retract
churn without rescanning on every plan.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Dict, Tuple

from repro.core.delegation import BINDING_PREFIX
from repro.core.facts import typed_value

_values_of = attrgetter("values")

#: A cached distinct-count (and a cached plan, see
#: :class:`~repro.planner.ordering.BodyPlanner`) is considered stale when the
#: relation count grew or shrank by more than this factor since it was taken.
DRIFT_FACTOR = 4


def drifted(baseline: int, current: int) -> bool:
    """``True`` when ``current`` is more than :data:`DRIFT_FACTOR` away from
    ``baseline`` (in either direction, with 0 treated as 1)."""
    low = max(1, baseline)
    high = max(1, current)
    return high > low * DRIFT_FACTOR or low > high * DRIFT_FACTOR


class StatsProvider:
    """Relation counts and per-position distinct-value estimates.

    Reads through a :class:`~repro.core.state.PeerState`: the visible
    cardinality of ``relation@peer`` is the union of the extensional store,
    the derived store and the provided facts (matching what the evaluator's
    fact view iterates).
    """

    def __init__(self, state):
        self.state = state
        # {(relation, peer): (count when computed, distinct values per position)}
        self._distinct: Dict[Tuple[str, str], Tuple[int, Tuple[int, ...]]] = {}

    def count(self, relation: str, peer: str) -> int:
        """Current number of facts visible for ``relation@peer``."""
        state = self.state
        if relation.startswith(BINDING_PREFIX):
            return state.bindings.count(relation, peer)
        return (state.store.count(relation, peer)
                + state.derived.count(relation, peer)
                + state.provided.count(relation, peer))

    def distinct(self, relation: str, peer: str, position: int) -> int:
        """Estimated distinct values at ``position`` of ``relation@peer``.

        One scan of the stored and derived rows (the usually-small provided
        set is ignored) counts every position at once; the counts are cached
        until the relation count drifts.  Values are typed (``True``, ``1``
        and ``1.0`` are three).  Always at least 1 so it can be used as a
        divisor.
        """
        count = self.count(relation, peer)
        key = (relation, peer)
        cached = self._distinct.get(key)
        if cached is None or drifted(cached[0], count):
            state = self.state
            columns = zip(*map(_values_of, chain(state.store.facts(relation, peer),
                                                 state.derived.facts(relation, peer),
                                                 state.bindings.facts(relation, peer))))
            cached = self._distinct[key] = (count, tuple(
                len(set(map(typed_value, column))) for column in columns))
        sizes = cached[1]  # empty for an empty relation
        return sizes[position] if position < len(sizes) else 1
