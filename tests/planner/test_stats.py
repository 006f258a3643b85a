"""``StatsProvider``: one scan of a relation answers every position.

The distinct-value estimates must equal what a scan per position would
count — typed, so ``True``, ``1`` and ``1.0`` are three values — over the
stored and the derived rows together, and a cached answer is recomputed
once the relation's count drifts.
"""

from __future__ import annotations

from itertools import chain

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.planner.stats import DRIFT_FACTOR, StatsProvider


def scanned_per_position(state, relation, peer, position):
    """The estimate as a scan of one position counts it."""
    values = {(type(fact.values[position]).__name__, fact.values[position])
              for fact in chain(state.store.facts(relation, peer),
                                state.derived.facts(relation, peer))
              if position < len(fact.values)}
    return max(1, len(values))


def counting_scans(state):
    """Count the relation scans each namespace answers."""
    scans = {"store": 0, "derived": 0}
    for namespace in scans:
        store = getattr(state, namespace)
        facts = store.facts

        def counted(relation, peer, bindings=None, _facts=facts, _namespace=namespace):
            scans[_namespace] += 1
            return _facts(relation, peer, bindings)

        store.facts = counted
    return scans


def mixed_state():
    state = WebdamLogEngine("p", storage="memory").state
    state.store.insert_many([Fact("r", "p", (True, 1, "a")),
                             Fact("r", "p", (1, 1.0, "a")),
                             Fact("r", "p", (1.0, 1, "b"))])
    state.derived.insert_many([Fact("r", "p", (1, True, "a")),
                               Fact("r", "p", (2, 2, "a"))])
    return state


class TestDistinct:
    def test_one_miss_fills_every_position(self):
        state = mixed_state()
        stats = StatsProvider(state)
        scans = counting_scans(state)
        estimates = [stats.distinct("r", "p", position) for position in range(3)]
        assert scans == {"store": 1, "derived": 1}
        assert estimates == [scanned_per_position(state, "r", "p", position)
                             for position in range(3)]
        assert estimates == [4, 4, 2]

    def test_a_position_past_the_arity_and_an_empty_relation_estimate_one(self):
        state = mixed_state()
        stats = StatsProvider(state)
        assert stats.distinct("r", "p", 7) == 1
        assert stats.distinct("missing", "p", 0) == 1
        assert stats.distinct("missing", "p", 0) == scanned_per_position(
            state, "missing", "p", 0)

    def test_a_drifted_count_recomputes(self):
        state = mixed_state()
        stats = StatsProvider(state)
        assert stats.distinct("r", "p", 2) == 2
        scans = counting_scans(state)
        # Within the drift factor the cached estimate stands.
        state.store.insert(Fact("r", "p", (3, 3, "c")))
        assert stats.distinct("r", "p", 2) == 2
        assert scans == {"store": 0, "derived": 0}
        # Past it, one scan recomputes every position.
        state.store.insert_many([Fact("r", "p", (index, index, f"x{index}"))
                                 for index in range(10, 10 + 5 * DRIFT_FACTOR)])
        estimates = [stats.distinct("r", "p", 2), stats.distinct("r", "p", 0)]
        assert scans == {"store": 1, "derived": 1}
        assert estimates == [scanned_per_position(state, "r", "p", 2),
                             scanned_per_position(state, "r", "p", 0)] == [23, 25]
