"""The reference the differential suites trust is what it claims to be.

``tests/reference_engine.py`` builds its baselines from outside the
engine; these tests pin that it does: every stage of a reference takes the
``full`` path from emptied relations (a path that drains a recursive
stratum's deltas, see ``tests/core/test_recursive_passes.py`` for its
independent check), every probe is a filtered scan that hands no
bindings to the store, the filtered scan answers each probe exactly as the
hash indexes do, and every body is walked in written order.
"""

import pytest

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

from tests.reference_engine import (
    ReferenceSystem,
    reference_deployment,
    reference_engine,
    written_order,
)

PROGRAM = """
collection extensional persistent link@p(src, dst);
collection intensional tc@p(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
"""

LINKS = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), (1, "b"), (True, "b"), (1.0, "c")]


def _loaded(engine):
    engine.load_program(PROGRAM)
    for link in LINKS:
        engine.insert_fact(Fact("link", "p", link))
    engine.run_to_quiescence()
    return engine


@pytest.mark.parametrize("bindings", [
    {}, {0: "a"}, {1: "b"}, {0: "a", 1: "b"}, {0: 1}, {0: True}, {0: "z"},
], ids=["unbound", "first", "second", "both", "int", "bool", "absent"])
def test_a_scan_answers_every_probe_as_the_index_does(bindings):
    indexed = _loaded(WebdamLogEngine("p", storage="memory"))
    scanned = _loaded(reference_engine("p"))
    for relation in ("link", "tc"):
        expected = set(indexed.state.fact_view(relation, "p", bindings))
        assert set(scanned.state.fact_view(relation, "p", bindings)) == expected


def test_a_scan_hands_the_store_no_bindings():
    engine = reference_engine("p")
    asked = []
    store_facts = engine.state.store.facts

    def recording(relation, peer, bindings=None):
        asked.append(bindings)
        return store_facts(relation, peer, bindings)

    engine.state.store.facts = recording
    _loaded(engine)
    assert asked and not any(asked)


def test_every_stage_of_the_reference_recomputes_from_scratch():
    engine = _loaded(reference_engine("p"))
    engine.delete_fact(Fact("link", "p", ("b", "c")))
    engine.run_to_quiescence()
    engine.run_stage()
    counters = engine.metrics
    assert counters["core", "stages_full"] >= 3
    assert counters["core", "stages_delta"] == counters["core", "stages_rederive"] == 0
    assert counters["core", "stages_skip"] == 0


def test_every_stage_of_the_reference_derives_into_empty_relations():
    """The engine replaces a non-recursive relation by difference; the
    reference empties it first, so the replacement starts from nothing."""
    engine = reference_engine("p")
    engine.load_program(PROGRAM + """
    collection intensional source@p(node);
    rule source@p($x) :- link@p($x, $y), not tc@p($y, $x);
    """)
    derived = engine.state.derived
    replace_relation = derived.replace_relation
    found = []

    def recording(relation, peer, rows):
        found.append(derived.count(relation, peer))
        return replace_relation(relation, peer, rows)

    derived.replace_relation = recording
    for link in LINKS:
        engine.insert_fact(Fact("link", "p", link))
    engine.run_to_quiescence()
    engine.delete_fact(Fact("link", "p", ("a", "d")))
    engine.run_to_quiescence()
    assert len(found) >= 2 and not any(found)
    assert engine.query("source")


def test_a_reference_system_runs_a_reference_at_every_peer():
    runtime = ReferenceSystem()
    for name in ("a", "b"):
        engine = runtime.add_peer(name).engine
        assert "run_stage" in vars(engine)
        assert "fact_view" in vars(engine.state)


def test_written_order_walks_every_body_as_written():
    """The engine plans ``tc``'s recursive rule; in written order the same
    fixpoint comes with no plan computed, none executed, none cached."""
    planned = _loaded(WebdamLogEngine("p"))
    written = _loaded(written_order(WebdamLogEngine("p")))
    assert written.snapshot() == planned.snapshot()
    assert planned.metrics["planner", "plans_computed"] > 0
    written.insert_fact(Fact("link", "p", ("d", "e")))
    written.run_to_quiescence()
    assert written.metrics["planner", "plans_computed"] == 0
    assert not any(written._planner._cache.values())


def test_every_reference_runs_in_written_order():
    """``reference_engine``, ``ReferenceSystem`` and ``reference_deployment``
    plan nothing for a program the engine plans."""
    deployment = reference_deployment(system().peer("p").program(PROGRAM).done())
    runtime = ReferenceSystem()
    runtime.add_peer("p", program=PROGRAM)
    links = [Fact("link", "p", link) for link in LINKS]
    deployment.peer("p").insert_many(links)
    deployment.converge()
    runtime.peer("p").engine.insert_facts(links)
    runtime.converge()
    engines = [_loaded(reference_engine("p")), deployment.runtime.peer("p").engine,
               runtime.peer("p").engine]
    for engine in engines:
        assert engine.query("tc")
        assert engine.metrics["planner", "plans_computed"] == 0


def test_a_reference_deployment_runs_a_reference_at_every_peer():
    deployment = reference_deployment(system().peer("a").done().peer("b").done())
    engines = [peer.engine for peer in deployment.runtime.peers.values()]
    assert len(engines) == 2
    for engine in engines:
        assert "run_stage" in vars(engine)
        assert "fact_view" in vars(engine.state)
