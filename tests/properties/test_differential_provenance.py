"""Differential equivalence of incremental and full-recompute provenance.

The incrementally maintained provenance graph (delta appends + support-count
retraction + scoped rederive clears) must answer why/lineage queries exactly
as the reference of ``tests/reference_engine.py`` — an engine that
recomputes every stage, so its tracker is rebuilt from scratch each time.  These tests drive
randomized insert/retract/delegation churn through both configurations in
lockstep and compare the full provenance story at every quiescence point.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.provenance.graph import ProvenanceGraph, ProvenanceTracker
from repro.runtime.system import WebdamLogSystem

from tests.reference_engine import ReferenceSystem, reference_engine

CHURN_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent blocked@p(node);
collection intensional tc@p(src, dst);
collection intensional ok@p(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
rule ok@p($x, $y) :- tc@p($x, $y), not blocked@p($x);
"""

operations = st.lists(
    st.tuples(st.sampled_from(["link+", "link-", "block+", "block-"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=5)),
    max_size=25,
)


def provenance_story(graph: ProvenanceGraph):
    """Everything a provenance query can observe, in comparable form."""
    return {
        fact: {
            "why": frozenset(graph.why(fact)),
            "lineage": graph.lineage(fact),
            "base_relations": graph.base_relations(fact),
        }
        for fact in graph.facts()
    }


def _engine_pair(program: str):
    incremental = WebdamLogEngine("p")
    naive = reference_engine("p")
    for engine in (incremental, naive):
        engine.provenance = ProvenanceTracker()
        engine.load_program(program)
    return incremental, naive


def _apply(engine: WebdamLogEngine, operation) -> None:
    kind, a, b = operation
    if kind == "link+":
        engine.insert_fact(Fact("link", "p", (a, b)))
    elif kind == "link-":
        engine.delete_fact(Fact("link", "p", (a, b)))
    elif kind == "block+":
        engine.insert_fact(Fact("blocked", "p", (a,)))
    else:
        engine.delete_fact(Fact("blocked", "p", (a,)))


class TestSinglePeerDifferential:
    @given(operations)
    @settings(max_examples=30, deadline=None)
    def test_churn_stream_matches_naive_provenance(self, stream):
        """Why/lineage stories agree after every quiescence point."""
        incremental, naive = _engine_pair(CHURN_PROGRAM)
        incremental.run_to_quiescence()
        naive.run_to_quiescence()
        for operation in stream:
            _apply(incremental, operation)
            _apply(naive, operation)
            incremental.run_to_quiescence(max_stages=30)
            naive.run_to_quiescence(max_stages=30)
            assert incremental.snapshot() == naive.snapshot()
            assert (provenance_story(incremental.provenance.graph)
                    == provenance_story(naive.provenance.graph))

    @given(operations)
    @settings(max_examples=15, deadline=None)
    def test_batched_churn_matches_naive_provenance(self, stream):
        """Mixed insert/delete batches per stage keep the stories identical."""
        incremental, naive = _engine_pair(CHURN_PROGRAM)
        for batch_start in range(0, len(stream), 4):
            for operation in stream[batch_start:batch_start + 4]:
                _apply(incremental, operation)
                _apply(naive, operation)
            incremental.run_to_quiescence(max_stages=30)
            naive.run_to_quiescence(max_stages=30)
            assert (provenance_story(incremental.provenance.graph)
                    == provenance_story(naive.provenance.graph))

    def test_incremental_does_strictly_less_work(self):
        """The whole point: same stories, far fewer substitutions explored."""
        streams = [("link+", i, i + 1) for i in range(12)]
        streams += [("link+", 20 + i, i) for i in range(5)]
        incremental, naive = _engine_pair(CHURN_PROGRAM)
        for operation in streams:
            _apply(incremental, operation)
            _apply(naive, operation)
            incremental.run_to_quiescence(max_stages=20)
            naive.run_to_quiescence(max_stages=20)
        assert (provenance_story(incremental.provenance.graph)
                == provenance_story(naive.provenance.graph))
        assert (naive.metrics["core", "substitutions_explored"]
                >= 5 * incremental.metrics["core", "substitutions_explored"])
        assert incremental.metrics["core", "stages_delta"] > 0


def _build_system(system: WebdamLogSystem) -> WebdamLogSystem:
    for name in ("hub", "left", "right"):
        system.add_peer(name)
    system.peer("hub").load_program("""
    collection extensional persistent follows@hub(who);
    collection intensional wall@hub(id);
    rule wall@hub($id) :- follows@hub($f), posts@$f($id);
    """)
    system.peer("left").load_program(
        "collection extensional persistent posts@left(id);")
    system.peer("right").load_program(
        "collection extensional persistent posts@right(id);")
    return system


class TestDistributedDifferential:
    def test_scratch_inbox_matches_naive_provenance(self):
        """Housekeeping clears (a scratch inbox's provided facts) retract exactly."""
        results = {}
        for mode, build in (("incremental", WebdamLogSystem),
                            ("naive", ReferenceSystem)):
            system = build(provenance=True)
            source = system.add_peer("source")
            sink = system.add_peer("sink")
            sink.load_program("""
            collection intensional scratch inbox@sink(id);
            collection intensional log@sink(id);
            rule log@sink($x) :- inbox@sink($x);
            """)
            source.load_program("""
            collection extensional persistent outbox@source(id);
            rule inbox@sink($x) :- outbox@source($x);
            """)
            source.insert_fact(Fact("outbox", "source", (1,)))
            system.converge(max_steps=40)
            source.insert_fact(Fact("outbox", "source", (2,)))
            source.delete_fact(Fact("outbox", "source", (1,)))
            system.converge(max_steps=40)
            results[mode] = (system.snapshot(), {
                name: provenance_story(system.peer(name).engine.provenance.graph)
                for name in ("source", "sink")
            })
        assert results["incremental"] == results["naive"]

    @pytest.mark.parametrize("seed", [7, 91, 1234])
    def test_delegation_churn_matches_naive_provenance(self, seed):
        """Randomized delegation/retraction churn with shipped derivations.

        Follow churn makes the hub's wall rule delegate to (and retract
        from) the attendee peers; the shipped provenance recorded at the hub
        must agree between the incremental and naive configurations.
        """
        incremental = _build_system(WebdamLogSystem(provenance=True))
        naive = _build_system(ReferenceSystem(provenance=True))
        rng = random.Random(seed)
        script = []
        for _ in range(20):
            roll = rng.random()
            target = rng.choice(["left", "right"])
            value = rng.randrange(8)
            if roll < 0.3:
                script.append(("follow+", target, None))
            elif roll < 0.45:
                script.append(("follow-", target, None))
            elif roll < 0.8:
                script.append(("post+", target, value))
            else:
                script.append(("post-", target, value))
        for kind, target, value in script:
            for system in (incremental, naive):
                if kind == "follow+":
                    system.peer("hub").insert_fact(Fact("follows", "hub", (target,)))
                elif kind == "follow-":
                    system.peer("hub").delete_fact(Fact("follows", "hub", (target,)))
                elif kind == "post+":
                    system.peer(target).insert_fact(Fact("posts", target, (value,)))
                else:
                    system.peer(target).delete_fact(Fact("posts", target, (value,)))
            assert incremental.converge(max_steps=60).converged
            assert naive.converge(max_steps=60).converged
            assert incremental.snapshot() == naive.snapshot()
            for name in ("hub", "left", "right"):
                inc_graph = incremental.peer(name).engine.provenance.graph
                nai_graph = naive.peer(name).engine.provenance.graph
                assert (provenance_story(inc_graph)
                        == provenance_story(nai_graph)), name


def _transitive_closure(engine: WebdamLogEngine) -> None:
    """A 16-node chain, then five edges back into it, one stage each."""
    engine.load_program("""
    collection extensional persistent link@p(src, dst);
    collection intensional tc@p(src, dst);
    rule tc@p($x, $y) :- link@p($x, $y);
    rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
    """)
    for i in range(15):
        engine.insert_fact(Fact("link", "p", (i, i + 1)))
    engine.run_to_quiescence(max_stages=10)
    for i in range(5):
        engine.insert_fact(Fact("link", "p", (16 + i, i)))
        engine.run_to_quiescence(max_stages=10)


def _wepic_ranking(engine: WebdamLogEngine) -> None:
    """Visibility and recommendation joins over six users' albums, then
    uploads and likes streaming in, one stage each."""
    engine.load_program("""
    collection extensional persistent pictures@p(id, owner);
    collection extensional persistent friend@p(viewer, owner);
    collection extensional persistent liked@p(id, user);
    collection intensional visible@p(id, viewer);
    collection intensional recommended@p(id, viewer);
    rule visible@p($id, $v) :- friend@p($v, $o), pictures@p($id, $o);
    rule recommended@p($id, $v) :- visible@p($id, $v), friend@p($v, $u), liked@p($id, $u);
    """)
    for picture in range(30):
        engine.insert_fact(Fact("pictures", "p", (picture, f"user{picture % 6}")))
    for viewer in range(6):
        for offset in (1, 2):
            engine.insert_fact(Fact("friend", "p", (f"user{viewer}",
                                                    f"user{(viewer + offset) % 6}")))
    engine.run_to_quiescence(max_stages=10)
    rng = random.Random(1729)
    uploaded = 30
    for step in range(14):
        if step % 2 == 0:
            engine.insert_fact(Fact("pictures", "p", (uploaded, f"user{uploaded % 6}")))
            uploaded += 1
        else:
            engine.insert_fact(Fact("liked", "p", (rng.randrange(uploaded),
                                                   f"user{rng.randrange(6)}")))
        engine.run_to_quiescence(max_stages=10)


class TestWorkReduction:
    @pytest.mark.parametrize("workload", [_transitive_closure, _wepic_ranking],
                             ids=["transitive_closure", "wepic_ranking"])
    def test_same_story_for_a_fifth_of_the_work(self, workload):
        """Insert streams under a tracker: the maintained graph answers as
        the one rebuilt by every recompute, at least 5x cheaper, along the
        delta path."""
        incremental, naive = WebdamLogEngine("p"), reference_engine("p")
        for engine in (incremental, naive):
            engine.provenance = ProvenanceTracker()
            workload(engine)
        assert incremental.snapshot() == naive.snapshot()
        assert (provenance_story(incremental.provenance.graph)
                == provenance_story(naive.provenance.graph))
        counters = incremental.metrics
        assert counters["core", "stages_delta"] + counters["core", "stages_rederive"] > 0
        assert (naive.metrics["core", "substitutions_explored"]
                >= 5 * counters["core", "substitutions_explored"])
