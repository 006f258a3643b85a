"""Differential equivalence of the engine and the clear-and-recompute reference.

The engine (seminaive insert path + scoped delete-and-rederive) must be
observationally identical to the reference of ``tests/reference_engine.py``,
which recomputes every stage and scans every probe:
byte-identical snapshots after every operation, identical outgoing updates
and delegations at the system level — only the amount of work may differ.

These tests drive randomized programs and fact streams (including deletions,
provided facts and delegations) through both engines in lockstep and compare
snapshots at every quiescence point.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.runtime.system import WebdamLogSystem

from tests.reference_engine import ReferenceSystem, reference_engine

CHURN_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent blocked@p(node);
collection intensional tc@p(src, dst);
collection intensional ok@p(src, dst);
collection intensional bad@p(node);
collection intensional clear@p(src, dst);
collection intensional oneway@p(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
rule ok@p($x, $y) :- tc@p($x, $y), not blocked@p($x);
rule bad@p($n) :- blocked@p($n), link@p($n, $y);
rule clear@p($x, $y) :- tc@p($x, $y), not bad@p($x);
rule oneway@p($x, $y) :- link@p($x, $y), not tc@p($y, $x);
"""

#: One random operation: (kind, a, b) over a small node domain.
operations = st.lists(
    st.tuples(st.sampled_from(["link+", "link-", "block+", "block-"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=7)),
    max_size=30,
)


def _engine_pair(program: str):
    incremental = WebdamLogEngine("p")
    naive = reference_engine("p")
    incremental.load_program(program)
    naive.load_program(program)
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
    @settings(max_examples=40, deadline=None)
    def test_churn_stream_matches_naive_engine(self, stream):
        """Snapshots agree after every quiescence point of a churn stream."""
        incremental, naive = _engine_pair(CHURN_PROGRAM)
        incremental.run_to_quiescence()
        naive.run_to_quiescence()
        for operation in stream:
            _apply(incremental, operation)
            _apply(naive, operation)
            incremental.run_to_quiescence(max_stages=30)
            naive.run_to_quiescence(max_stages=30)
            assert incremental.snapshot() == naive.snapshot()

    @given(operations)
    @settings(max_examples=20, deadline=None)
    def test_batched_stream_matches_naive_engine(self, stream):
        """Whole-stream batches (mixed inserts and deletes per stage) agree."""
        incremental, naive = _engine_pair(CHURN_PROGRAM)
        for batch_start in range(0, len(stream), 5):
            for operation in stream[batch_start:batch_start + 5]:
                _apply(incremental, operation)
                _apply(naive, operation)
            incremental.run_to_quiescence(max_stages=30)
            naive.run_to_quiescence(max_stages=30)
            assert incremental.snapshot() == naive.snapshot()

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_provided_facts_match_naive_engine(self, stream):
        """Facts pushed to a local intensional relation (provided facts)."""
        program = """
        collection intensional seen@p(id);
        collection intensional twice@p(id);
        rule twice@p($x) :- seen@p($x), seen@p($x);
        """
        incremental, naive = _engine_pair(program)
        for insert, value in stream:
            fact = Fact("seen", "p", (value,))
            for engine in (incremental, naive):
                if insert:
                    engine.receive_facts("remote", inserted=[fact])
                else:
                    engine.receive_facts("remote", deleted=[fact])
            incremental.run_to_quiescence(max_stages=10)
            naive.run_to_quiescence(max_stages=10)
            assert incremental.snapshot() == naive.snapshot()


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
    @pytest.mark.parametrize("seed", [3, 17, 101, 2024])
    def test_delegation_churn_matches_naive_system(self, seed):
        """Randomized multi-peer streams with delegations and retractions.

        The hub's wall rule delegates to ``left``/``right`` when a follow
        appears and retracts the delegation when it is withdrawn; both modes
        must agree on every peer's full snapshot after each convergence.
        """
        incremental = _build_system(WebdamLogSystem())
        naive = _build_system(ReferenceSystem())
        rng = random.Random(seed)
        script = []
        for _ in range(25):
            roll = rng.random()
            target = rng.choice(["left", "right"])
            value = rng.randrange(12)
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

    def test_scratch_inbox_matches_naive_system(self):
        """Provided facts of a scratch relation live one stage in both modes."""
        results = {}
        for mode, build in (("incremental", WebdamLogSystem),
                            ("naive", ReferenceSystem)):
            system = build()
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
            results[mode] = system.snapshot()
        assert results["incremental"] == results["naive"]


class TestWorkReduction:
    def test_substitutions_drop_on_transitive_closure(self):
        """Regression: the incremental engine explores ≥5× fewer substitutions
        than the seed clear-and-recompute on an incremental TC workload."""
        counters = {}
        snapshots = {}
        for mode, engine in (("incremental", WebdamLogEngine("p")),
                             ("naive", reference_engine("p"))):
            engine.load_program("""
            collection extensional persistent link@p(src, dst);
            collection intensional tc@p(src, dst);
            rule tc@p($x, $y) :- link@p($x, $y);
            rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
            """)
            for i in range(19):
                engine.insert_fact(Fact("link", "p", (i, i + 1)))
            engine.run_to_quiescence()
            for i in range(6):
                engine.insert_fact(Fact("link", "p", (20 + i, i)))
                engine.run_to_quiescence()
            counters[mode] = engine.metrics["core", "substitutions_explored"]
            snapshots[mode] = engine.snapshot()
        assert snapshots["incremental"] == snapshots["naive"]
        assert counters["naive"] >= 5 * counters["incremental"]

    def test_noop_stage_skips_evaluation(self):
        """A stage with an empty input delta does not evaluate anything."""
        engine = WebdamLogEngine("p")
        engine.load_program("""
        collection extensional persistent base@p(x);
        collection intensional view@p(x);
        fact base@p(1);
        rule view@p($x) :- base@p($x);
        """)
        engine.run_to_quiescence()
        result = engine.run_stage()
        assert result.evaluation_path == "skip"
        assert result.substitutions_explored == 0
        assert result.is_quiescent()
