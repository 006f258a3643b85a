"""Differential equivalence of the storage backends.

The sqlite backend keeps rows, commits and recovers; it evaluates nothing
itself.  So it must be observationally identical to the memory backend:
byte-identical snapshots after every quiescence point, identical live-view
answers (float aggregates to the bit, after a reopen too) and the same
work — every stage of a churn stream takes the same path and counts the
same rule evaluations and substitutions on both."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

CHURN_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent blocked@p(node);
collection intensional tc@p(src, dst);
collection intensional ok@p(src, dst);
collection intensional bad@p(node);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
rule ok@p($x, $y) :- tc@p($x, $y), not blocked@p($x);
rule bad@p($n) :- blocked@p($n), link@p($n, $y);
"""

operations = st.lists(
    st.tuples(st.sampled_from(["link+", "link-", "block+", "block-"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=7)),
    max_size=30,
)


def _engine_pair():
    sql = WebdamLogEngine("p", storage="sqlite")
    mem = WebdamLogEngine("p", storage="memory")
    sql.load_program(CHURN_PROGRAM)
    mem.load_program(CHURN_PROGRAM)
    return sql, mem


def _work(results):
    """What each stage of a ``run_to_quiescence`` did and counted."""
    return [(result.evaluation_path, result.rules_evaluated,
             result.substitutions_explored) for result in results]


def _apply(engine, operation):
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
    @settings(max_examples=25, deadline=None)
    def test_churn_stream_matches_memory_backend(self, stream):
        sql, mem = _engine_pair()
        assert _work(sql.run_to_quiescence()) == _work(mem.run_to_quiescence())
        for operation in stream:
            _apply(sql, operation)
            _apply(mem, operation)
            assert (_work(sql.run_to_quiescence(max_stages=30))
                    == _work(mem.run_to_quiescence(max_stages=30)))
            assert sql.snapshot() == mem.snapshot()

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=20))
    @settings(max_examples=15, deadline=None)
    def test_provided_facts_match_memory_backend(self, stream):
        """Provided facts live outside either backend's tables; results
        must still agree exactly."""
        program = """
        collection intensional seen@p(id);
        collection intensional twice@p(id);
        rule twice@p($x) :- seen@p($x), seen@p($x);
        """
        sql = WebdamLogEngine("p", storage="sqlite")
        mem = WebdamLogEngine("p", storage="memory")
        sql.load_program(program)
        mem.load_program(program)
        for insert, value in stream:
            fact = Fact("seen", "p", (value,))
            for engine in (sql, mem):
                if insert:
                    engine.receive_facts("remote", inserted=[fact])
                else:
                    engine.receive_facts("remote", deleted=[fact])
            sql.run_to_quiescence(max_stages=10)
            mem.run_to_quiescence(max_stages=10)
            assert sql.snapshot() == mem.snapshot()


def _build_deployment(backend: str):
    builder = system().storage(backend)
    builder.peer("hub").program("""
    collection extensional persistent follows@hub(who);
    collection extensional persistent hidden@hub(id);
    collection intensional wall@hub(id);
    collection intensional shown@hub(id);
    rule wall@hub($id) :- follows@hub($f), posts@$f($id);
    rule shown@hub($id) :- wall@hub($id), not hidden@hub($id);
    """)
    for name in ("left", "right"):
        builder.peer(name).program(
            f"collection extensional persistent posts@{name}(id);")
    return builder.build()


class TestDistributedDifferential:
    @pytest.mark.parametrize("seed", [3, 17, 101, 2024])
    def test_delegation_churn_matches_memory_deployment(self, seed):
        """Randomized multi-peer streams (delegations, retractions, hides)
        drive both backends in lockstep; snapshots and open live-view answers
        must agree after every convergence."""
        sql = _build_deployment("sqlite")
        mem = _build_deployment("memory")
        views = {}
        for label, deployment in (("sqlite", sql), ("memory", mem)):
            views[label] = [
                deployment.query("hub", "page($id) :- shown@hub($id)"),
                deployment.query(
                    "hub", "tally($f, count($id)) :- "
                    "follows@hub($f), posts@$f($id)"),
            ]
            deployment.converge()
        rng = random.Random(seed)
        for _ in range(25):
            roll = rng.random()
            target = rng.choice(["left", "right"])
            value = rng.randrange(12)
            for deployment in (sql, mem):
                if roll < 0.25:
                    deployment.peer("hub").insert(
                        Fact("follows", "hub", (target,)))
                elif roll < 0.4:
                    deployment.peer("hub").delete(
                        Fact("follows", "hub", (target,)))
                elif roll < 0.55:
                    deployment.peer("hub").insert(Fact("hidden", "hub", (value,)))
                elif roll < 0.65:
                    deployment.peer("hub").delete(Fact("hidden", "hub", (value,)))
                elif roll < 0.9:
                    deployment.peer(target).insert(
                        Fact("posts", target, (value,)))
                else:
                    deployment.peer(target).delete(
                        Fact("posts", target, (value,)))
            assert sql.converge(max_steps=80).converged
            assert mem.converge(max_steps=80).converged
            assert sql.snapshot() == mem.snapshot()
            for sql_view, mem_view in zip(views["sqlite"], views["memory"]):
                assert sorted(sql_view.rows()) == sorted(mem_view.rows())
        for deployment_views in views.values():
            for view in deployment_views:
                view.close()
        sql.close()
        mem.close()

    def test_durable_deployment_matches_memory_after_reload(self, tmp_path):
        """The same churn through a durable deployment that is closed and
        reopened mid-stream still matches an uninterrupted memory run."""
        mem = _build_deployment("memory")
        durable = (system().storage("sqlite", path=str(tmp_path))
                   .peer("hub").program("""
                   collection extensional persistent follows@hub(who);
                   collection extensional persistent hidden@hub(id);
                   collection intensional wall@hub(id);
                   collection intensional shown@hub(id);
                   rule wall@hub($id) :- follows@hub($f), posts@$f($id);
                   rule shown@hub($id) :- wall@hub($id), not hidden@hub($id);
                   """).done()
                   .peer("left").program(
                       "collection extensional persistent posts@left(id);").done()
                   .peer("right").program(
                       "collection extensional persistent posts@right(id);").done()
                   .build())
        rng = random.Random(7)
        script = []
        for _ in range(16):
            script.append((rng.random(), rng.choice(["left", "right"]),
                           rng.randrange(10)))

        def apply(deployment, step):
            roll, target, value = step
            if roll < 0.3:
                deployment.peer("hub").insert(Fact("follows", "hub", (target,)))
            elif roll < 0.45:
                deployment.peer("hub").insert(Fact("hidden", "hub", (value,)))
            elif roll < 0.85:
                deployment.peer(target).insert(Fact("posts", target, (value,)))
            else:
                deployment.peer(target).delete(Fact("posts", target, (value,)))

        for step in script[:8]:
            apply(mem, step)
            apply(durable, step)
        mem.converge()
        durable.converge()
        durable.close()
        durable = (system().storage("sqlite", path=str(tmp_path))
                   .peer("hub").peer("left").peer("right").build())
        durable.converge()
        for step in script[8:]:
            apply(mem, step)
            apply(durable, step)
        mem.converge()
        durable.converge()
        assert durable.snapshot() == mem.snapshot()
        durable.close()
        mem.close()


def _bits(rows):
    """``rows`` with every float spelled by its exact bits."""
    return sorted(tuple(value.hex() if isinstance(value, float) else value
                        for value in row) for row in rows)


class TestAggregateViewsAfterReopen:
    #: Sums in which the order of the additions moves the last bits.
    SALES = [("eu", 0.1), ("eu", 0.2), ("eu", 0.3), ("eu", 1e16), ("eu", -1e16),
             ("us", 1.1), ("us", 2.2), ("us", 3), ("us", 1e-17), ("asia", 7)]
    QUERY = "board($r, sum($a), avg($a), count($a)) :- sales@hub($r, $a)"
    PROGRAM = "collection extensional persistent sales@hub(region, amount);"

    def _board(self, deployment):
        view = deployment.query("hub", self.QUERY)
        deployment.converge()
        return _bits(view.rows())

    def test_float_sums_and_averages_match_memory_to_the_bit(self, tmp_path):
        """A durable peer primes its aggregate view from the facts it
        decoded on reopen, with the memory peer's Python code: the answers
        are the same floats, bit for bit."""
        facts = [Fact("sales", "hub", row) for row in self.SALES]
        mem = system().storage("memory").peer("hub").program(self.PROGRAM).done().build()
        mem.peer("hub").insert_many(facts)
        mem.converge()
        expected = self._board(mem)
        assert len(expected) == 3
        mem.close()

        durable = (system().storage("sqlite", path=str(tmp_path))
                   .peer("hub").program(self.PROGRAM).done().build())
        durable.peer("hub").insert_many(facts)
        durable.converge()
        assert self._board(durable) == expected
        durable.close()
        durable = system().storage("sqlite", path=str(tmp_path)).peer("hub").build()
        durable.converge()
        assert self._board(durable) == expected
        durable.close()
