"""Rule-body → SQL compilation: the whole-body pushdown path must agree
with the tuple-at-a-time Python evaluator on every shape it claims to
handle (joins, bound-argument probes, negation, ground heads) and must
*refuse* — ``compile()`` returning ``None`` — every shape it cannot prove
equivalent (variable relation/peer positions, remote literals, provided
facts), so the evaluator falls back literal by literal."""

from __future__ import annotations

import pytest

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.terms import Variable
from repro.provenance.graph import ProvenanceTracker
from repro.store.compiler import _EMPTY


def sqlite_engine(program: str) -> WebdamLogEngine:
    engine = WebdamLogEngine("p", storage="sqlite")
    engine.load_program(program)
    return engine


def memory_engine(program: str) -> WebdamLogEngine:
    engine = WebdamLogEngine("p", storage="memory")
    engine.load_program(program)
    return engine


def converge_pair(program: str, facts):
    """The same program and facts through both backends; returns the engines."""
    engines = (sqlite_engine(program), memory_engine(program))
    for engine in engines:
        for fact in facts:
            engine.insert_fact(fact)
        engine.run_to_quiescence(max_stages=50)
    return engines


class TestCompiledShapes:
    def test_join_runs_as_single_statement(self):
        program = """
        collection extensional persistent link@p(src, dst);
        collection intensional hop2@p(src, dst);
        rule hop2@p($x, $z) :- link@p($x, $y), link@p($y, $z);
        """
        facts = [Fact("link", "p", (i, i + 1)) for i in range(5)]
        sql, mem = converge_pair(program, facts)
        assert sql.snapshot() == mem.snapshot()
        assert sql.eval_counters["compiled_sql"] > 0
        assert sql.state.backend.counters["compiled_statements"] > 0
        assert mem.eval_counters["compiled_sql"] == 0

    def test_bound_argument_probe(self):
        program = """
        collection extensional persistent rate@p(user, stars);
        collection intensional fives@p(user);
        rule fives@p($u) :- rate@p($u, 5);
        """
        facts = [Fact("rate", "p", (f"u{i}", i % 6)) for i in range(12)]
        sql, mem = converge_pair(program, facts)
        assert sql.snapshot() == mem.snapshot()
        assert sql.eval_counters["compiled_sql"] > 0

    def test_negation_as_not_exists(self):
        program = """
        collection extensional persistent link@p(src, dst);
        collection extensional persistent blocked@p(node);
        collection intensional ok@p(src, dst);
        rule ok@p($x, $y) :- link@p($x, $y), not blocked@p($x);
        """
        facts = ([Fact("link", "p", (i, i + 1)) for i in range(6)]
                 + [Fact("blocked", "p", (2,)), Fact("blocked", "p", (4,))])
        sql, mem = converge_pair(program, facts)
        assert sql.snapshot() == mem.snapshot()
        assert sql.eval_counters["compiled_sql"] > 0

    def test_repeated_variable_inside_negated_literal(self):
        """A variable repeated inside one negated literal constrains that
        literal's rows against themselves (here: no self-loop exists at all)
        without binding anything for the rest of the body.  The safety check
        keeps such rules out of parsed programs, so drive the compiler
        directly with a hand-built rule."""
        engine = sqlite_engine("""
        collection extensional persistent node@p(id);
        collection extensional persistent link@p(src, dst);
        collection intensional calm@p(id);
        """)
        x, z = Variable("x"), Variable("z")
        rule = Rule(head=Atom("calm", "p", (x,)),
                    body=(Atom("node", "p", (x,)),
                          Atom("link", "p", (z, z), negated=True)))
        for i in range(3):
            engine.insert_fact(Fact("node", "p", (i,)))
        engine.insert_fact(Fact("link", "p", (1, 2)))
        engine.run_to_quiescence()
        rows = engine.state.pushdown.run(rule)
        assert sorted(s[x].value for s in rows) == [0, 1, 2]
        engine.insert_fact(Fact("link", "p", (2, 2)))  # self-loop appears
        engine.run_to_quiescence()
        assert engine.state.pushdown.run(rule) == []

    def test_ground_head_existence(self):
        program = """
        collection extensional persistent sensor@p(id, level);
        collection intensional alarm@p();
        rule alarm@p() :- sensor@p($x, 5);
        """
        quiet = [Fact("sensor", "p", (1, 2)), Fact("sensor", "p", (2, 3))]
        sql, mem = converge_pair(program, quiet)
        assert sql.snapshot() == mem.snapshot()
        assert "alarm@p" not in sql.snapshot()
        loud = quiet + [Fact("sensor", "p", (3, 5))]
        sql, mem = converge_pair(program, loud)
        assert sql.snapshot() == mem.snapshot()
        assert sql.snapshot()["alarm@p"] == (Fact("alarm", "p", ()),)

    def test_empty_relation_compiles_to_no_statement(self):
        """A body reading a relation with no stored facts is provably empty:
        the pushdown answers without running any SQL."""
        engine = sqlite_engine("""
        collection extensional persistent ghost@p(x);
        collection intensional echo@p(x);
        rule echo@p($x) :- ghost@p($x);
        """)
        engine.run_to_quiescence()
        [rule] = engine.state.own_rules
        assert engine.state.pushdown.compile(rule) is _EMPTY
        assert engine.state.pushdown.run(rule) == []
        assert engine.state.backend.counters["compiled_statements"] == 0


class TestFallbacks:
    def test_variable_peer_literal_is_not_compiled(self):
        engine = sqlite_engine("""
        collection extensional persistent follows@p(who);
        collection intensional wall@p(id);
        rule wall@p($id) :- follows@p($f), posts@$f($id);
        """)
        [rule] = engine.state.own_rules
        assert engine.state.pushdown.compile(rule) is None
        assert engine.state.pushdown.run(rule) is None

    def test_remote_literal_is_not_compiled(self):
        engine = sqlite_engine("""
        collection extensional persistent posts@q(id);
        collection intensional mirror@p(id);
        rule mirror@p($id) :- posts@q($id);
        """)
        [rule] = engine.state.own_rules
        assert engine.state.pushdown.compile(rule) is None

    def test_provided_facts_force_fallback(self):
        """Facts pushed into a local intensional relation live outside the
        store tables; a body reading that relation must not be pushed down —
        and the fallback still computes the same answers as a memory engine."""
        program = """
        collection intensional seen@p(id);
        collection intensional twice@p(a, b);
        rule twice@p($x, $y) :- seen@p($x), seen@p($y);
        """
        engines = (sqlite_engine(program), memory_engine(program))
        for engine in engines:
            engine.receive_facts("remote", inserted=[Fact("seen", "p", (1,)),
                                                     Fact("seen", "p", (2,))])
            engine.run_to_quiescence(max_stages=10)
        sql, mem = engines
        assert sql.snapshot() == mem.snapshot()
        assert len(sql.snapshot()["twice@p"]) == 4

    def test_a_constant_beyond_64_bits_falls_back(self):
        """No SQLite column holds the constant: the body is not compiled,
        and the Python path finds no row holding it, like the memory
        backend."""
        program = """
        collection extensional persistent pair@p(a, b);
        collection intensional odd@p(a);
        collection intensional even@p(a);
        rule odd@p($x) :- pair@p($x, 1180591620717411303424);
        rule even@p($x) :- pair@p($x, $y), not pair@p($x, 1180591620717411303424);
        """
        sql, mem = converge_pair(program, [Fact("pair", "p", (1, 2))])
        assert sql.snapshot() == mem.snapshot()
        assert sql.snapshot()["even@p"] == (Fact("even", "p", (1,)),)
        assert all(sql.state.pushdown.compile(rule) is None for rule in sql.state.own_rules)

    def test_provenance_disables_pushdown(self):
        """Provenance recording needs per-derivation support tuples, which a
        set-at-a-time SQL result cannot carry — the engine must keep the
        evaluator on the Python path."""
        engine = WebdamLogEngine("p", storage="sqlite")
        engine.provenance = ProvenanceTracker()
        engine.load_program("""
        collection extensional persistent link@p(src, dst);
        collection intensional hop2@p(src, dst);
        rule hop2@p($x, $z) :- link@p($x, $y), link@p($y, $z);
        """)
        for i in range(4):
            engine.insert_fact(Fact("link", "p", (i, i + 1)))
        engine.run_to_quiescence()
        assert engine.eval_counters["compiled_sql"] == 0
        assert len(engine.snapshot()["hop2@p"]) == 3


class TestAggregatePushdown:
    def _deployment(self, rows):
        deployment = (system().storage("sqlite")
                      .peer("hub").program("""
                      collection extensional persistent sales@hub(region, amount);
                      """).done().build())
        for region, amount in rows:
            deployment.peer("hub").insert(Fact("sales", "hub", (region, amount)))
        deployment.converge()
        return deployment

    def _counters(self, deployment):
        return deployment.runtime.peer("hub").engine.state.backend.counters

    def test_integer_sum_group_by(self):
        deployment = self._deployment(
            [("eu", 10), ("eu", 20), ("us", 5), ("us", 7)])
        view = deployment.query(
            "hub", "totals($r, sum($a)) :- sales@hub($r, $a)")
        deployment.converge()
        assert sorted(view.rows()) == [("eu", 30), ("us", 12)]
        assert self._counters(deployment)["aggregate_pushdowns"] == 1
        deployment.close()

    def test_float_sum_falls_back(self):
        """Float accumulation order is not associative — SUM/AVG over floats
        must come from the Python path, bit-identical by construction."""
        deployment = self._deployment(
            [("eu", 0.1), ("eu", 0.2), ("us", 5)])
        view = deployment.query(
            "hub", "totals($r, sum($a)) :- sales@hub($r, $a)")
        deployment.converge()
        assert self._counters(deployment)["aggregate_pushdowns"] == 0
        assert sorted(view.rows()) == [("eu", 0.1 + 0.2), ("us", 5)]
        deployment.close()

    def test_mixed_type_min_falls_back(self):
        """MIN over a column holding several value types cannot be decoded
        from one SQL result column; both backends must take the Python path
        (whose own behaviour on unorderable mixes — raising — is unchanged)."""
        deployment = self._deployment(
            [("eu", 3), ("eu", 7), ("us", "cheap"), ("us", "dear")])
        view = deployment.query(
            "hub", "floor($r, min($a)) :- sales@hub($r, $a)")
        deployment.converge()
        assert self._counters(deployment)["aggregate_pushdowns"] == 0
        assert sorted(view.rows()) == [("eu", 3), ("us", "cheap")]
        deployment.close()

    def test_avg_and_count_match_memory(self):
        rows = [(f"r{i % 3}", i) for i in range(11)]
        answers = {}
        for backend in ("memory", "sqlite"):
            deployment = (system().storage(backend)
                          .peer("hub").program("""
                          collection extensional persistent sales@hub(region, amount);
                          """).done().build())
            for region, amount in rows:
                deployment.peer("hub").insert(Fact("sales", "hub", (region, amount)))
            deployment.converge()
            view = deployment.query(
                "hub",
                "board($r, avg($a), count($a)) :- sales@hub($r, $a)")
            deployment.converge()
            answers[backend] = sorted(view.rows())
            deployment.close()
        assert answers["memory"] == answers["sqlite"]

    def test_integer_overflow_and_large_averages_match_memory(self):
        """SQLite's integer SUM overflows where Python's does not, and its
        average would round the sum to a double before dividing: the
        pushdown answers neither, both backends give Python's answers."""
        big = [1094326513867019457, 1043778702358056735, 39771454358884755]
        rows = [("eu", 2 ** 62), ("eu", 2 ** 62 + 1)] + [("us", amount) for amount in big]
        answers = {}
        for backend in ("memory", "sqlite"):
            deployment = (system().storage(backend)
                          .peer("hub").program("""
                          collection extensional persistent sales@hub(region, amount);
                          """).done().build())
            deployment.peer("hub").insert_many(
                [Fact("sales", "hub", row) for row in rows])
            deployment.converge()
            views = [deployment.query("hub", f"{name}($r, {name}($a)) :- sales@hub($r, $a)")
                     for name in ("sum", "avg")]
            deployment.converge()
            answers[backend] = [sorted(view.rows()) for view in views]
            deployment.close()
        assert answers["sqlite"] == answers["memory"] == [
            [("eu", 9223372036854775809), ("us", sum(big))],
            [("eu", 9223372036854775809 / 2), ("us", sum(big) / 3)]]
        # Rounding the sum first gives another double.
        assert float(sum(big)) / 3 != sum(big) / 3

    def test_a_sum_that_fits_is_pushed_down(self):
        deployment = self._deployment([("eu", 2 ** 62), ("eu", 2 ** 62 - 1)])
        view = deployment.query(
            "hub", "totals($r, sum($a), avg($a)) :- sales@hub($r, $a)")
        deployment.converge()
        assert sorted(view.rows()) == [("eu", 2 ** 63 - 1, (2 ** 63 - 1) / 2)]
        assert self._counters(deployment)["aggregate_pushdowns"] == 1
        deployment.close()
