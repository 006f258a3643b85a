"""Rule-body → SQL compilation (:mod:`repro.store.compiler`).

Nothing in the program calls the compiler: every backend evaluates rules
and aggregates in Python.  It is kept while the benchmark's tracer names
``BodyPushdown.run`` and ``.aggregate``, so it is tested on its own, built
over a SQLite engine's state.  Its answers must agree with what the engine
evaluated on every shape it claims to handle (joins, bound-argument
probes, negation, ground heads, grouped aggregates) and it must *refuse* —
``None`` — every shape it cannot prove equivalent (variable relation/peer
positions, remote literals, provided facts, inexact sums)."""

from __future__ import annotations

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.terms import Variable
from repro.store.compiler import _EMPTY, BodyPushdown


def sqlite_engine(program: str, facts=()) -> WebdamLogEngine:
    engine = WebdamLogEngine("p", storage="sqlite")
    engine.load_program(program)
    for fact in facts:
        engine.insert_fact(fact)
    engine.run_to_quiescence(max_stages=50)
    return engine


def memory_engine(program: str, facts=()) -> WebdamLogEngine:
    engine = WebdamLogEngine("p", storage="memory")
    engine.load_program(program)
    for fact in facts:
        engine.insert_fact(fact)
    engine.run_to_quiescence(max_stages=50)
    return engine


def pushed_down(engine: WebdamLogEngine):
    """Each own rule run by :meth:`BodyPushdown.run` in its planned order:
    the head facts of the rows, by qualified relation.  Every rule must
    compile."""
    pushdown = BodyPushdown(engine.state)
    derived = {}
    for rule in engine.state.own_rules:
        plan = engine._planner.plan_rule(rule)
        rows = pushdown.run(rule, order=plan.order if plan is not None else None)
        assert rows is not None, rule
        derived.setdefault(rule.head.relation_constant() + "@p", set())
        for substitution in rows:
            fact = rule.head.substitute(substitution).to_fact()
            derived[fact.qualified_relation].add(fact)
    return derived


def evaluated(engine: WebdamLogEngine, relations):
    """What the engine's own evaluation holds of ``relations``."""
    snapshot = engine.snapshot()
    return {name: set(snapshot.get(name, ())) for name in relations}


class TestCompiledShapes:
    def test_join_runs_as_single_statement(self):
        engine = sqlite_engine("""
        collection extensional persistent link@p(src, dst);
        collection intensional hop2@p(src, dst);
        rule hop2@p($x, $z) :- link@p($x, $y), link@p($y, $z);
        """, [Fact("link", "p", (i, i + 1)) for i in range(5)])
        answers = pushed_down(engine)
        assert answers == evaluated(engine, answers)
        assert len(answers["hop2@p"]) == 4
        assert engine.state.backend.counters["compiled_statements"] == 1

    def test_bound_argument_probe(self):
        engine = sqlite_engine("""
        collection extensional persistent rate@p(user, stars);
        collection intensional fives@p(user);
        rule fives@p($u) :- rate@p($u, 5);
        """, [Fact("rate", "p", (f"u{i}", i % 6)) for i in range(12)])
        answers = pushed_down(engine)
        assert answers == evaluated(engine, answers)
        assert answers["fives@p"] == {Fact("fives", "p", ("u5",)),
                                      Fact("fives", "p", ("u11",))}

    def test_negation_as_not_exists(self):
        engine = sqlite_engine("""
        collection extensional persistent link@p(src, dst);
        collection extensional persistent blocked@p(node);
        collection intensional ok@p(src, dst);
        rule ok@p($x, $y) :- link@p($x, $y), not blocked@p($x);
        """, [Fact("link", "p", (i, i + 1)) for i in range(6)]
             + [Fact("blocked", "p", (2,)), Fact("blocked", "p", (4,))])
        answers = pushed_down(engine)
        assert answers == evaluated(engine, answers)
        assert len(answers["ok@p"]) == 4

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
        """, [Fact("node", "p", (i,)) for i in range(3)] + [Fact("link", "p", (1, 2))])
        x, z = Variable("x"), Variable("z")
        rule = Rule(head=Atom("calm", "p", (x,)),
                    body=(Atom("node", "p", (x,)),
                          Atom("link", "p", (z, z), negated=True)))
        pushdown = BodyPushdown(engine.state)
        rows = pushdown.run(rule)
        assert sorted(s[x].value for s in rows) == [0, 1, 2]
        engine.insert_fact(Fact("link", "p", (2, 2)))  # self-loop appears
        engine.run_to_quiescence()
        assert pushdown.run(rule) == []

    def test_ground_head_existence(self):
        program = """
        collection extensional persistent sensor@p(id, level);
        collection intensional alarm@p();
        rule alarm@p() :- sensor@p($x, 5);
        """
        quiet = [Fact("sensor", "p", (1, 2)), Fact("sensor", "p", (2, 3))]
        engine = sqlite_engine(program, quiet)
        assert pushed_down(engine) == evaluated(engine, ["alarm@p"]) == {"alarm@p": set()}
        engine = sqlite_engine(program, quiet + [Fact("sensor", "p", (3, 5))])
        assert pushed_down(engine) == evaluated(engine, ["alarm@p"]) == {
            "alarm@p": {Fact("alarm", "p", ())}}

    def test_empty_relation_compiles_to_no_statement(self):
        """A body reading a relation with no stored facts is provably empty:
        the pushdown answers without running any SQL."""
        engine = sqlite_engine("""
        collection extensional persistent ghost@p(x);
        collection intensional echo@p(x);
        rule echo@p($x) :- ghost@p($x);
        """)
        [rule] = engine.state.own_rules
        pushdown = BodyPushdown(engine.state)
        assert pushdown.compile(rule) is _EMPTY
        assert pushdown.run(rule) == []
        assert engine.state.backend.counters["compiled_statements"] == 0

    def test_a_stage_reading_an_empty_relation_gives_it_no_table(self):
        """Reading a declared relation that holds nothing writes no table,
        index or catalog row for it, in either namespace."""
        engine = sqlite_engine("""
        collection extensional persistent ghost@p(x);
        collection intensional echo@p(x);
        rule echo@p($x) :- ghost@p($x);
        """)
        backend = engine.state.backend
        assert backend.table_ref("store", "ghost", "p") is None
        assert backend.table_ref("derived", "ghost", "p") is None


class TestFallbacks:
    def test_variable_peer_literal_is_not_compiled(self):
        engine = sqlite_engine("""
        collection extensional persistent follows@p(who);
        collection intensional wall@p(id);
        rule wall@p($id) :- follows@p($f), posts@$f($id);
        """)
        [rule] = engine.state.own_rules
        pushdown = BodyPushdown(engine.state)
        assert pushdown.compile(rule) is None
        assert pushdown.run(rule) is None

    def test_remote_literal_is_not_compiled(self):
        engine = sqlite_engine("""
        collection extensional persistent posts@q(id);
        collection intensional mirror@p(id);
        rule mirror@p($id) :- posts@q($id);
        """)
        [rule] = engine.state.own_rules
        assert BodyPushdown(engine.state).compile(rule) is None

    def test_provided_facts_are_not_compiled(self):
        """Facts pushed into a local intensional relation live outside the
        store tables; a body reading that relation is not compiled — and
        both backends compute the same answers."""
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
        [rule] = sql.state.own_rules
        assert BodyPushdown(sql.state).compile(rule) is None

    def test_a_constant_beyond_64_bits_is_not_compiled(self):
        """No SQLite column holds the constant: the body is not compiled,
        and the engine finds no row holding it, like the memory backend."""
        program = """
        collection extensional persistent pair@p(a, b);
        collection intensional odd@p(a);
        collection intensional even@p(a);
        rule odd@p($x) :- pair@p($x, 1180591620717411303424);
        rule even@p($x) :- pair@p($x, $y), not pair@p($x, 1180591620717411303424);
        """
        facts = [Fact("pair", "p", (1, 2))]
        sql, mem = sqlite_engine(program, facts), memory_engine(program, facts)
        assert sql.snapshot() == mem.snapshot()
        assert sql.snapshot()["even@p"] == (Fact("even", "p", (1,)),)
        pushdown = BodyPushdown(sql.state)
        assert all(pushdown.compile(rule) is None for rule in sql.state.own_rules)


class TestAggregatePushdown:
    """:meth:`BodyPushdown.aggregate` over an aggregate view's raw relation
    against the view's own answer, which both backends compute in
    Python."""

    def _deployment(self, rows, backend="sqlite"):
        deployment = (system().storage(backend)
                      .peer("hub").program("""
                      collection extensional persistent sales@hub(region, amount);
                      """).done().build())
        deployment.peer("hub").insert_many([Fact("sales", "hub", row) for row in rows])
        deployment.converge()
        return deployment

    def _counters(self, deployment):
        return deployment.runtime.peer("hub").engine.state.backend.counters

    def _answers(self, deployment, query):
        """``(the pushdown's rows or None, the view's rows)``, both sorted."""
        view = deployment.query("hub", query)
        deployment.converge()
        pushed = BodyPushdown(deployment.runtime.peer("hub").engine.state).aggregate(
            view.relation, "hub", len(view.compiled.head_args),
            list(view._positions), view._specs)
        return (sorted(pushed) if pushed is not None else None), sorted(view.rows())

    def test_integer_sum_group_by(self):
        deployment = self._deployment([("eu", 10), ("eu", 20), ("us", 5), ("us", 7)])
        pushed, rows = self._answers(deployment, "totals($r, sum($a)) :- sales@hub($r, $a)")
        assert pushed == rows == [("eu", 30), ("us", 12)]
        assert self._counters(deployment)["aggregate_statements"] == 1
        deployment.close()

    def test_float_sum_is_refused(self):
        """Float accumulation order is not associative — SUM/AVG over floats
        is refused; the view's answer comes from Python, bit-identical by
        construction."""
        deployment = self._deployment([("eu", 0.1), ("eu", 0.2), ("us", 5)])
        pushed, rows = self._answers(deployment, "totals($r, sum($a)) :- sales@hub($r, $a)")
        assert pushed is None
        assert self._counters(deployment)["aggregate_statements"] == 0
        assert rows == [("eu", 0.1 + 0.2), ("us", 5)]
        deployment.close()

    def test_mixed_type_min_is_refused(self):
        """MIN over a column holding several value types cannot be decoded
        from one SQL result column."""
        deployment = self._deployment(
            [("eu", 3), ("eu", 7), ("us", "cheap"), ("us", "dear")])
        pushed, rows = self._answers(deployment, "floor($r, min($a)) :- sales@hub($r, $a)")
        assert pushed is None
        assert self._counters(deployment)["aggregate_statements"] == 0
        assert rows == [("eu", 3), ("us", "cheap")]
        deployment.close()

    def test_avg_and_count_match_the_views(self):
        rows = [(f"r{i % 3}", i) for i in range(11)]
        query = "board($r, avg($a), count($a)) :- sales@hub($r, $a)"
        memory = self._deployment(rows, "memory")
        view = memory.query("hub", query)
        memory.converge()
        expected = sorted(view.rows())
        memory.close()
        deployment = self._deployment(rows)
        assert self._answers(deployment, query) == (expected, expected)
        deployment.close()

    def test_integer_overflow_is_refused(self):
        """SQLite's integer SUM overflows where Python's does not, and its
        average would round the sum to a double before dividing: the
        pushdown answers neither, and the views give Python's answers."""
        big = [1094326513867019457, 1043778702358056735, 39771454358884755]
        rows = [("eu", 2 ** 62), ("eu", 2 ** 62 + 1)] + [("us", amount) for amount in big]
        deployment = self._deployment(rows)
        answers = [self._answers(deployment, f"{name}($r, {name}($a)) :- sales@hub($r, $a)")
                   for name in ("sum", "avg")]
        assert answers == [
            (None, [("eu", 9223372036854775809), ("us", sum(big))]),
            (None, [("eu", 9223372036854775809 / 2), ("us", sum(big) / 3)])]
        # Rounding the sum first gives another double.
        assert float(sum(big)) / 3 != sum(big) / 3
        deployment.close()

    def test_a_sum_that_fits_is_pushed_down(self):
        deployment = self._deployment([("eu", 2 ** 62), ("eu", 2 ** 62 - 1)])
        pushed, rows = self._answers(
            deployment, "totals($r, sum($a), avg($a)) :- sales@hub($r, $a)")
        assert pushed == rows == [("eu", 2 ** 63 - 1, (2 ** 63 - 1) / 2)]
        assert self._counters(deployment)["aggregate_statements"] == 1
        deployment.close()
