"""Recursive strata drain deltas: checked against an enumerator of its own.

The differential suites compare the engine with its own ``full`` path
(``tests/reference_engine.py``), and that path drains deltas too.  Here a
small enumerator that shares nothing with the engine but the parsed rules
computes the least model stratum by stratum, naively, and lists every
``(rule, support)`` derivation of it.  The provenance graph must record
exactly those derivations, and the peer must show exactly that model,
after the first stage and after every change: a derivation the drain
missed, or one recorded against a support that is gone, shows here.
"""

import dataclasses
import signal

import pytest

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.errors import EvaluationError
from repro.core.facts import Fact
from repro.core.maintenance import Maintenance
from repro.core.terms import Variable
from repro.provenance.graph import ProvenanceTracker

PEER = "p"

NON_LINEAR = """
collection extensional persistent link@p(src, dst);
collection intensional tc@p(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- tc@p($x, $y), tc@p($y, $z);
"""

NEGATED_ABOVE = NON_LINEAR + """
collection extensional persistent node@p(id);
collection intensional cut@p(src, dst);
rule cut@p($x, $y) :- node@p($x), node@p($y), not tc@p($x, $y);
"""

REACH = ("reach($x, $y) :- link@p($x, $y); "
         "reach($x, $z) :- reach($x, $y), link@p($y, $z); "
         "ans($y) :- reach(1, $y)")


# -- the enumerator ---------------------------------------------------------- #

def _atom(atom):
    assert atom.peer_constant() == PEER
    return (atom.relation_constant(), atom.negated,
            tuple(("var", term.name) if isinstance(term, Variable) else ("const", term.value)
                  for term in atom.args))


def _match(args, values, env):
    if len(args) != len(values):
        return None
    env = dict(env)
    for (kind, name), value in zip(args, values):
        if kind == "const":
            if name != value:
                return None
        elif env.setdefault(name, value) != value:
            return None
    return env


def _ground(args, env):
    return tuple(name if kind == "const" else env[name] for kind, name in args)


def _derivations(rule, model):
    """Every ``(head values, support)`` of ``rule`` over ``model``: the support
    is the facts matched by the positive literals, in written order."""
    (_, _, head_args), body = rule

    def walk(position, env, support):
        if position == len(body):
            yield _ground(head_args, env), tuple(support)
            return
        relation, negated, args = body[position]
        if negated:
            if _ground(args, env) not in model.get(relation, ()):
                yield from walk(position + 1, env, support)
            return
        for values in tuple(model.get(relation, ())):
            extended = _match(args, values, env)
            if extended is not None:
                yield from walk(position + 1, extended,
                                support + [Fact(relation, PEER, values)])

    yield from walk(0, {}, [])


def _enumerate(rules, base):
    """The least stratified model of ``rules`` over ``base`` and every
    derivation in it: ``{fact: {(rule_id, support), ...}}``."""
    parsed = {rule.rule_id: (_atom(rule.head), tuple(map(_atom, rule.body)))
              for rule in rules}
    level = {}
    changed = True
    while changed:
        changed = False
        for head, body in parsed.values():
            needed = max((level.get(relation, 0) + negated
                          for relation, negated, _ in body), default=0)
            if level.get(head[0], 0) < needed:
                level[head[0]] = needed
                changed = True
    model = {relation: set(values) for relation, values in base.items()}
    for stratum in sorted({level.get(head[0], 0) for head, _ in parsed.values()}):
        selected = [rule for rule in parsed.values() if level.get(rule[0][0], 0) == stratum]
        grown = True
        while grown:
            grown = False
            for rule in selected:
                into = model.setdefault(rule[0][0], set())
                for values, _ in list(_derivations(rule, model)):
                    if values not in into:
                        into.add(values)
                        grown = True
    expected = {}
    for rule_id, rule in parsed.items():
        for values, support in _derivations(rule, model):
            expected.setdefault(Fact(rule[0][0], PEER, values), set()).add(
                (rule_id, support))
    return expected


# -- the check ----------------------------------------------------------------- #

def _check(engine):
    """The engine's model and provenance graph against the enumerator."""
    schemas = [schema for schema in engine.state.schemas if schema.peer == PEER]
    base = {schema.name: {fact.values for fact in engine.query(schema.name)}
            for schema in schemas if not schema.is_intensional()}
    expected = _enumerate(engine.rules(), base)
    graph = engine.provenance.graph
    recorded = {fact: {(derivation.rule_id, derivation.support)
                       for derivation in graph.derivations_of(fact)}
                for fact in graph.facts()}
    assert recorded == expected
    for fact, derivations in expected.items():
        assert set(graph.why(fact)) == {frozenset(support) for _, support in derivations}
    for schema in schemas:
        if schema.is_intensional():
            assert set(engine.query(schema.name)) == {
                fact for fact in expected if fact.relation == schema.name}
    return expected


def _engine(program):
    engine = WebdamLogEngine(PEER)
    engine.provenance = ProvenanceTracker()
    engine.load_program(program)
    return engine


def _links(engine, *edges, delete=False):
    for edge in edges:
        fact = Fact("link", PEER, edge)
        if delete:
            engine.delete_fact(fact)
        else:
            engine.insert_fact(fact)


CHAIN_AND_CYCLE = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3))


class TestNonLinearRecursion:
    """``tc($x,$z) :- tc($x,$y), tc($y,$z)`` reads its delta at two body
    positions: a derivation both of whose supports are new is found once
    per position, and must be recorded once."""

    def test_the_first_stage_records_every_derivation(self):
        engine = _engine(NON_LINEAR)
        _links(engine, *CHAIN_AND_CYCLE)
        result = engine.run_stage()
        assert result.evaluation_path == "full"
        expected = _check(engine)
        assert Fact("tc", PEER, (3, 3)) in expected

    def test_inserts_and_deletes_keep_every_derivation(self):
        engine = _engine(NON_LINEAR)
        _links(engine, *CHAIN_AND_CYCLE)
        engine.run_stage()
        _links(engine, (7, 1), (2, 7))
        assert engine.run_stage().evaluation_path == "delta"
        _check(engine)
        _links(engine, (6, 3), (2, 7), delete=True)
        assert engine.run_stage().evaluation_path == "rederive"
        _check(engine)


class TestNegationAboveTheRecursion:
    """A delta that reaches ``not tc`` clears ``tc`` and ``cut`` and derives
    them again: the recursive pass drains from a cleared relation."""

    def test_each_stage_records_every_derivation(self):
        engine = _engine(NEGATED_ABOVE)
        for node in range(1, 7):
            engine.insert_fact(Fact("node", PEER, (node,)))
        _links(engine, (1, 2), (2, 3), (3, 1), (4, 5))
        assert engine.run_stage().evaluation_path == "full"
        _check(engine)
        _links(engine, (3, 4), (5, 6))
        assert engine.run_stage().evaluation_path == "rederive"
        _check(engine)
        _links(engine, (3, 1), delete=True)
        assert engine.run_stage().evaluation_path == "rederive"
        expected = _check(engine)
        assert Fact("cut", PEER, (3, 1)) in expected


class TestMagicSetViewOpenAndClose:
    """Opening a magic-set view installs recursive rules over new relations
    (a predicate-level rederive); closing it removes them again."""

    def test_open_and_close_record_every_derivation(self):
        deployment = system().provenance().peer(PEER).program(NON_LINEAR).build()
        for edge in CHAIN_AND_CYCLE + ((8, 9),):
            deployment.peer(PEER).insert(Fact("link", PEER, edge))
        deployment.converge()
        engine = deployment.runtime.peer(PEER).engine
        _check(engine)
        view = deployment.query(PEER, REACH)
        deployment.converge()
        assert view.plan()["magic_relations"], "magic rewrite did not fire"
        expected = _check(engine)
        assert {fact.values for fact in expected if fact.relation == view.name} == {
            (2,), (3,), (4,), (5,), (6,)}
        view.close()
        deployment.converge()
        expected = _check(engine)
        assert {fact.relation for fact in expected} == {"tc"}


def test_a_chain_s_first_stage_explores_each_join_once():
    """A naive recursive pass re-walks every derivation on every round, so
    its cost is the chain's depth times its derivations (10 850 substitutions
    for this chain); draining deltas walks each about once (1 020)."""
    engine = WebdamLogEngine(PEER)
    engine.load_program("""
    collection extensional persistent link@p(src, dst);
    collection intensional tc@p(src, dst);
    rule tc@p($x, $y) :- link@p($x, $y);
    rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
    """)
    _links(engine, *((node, node + 1) for node in range(30)))
    result = engine.run_stage()
    assert result.evaluation_path == "full"
    assert len(engine.query("tc")) == 30 * 31 // 2
    assert result.substitutions_explored < 1500


KEYED_WALK = """
collection extensional persistent s@p(x, y);
collection extensional persistent e@p(v, w);
collection intensional k@p(x*, w);
rule k@p($x, $y) :- s@p($x, $y);
rule k@p($x, $w) :- k@p($x, $v), e@p($v, $w);
"""


def _keyed_walk(edges):
    deployment = system().peer(PEER).program(KEYED_WALK).build()
    deployment.peer(PEER).insert_many(
        [Fact("s", PEER, (0, 1))] + [Fact("e", PEER, edge) for edge in edges])
    return deployment


def _alarm(signum, frame):
    raise TimeoutError("converge() did not return within 5 s")


class TestKeyedDisplacementInARecursiveStratum:
    """A keyed relation keeps one value per key, the last one derived.  A
    walk along ``e`` moves ``k(0, ·)`` from value to value; a walk that
    comes back to a value it left has no fixpoint."""

    def test_a_displacement_chain_converges_to_its_last_value(self):
        deployment = _keyed_walk([(1, 2), (2, 3)])
        deployment.converge()
        assert deployment.peer(PEER).unwrap().engine.query("k") == (Fact("k", PEER, (0, 3)),)

    def test_a_key_whose_value_cycles_raises_naming_its_rule(self):
        deployment = _keyed_walk([(1, 2), (2, 1)])
        rule = next(rule for rule in deployment.peer(PEER).rules() if len(rule.body) == 2)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(5)
        try:
            with pytest.raises(EvaluationError, match=rule.rule_id) as raised:
                deployment.converge()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert "k@p" in str(raised.value) and "cycles" in str(raised.value)

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_a_walk_over_a_dag_converges_whatever_order_a_round_inserts_in(
            self, monkeypatch, descending):
        """``k(0, 1)`` steps to both 2 and 3 in one round, and 2 steps to 3
        again: ``k(0, 3)`` is displaced, derived anew and displaced once
        more on the way to 5.  A value that only comes back along a DAG is
        no cycle, in whichever order the round inserts its facts."""
        absorb = Maintenance._absorb

        def ordered(maintenance, rule, outcome, *args, **kwargs):
            facts = sorted(outcome.local_intensional, key=str, reverse=descending)
            return absorb(maintenance, rule, dataclasses.replace(outcome, local_intensional=facts),
                          *args, **kwargs)

        monkeypatch.setattr(Maintenance, "_absorb", ordered)
        deployment = _keyed_walk([(1, 2), (1, 3), (2, 3), (3, 5)])
        deployment.converge()
        assert deployment.peer(PEER).unwrap().engine.query("k") == (Fact("k", PEER, (0, 5)),)


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_two_rules_writing_one_key_keep_the_last_value_and_settle(storage):
    """Rules that are not recursive run once each per stage, so a key they
    both write moves back and forth without any cycle: the last value
    written stays, and later stages still run."""
    engine = WebdamLogEngine(PEER, storage=storage)
    engine.load_program("""
    collection extensional persistent a@p(x, y);
    collection extensional persistent b@p(x, y);
    collection intensional k@p(x*, y);
    rule k@p($x, $y) :- a@p($x, $y);
    rule k@p($x, $y) :- b@p($x, $y);
    """)
    for relation in ("a", "b"):
        for value in (1, 2):
            engine.insert_fact(Fact(relation, PEER, (0, value)))
    engine.run_to_quiescence()
    [kept] = engine.query("k")
    assert kept in {Fact("k", PEER, (0, 1)), Fact("k", PEER, (0, 2))}
    engine.insert_fact(Fact("a", PEER, (1, 3)))
    engine.run_to_quiescence()
    assert set(engine.query("k")) == {kept, Fact("k", PEER, (1, 3))}
