"""Differential equivalence of the in-store recompute and the Python one.

On a SQL store, a relation the engine replaces by difference (see
``test_differential_replace.py``) is recomputed inside the store when every
one of its rules compiles and has a constant local head: each rule's head
rows are staged by one ``INSERT … SELECT`` and two ``EXCEPT`` statements
find the rows that leave and arrive.  These tests drive that path on SQLite
and require, after every stage, the derived contents and visible delta of
the reference of ``tests/reference_engine.py`` (memory store, every
relation emptied before each stage), and the work counters of the same
SQLite engine with the in-store path switched off.

The heads carry the constants ``True``, ``1``, ``1.0``, ``"1"``, ``None``
and bytes (the tags keep them apart), a repeated variable, a relation with
two rules, a provably empty body, and a body reading provided facts, which
must take the Python path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact, InStoreQuery
from repro.core.rules import Atom, Rule
from repro.core.terms import Constant, Variable

from tests.reference_engine import reference_engine

#: Every link change reaches ``not hub``, so every stage that sees one
#: recomputes the relations below it with their defining rules.
PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent ghost@p(node);
collection intensional hub@p(node);
collection intensional consts@p(node, t, i, f, s, n, b);
collection intensional loop@p(a, b);
collection intensional either@p(node);
collection intensional echo@p(node);
collection intensional seen@p(node);
collection intensional fed@p(node);
rule hub@p($y) :- link@p($x, $y);
rule loop@p($x, $x) :- link@p($x, $y), not hub@p($x);
rule either@p($x) :- link@p($x, $y), not hub@p($x);
rule either@p($y) :- link@p($x, $y), link@p($y, $y), not hub@p($x);
rule echo@p($x) :- ghost@p($x), not hub@p($x);
rule fed@p($x) :- seen@p($x), not hub@p($x);
"""

X, Y = Variable("x"), Variable("y")
#: Six values equal in Python (or nearly), six rows apart in the store.
CONSTS_RULE = Rule(
    head=Atom("consts", "p", (X, Constant(True), Constant(1), Constant(1.0),
                              Constant("1"), Constant(None), Constant(b"\x00\xff"))),
    body=(Atom("link", "p", (X, Y)), Atom("hub", "p", (X,), negated=True)))

#: The relations whose rules all run in the store; ``fed`` does too while
#: ``seen`` holds no provided fact.
IN_STORE = {"hub", "consts", "loop", "either", "echo"}

NODES = st.integers(min_value=0, max_value=4)
operations = st.lists(
    st.tuples(st.sampled_from(["link+", "link-", "seen+", "seen-"]), NODES, NODES),
    max_size=12)


def build(engine):
    engine.load_program(PROGRAM)
    engine.add_rule(Rule(head=CONSTS_RULE.head, body=CONSTS_RULE.body))
    return engine


def apply(engine, operation):
    kind, a, b = operation
    if kind.startswith("link"):
        fact = Fact("link", "p", (a, b))
        (engine.insert_fact if kind == "link+" else engine.delete_fact)(fact)
    elif kind == "seen+":
        engine.receive_facts("q", inserted=[Fact("seen", "p", (a,))])
    else:
        engine.receive_facts("q", deleted=[Fact("seen", "p", (a,))])


def watch(engine):
    """Record ``(relation, in store?)`` of every replacement, in order."""
    seen = []
    derived = engine.state.derived
    replace_relation = derived.replace_relation

    def recording(relation, peer, rows):
        seen.append((relation, isinstance(rows, InStoreQuery)))
        return replace_relation(relation, peer, rows)

    derived.replace_relation = recording
    return seen


def in_python(engine):
    """The same engine with every replaced relation recomputed in Python."""
    engine.state.pushdown.relation_query = lambda rules, plan_rule: None
    return engine


def work(result):
    return (result.evaluation_path, result.rules_evaluated, result.compiled_sql,
            result.substitutions_explored, result.derived_intensional)


def run_stream(stream):
    engine = build(WebdamLogEngine("p", storage="sqlite"))
    python = in_python(build(WebdamLogEngine("p", storage="sqlite")))
    reference = build(reference_engine("p"))
    replaced = watch(engine)
    engines = (engine, python, reference)
    # The first three operations land before the first (full) stage.
    for batch in (stream[:3], *([op] for op in stream[3:])):
        for operation in batch:
            for each in engines:
                apply(each, operation)
        for _ in range(30):
            got, slow, want = (each.run_stage() for each in engines)
            assert work(got) == work(slow)
            assert got.visible_delta == slow.visible_delta == want.visible_delta
            assert engine.state.derived.snapshot() == reference.state.derived.snapshot()
            assert engine.snapshot() == python.snapshot() == reference.snapshot()
            if got.is_quiescent():
                assert want.is_quiescent()
                break
        else:
            raise AssertionError("no quiescence within 30 stages")
    for each in engines:
        each.close()
    return replaced


@given(stream=operations)
@settings(max_examples=25, deadline=None)
def test_in_store_matches_python_and_the_reference(stream):
    replaced = run_stream(stream)
    assert all(in_store for relation, in_store in replaced if relation in IN_STORE)


def test_every_shape_takes_its_path():
    """The first stage stages every eligible relation, the typed constants
    stay apart, and a body reading provided facts falls back to Python."""
    replaced = run_stream([("link+", 0, 1), ("link+", 1, 1), ("link+", 3, 3),
                           ("seen+", 0, 0), ("link+", 2, 0), ("seen-", 0, 0),
                           ("link-", 2, 0)])
    assert {relation for relation, in_store in replaced if in_store} == IN_STORE | {"fed"}
    assert ("fed", False) in replaced
    engine = build(WebdamLogEngine("p", storage="sqlite"))
    engine.insert_fact(Fact("link", "p", (0, 1)))
    engine.run_to_quiescence()
    assert engine.query("consts") == (
        Fact("consts", "p", (0, True, 1, 1.0, "1", None, b"\x00\xff")),)
    assert [type(value) for value in engine.query("consts")[0].values] == [
        int, bool, int, float, str, type(None), bytes]
    assert engine.query("loop") == (Fact("loop", "p", (0, 0)),)
    engine.close()
