"""Differential equivalence of replace-by-difference and clear-and-recompute.

When a stage recomputes whole relations (the first stage, a delta that
reaches a negated literal, a view opened or closed), a relation whose
defining rules sit in one stratum that does not feed itself is no longer
cleared up front: the stratum runs first and the relation is then replaced
by what it derived, writing only the rows that differ.  These tests drive
that path on both storage backends against the reference of
``tests/reference_engine.py``, which empties every local intensional
relation before each stage, and require the same derived contents and the
same visible delta after every stage, and the same ``on_change`` callback
sequence of a live view.

The programs cover a non-recursive view over a recursive relation, a
negation stratum above a replaced relation, a keyed intensional relation
(it stays on the clear path), a rule whose head relation is a variable, and
a view opened and later closed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

from tests.reference_engine import record_changes, reference_deployment, reference_engine

BACKENDS = ["memory", "sqlite"]

#: Strata: {tc, cut} (recursive: cleared as a whole), {reach} (a non-recursive view
#: over the recursive relation: replaced), {lonely, labelled} (negation
#: above the replaced relation: lonely replaced, labelled keyed and cleared).
VIEWS_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent blocked@p(node);
collection extensional persistent tag@p(node*, label);
collection intensional tc@p(src, dst);
collection intensional cut@p(node);
collection intensional reach@p(node);
collection intensional lonely@p(node);
collection intensional labelled@p(node*, label);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- tc@p($x, $y), link@p($y, $z);
rule cut@p($n) :- blocked@p($n);
rule reach@p($y) :- tc@p(0, $y), not cut@p($y);
rule lonely@p($n) :- tag@p($n, $l), not reach@p($n);
rule labelled@p($n, $l) :- tag@p($n, $l), not reach@p($n);
"""

#: The variable head defines every local intensional relation: flag and
#: mark only there (replaced), shown in two strata (cleared).
VARIABLE_HEAD_PROGRAM = """
collection extensional persistent route@p(rel, node);
collection intensional flag@p(node);
collection intensional mark@p(node);
collection intensional shown@p(node);
rule $r@p($n) :- route@p($r, $n);
rule shown@p($n) :- route@p($r, $n), not flag@p($n);
"""

#: A view in the top stratum, beside lonely and labelled.
QUERY = "ans($x, $y) :- tc@p($x, $y), not reach@p($y)"

NODES = st.integers(min_value=0, max_value=5)

#: Operations over ``VIEWS_PROGRAM``: kind, two small values.
view_operations = st.lists(
    st.tuples(st.sampled_from(["link+", "link-", "block+", "block-", "tag"]),
              NODES, NODES),
    max_size=12)

#: Operations over ``VARIABLE_HEAD_PROGRAM``.
route_operations = st.lists(
    st.tuples(st.sampled_from(["route+", "route-"]),
              st.sampled_from(["flag", "mark", "shown"]), NODES),
    max_size=12)


def operation_facts(operation):
    """``(insert?, fact)`` of one operation."""
    kind, a, b = operation
    if kind.startswith("link"):
        return kind.endswith("+"), Fact("link", "p", (a, b))
    if kind.startswith("block"):
        return kind.endswith("+"), Fact("blocked", "p", (b,))
    if kind == "tag":
        return True, Fact("tag", "p", (a, f"l{b}"))
    return kind.endswith("+"), Fact("route", "p", (a, b))


def watch_replacements(engine):
    """Record the relations ``engine`` replaces by difference, in order."""
    replaced = []
    derived = engine.state.derived
    replace_relation = derived.replace_relation

    def recording(relation, peer, rows):
        replaced.append(relation)
        return replace_relation(relation, peer, rows)

    derived.replace_relation = recording
    return replaced


def settle_in_step(engine, reference, changes):
    """Run both engines stage by stage to quiescence, comparing every stage;
    ``changes`` are their :func:`record_changes` lists."""
    got_changes, want_changes = changes
    for _ in range(30):
        got, want = engine.run_stage(), reference.run_stage()
        # The reference derives everything from nothing: every row counts,
        # replaced ones as if inserted; so does the engine's first stage.
        assert want.derived_intensional == len(reference.state.derived.snapshot())
        if got.evaluation_path == "full":
            assert got.derived_intensional == want.derived_intensional
        assert got_changes[-1] == want_changes[-1]
        assert got.derived_changed == want.derived_changed
        assert engine.state.derived.snapshot() == reference.state.derived.snapshot()
        assert got.is_quiescent() == want.is_quiescent()
        if got.is_quiescent():
            return
    raise AssertionError("no quiescence within 30 stages")


def run_stream(backend, program, stream):
    engine = WebdamLogEngine("p", storage=backend)
    reference = reference_engine("p")
    replaced = watch_replacements(engine)
    for each in (engine, reference):
        each.load_program(program)
    changes = record_changes(engine), record_changes(reference)
    # The first three operations land before the first (full) stage.
    for operations in (stream[:3], *([op] for op in stream[3:])):
        for insert, fact in map(operation_facts, operations):
            for each in (engine, reference):
                (each.insert_fact if insert else each.delete_fact)(fact)
        settle_in_step(engine, reference, changes)
    assert engine.snapshot() == reference.snapshot()
    engine.close()
    return replaced


@pytest.mark.parametrize("backend", BACKENDS)
@given(stream=view_operations)
@settings(max_examples=15, deadline=None)
def test_views_over_recursion_negation_and_a_key(backend, stream):
    replaced = run_stream(backend, VIEWS_PROGRAM, stream)
    # cut shares tc's stratum, but a stage that recomputes cut alone (a
    # blocked node) does not feed itself; tc and labelled never qualify.
    assert set(replaced) <= {"cut", "reach", "lonely"}


@pytest.mark.parametrize("backend", BACKENDS)
@given(stream=route_operations)
@settings(max_examples=15, deadline=None)
def test_variable_head(backend, stream):
    replaced = run_stream(backend, VARIABLE_HEAD_PROGRAM, stream)
    assert set(replaced) <= {"flag", "mark"}


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_path_is_taken(backend):
    """The streams above do reach the replace path: the first stage
    replaces every eligible relation, and a change that reaches a
    negated literal replaces the strata it affects again."""
    stream = [("link+", 0, 1), ("link+", 1, 2), ("tag", 2, 0), ("tag", 4, 1),
              ("block+", 0, 2), ("block-", 0, 2), ("link-", 1, 2)]
    replaced = run_stream(backend, VIEWS_PROGRAM, stream)
    assert replaced.count("reach") > 1 and replaced.count("lonely") > 1
    replaced = run_stream(backend, VARIABLE_HEAD_PROGRAM,
                          [("route+", "flag", 1), ("route+", "shown", 1),
                           ("route+", "mark", 2), ("route+", "flag", 3),
                           ("route-", "flag", 1)])
    assert replaced.count("flag") > 1 and "mark" in replaced


@pytest.mark.parametrize("backend", BACKENDS)
@given(while_open=view_operations, after_close=view_operations)
@settings(max_examples=10, deadline=None)
def test_a_view_opened_and_closed(backend, while_open, after_close):
    runs = {}
    for kind in ("engine", "reference"):
        builder = system().peer("p").program(VIEWS_PROGRAM).done()
        if kind == "engine":
            deployment = builder.storage(backend).build()
            replaced = watch_replacements(deployment.runtime.peer("p").engine)
        else:
            deployment = reference_deployment(builder)
        stages, fired = record_changes(deployment.runtime.peer("p").engine), []
        hub = deployment.peer("p")
        for fact in ("link@p(0, 1)", "link@p(1, 2)", "tag@p(2, \"l0\")"):
            hub.insert(fact)
        deployment.converge()
        view = hub.query(QUERY)
        view.on_change(lambda fact: fired.append(("+", str(fact))),
                       lambda fact: fired.append(("-", str(fact))))
        deployment.converge()
        answers = [sorted(view.rows())]
        for operation in while_open:
            insert, fact = operation_facts(operation)
            (hub.insert if insert else hub.delete)(fact)
            deployment.converge()
            answers.append(sorted(view.rows()))
        view.close()
        for operation in after_close:
            insert, fact = operation_facts(operation)
            (hub.insert if insert else hub.delete)(fact)
            deployment.converge()
        runs[kind] = (stages, fired, answers, deployment.snapshot())
        relation = view.relation
        deployment.close()
    assert runs["engine"] == runs["reference"]
    assert relation in replaced
