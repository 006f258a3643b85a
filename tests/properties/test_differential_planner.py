"""Differential equivalence of the cost-based planner.

The planner may only change *how* a body is evaluated (literal order, index
probes), and a view's magic-set rewrite may additionally restrict derivation
to demand-reachable facts of the *view's own* scoped relations — neither may
change what any user-visible relation holds, what a view answers, what a
stage's visible delta reports, what it delegates, or what ``explain()`` says
about an answer.  These tests run randomized programs under insert/retract
churn against the written-order reference
(:func:`tests.reference_engine.written_order`; a view's reference is its
clauses installed as ordinary rules) and require byte-identical
observations, then check the planned run actually took a different
execution strategy (plans computed / magic predicates installed)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

from tests.reference_engine import record_changes, written_order

#: ``via`` reads a relation of peer ``q`` between two local literals: only
#: the literal before it may be reordered, and the delegation it ships
#: carries the rest of the body in written order.
CHURN_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent blocked@p(node);
collection intensional tc@p(src, dst);
collection intensional ok@p(src, dst);
collection intensional bad@p(node);
collection intensional via@p(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
rule ok@p($x, $y) :- tc@p($x, $y), not blocked@p($x);
rule bad@p($n) :- blocked@p($n), link@p($n, $y);
rule via@p($x, $z) :- link@p($x, $y), hop@q($y, $w), link@p($w, $z);
"""

HOP_PROGRAM = "collection extensional persistent hop@q(src, dst);"

VIEW_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent mark@p(node);
"""

#: Bound-head recursive query: multi-clause, so compiling it applies the
#: magic-set rewrite.
VIEW_QUERY = (
    "reach($x, $y) :- link@p($x, $y); "
    "reach($x, $z) :- reach($x, $y), link@p($y, $z); "
    "ans($y) :- reach(0, $y), not mark@p($y)"
)

#: ``VIEW_QUERY``'s clauses as ordinary rules: the view's reference.
VIEW_RULES = """
collection intensional reach@p(src, dst);
collection intensional ans@p(node);
rule reach@p($x, $y) :- link@p($x, $y);
rule reach@p($x, $z) :- reach@p($x, $y), link@p($y, $z);
rule ans@p($y) :- reach@p(0, $y), not mark@p($y);
"""

operations = st.lists(
    st.tuples(st.sampled_from(["link+", "link-", "block+", "block-"]),
              st.integers(min_value=0, max_value=6),
              st.integers(min_value=0, max_value=6)),
    max_size=25,
)


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


def _observed(results, changes):
    """What a run of stages showed: each stage's change of ``snapshot()``
    (the tail of ``changes``, a :func:`record_changes` list) and its
    delegations."""
    return [(change,
             sorted(map(str, r.delegations_to_install)),
             sorted(map(str, r.delegations_to_retract)))
            for change, r in zip(changes[len(changes) - len(results):], results)]


class TestEngineDifferential:
    @given(operations)
    @settings(max_examples=25, deadline=None)
    def test_churn_stream_matches_written_order(self, stream):
        """Snapshots, what each stage changed of them and delegations agree
        at every quiescence point."""
        written = written_order(WebdamLogEngine("p"))
        planned = WebdamLogEngine("p")
        for engine in (written, planned):
            engine.load_program(CHURN_PROGRAM)
        seen = {engine: record_changes(engine) for engine in (written, planned)}
        expected = _observed(written.run_to_quiescence(), seen[written])
        assert _observed(planned.run_to_quiescence(), seen[planned]) == expected
        for operation in stream:
            _apply(written, operation)
            _apply(planned, operation)
            expected = _observed(written.run_to_quiescence(max_stages=30), seen[written])
            assert _observed(planned.run_to_quiescence(max_stages=30),
                             seen[planned]) == expected
            assert planned.snapshot() == written.snapshot()
        # The equivalence must be between different strategies.
        assert written.metrics["planner", "plans_computed"] == 0
        if any(kind == "link+" for kind, _, _ in stream):
            assert planned.metrics["planner", "plans_computed"] > 0

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=15))
    @settings(max_examples=10, deadline=None)
    def test_full_evaluation_ships_the_written_remainder(self, links):
        """A program's first stage over facts already loaded evaluates every
        rule in full: ``via`` delegates exactly what written order does."""
        written = written_order(WebdamLogEngine("p"))
        planned = WebdamLogEngine("p")
        for engine in (written, planned):
            engine.load_program(CHURN_PROGRAM)
            engine.insert_facts([Fact("link", "p", link) for link in links])
        seen = {engine: record_changes(engine) for engine in (written, planned)}
        expected = _observed(written.run_to_quiescence(), seen[written])
        assert _observed(planned.run_to_quiescence(), seen[planned]) == expected
        assert planned.snapshot() == written.snapshot()


def _view_deployment(reference: bool):
    """The view (or, for the reference, its rules in written order)."""
    deployment = system().peer("p").program(VIEW_PROGRAM).build()
    if reference:
        written_order(deployment.runtime.peer("p").engine)
        deployment.peer("p").load_program(VIEW_RULES)
        view = deployment.query("p", "ans")
    else:
        view = deployment.query("p", VIEW_QUERY)
    deployment.converge()
    return deployment, view


def _user_snapshot(deployment):
    """Hub relations minus the view's private machinery (scoped aux
    relations, magic/demand predicates) and the reference's rule heads,
    whose presence is exactly the strategy difference under test."""
    snapshot = {}
    for relation, facts in deployment.peer("p").snapshot().items():
        if relation.startswith(("_view", "_magic_", "_demand_", "reach@", "ans@")):
            continue
        snapshot[relation] = tuple(sorted(map(str, facts)))
    return snapshot


def _churn_view(deployment, operation) -> None:
    kind, a, b = operation
    peer = deployment.peer("p")
    if kind == "link+":
        peer.insert(f"link@p({a}, {b})")
    elif kind == "link-":
        peer.delete(f"link@p({a}, {b})")
    elif kind == "block+":
        peer.insert(f"mark@p({a})")
    else:
        peer.delete(f"mark@p({a})")


class TestViewDifferential:
    @given(operations)
    @settings(max_examples=10, deadline=None)
    def test_magic_view_matches_written_order_rules(self, stream):
        """A bound-head recursive view answers what its clauses installed as
        ordinary rules answer in written order, and the user-visible
        fixpoint is byte-identical, under churn."""
        reference, expected_view = _view_deployment(reference=True)
        deployment, view = _view_deployment(reference=False)
        try:
            for operation in stream:
                for each in (reference, deployment):
                    _churn_view(each, operation)
                    each.converge()
                assert sorted(view.rows()) == sorted(expected_view.rows())
                assert _user_snapshot(deployment) == _user_snapshot(reference)
            # Strategy actually differed: magic predicates installed.
            assert view.plan()["magic_relations"]
            written = reference.runtime.peer("p").engine
            assert written.metrics["planner", "plans_computed"] == 0
        finally:
            view.close()
            deployment.close()
            reference.close()

    @given(operations)
    @settings(max_examples=10, deadline=None)
    def test_close_leaves_no_planner_residue(self, stream):
        """After closing a magic-rewritten view (at any churn point), no
        scoped, magic, demand or anchor fact survives anywhere."""
        deployment, view = _view_deployment(reference=False)
        try:
            for operation in stream[:8]:
                _churn_view(deployment, operation)
            deployment.converge()
            view.close()
            deployment.converge()
            for relation, facts in deployment.peer("p").snapshot().items():
                if relation.startswith(("_view", "_magic_", "_demand_")):
                    assert not facts, relation
            assert not deployment.peer("p").rules()
        finally:
            deployment.close()


class TestExplainDifferential:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=15))
    @settings(max_examples=10, deadline=None)
    def test_explain_lineage_identical(self, links):
        """Provenance answers are planner-invariant: the planner normalises
        derivation support back to written body order, and the delegation to
        ``q`` carries the same remainder."""
        lineages = {}
        for reference in (True, False):
            deployment = (system().provenance()
                          .peer("p").program(CHURN_PROGRAM)
                          .peer("q").program(HOP_PROGRAM)
                          .build())
            if reference:
                written_order(deployment.runtime.peer("p").engine)
                written_order(deployment.runtime.peer("q").engine)
            peer = deployment.peer("p")
            peer.insert_many([f"link@p({a}, {b})" for a, b in links])
            deployment.peer("q").insert_many(
                [f"hop@q({b}, {a})" for a, b in links[::2]])
            deployment.converge()
            engine_peer = deployment.runtime.peer("p")
            lineage = []
            for relation in ("tc", "ok", "bad", "via"):
                for fact in sorted(engine_peer.query(relation), key=str):
                    # The alternatives as a set: the order in which they
                    # arrive follows the delegations' ids, not the planner.
                    explanation = peer.explain(fact)
                    lineage.append((str(fact), sorted(
                        sorted(map(str, alternative))
                        for alternative in explanation.why),
                        sorted(explanation.base_relations)))
            lineages[reference] = lineage
            deployment.close()
        assert lineages[False] == lineages[True]
