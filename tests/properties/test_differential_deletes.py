"""Differential equivalence of tuple-level delete-and-rederive.

A fact deletion whose consequences reach no negated literal is handled on
*tuples*: the engine over-deletes the consequences of the deleted facts along
the delta rules, probes each for a derivation that survives and lets the
seminaive pass pick up from there — no derived relation is cleared, no
predicate of the provenance graph re-recorded.  That path must stay
observationally identical to the clear-and-recompute reference of
``tests/reference_engine.py`` *stage by stage*: same snapshot, same facts sent, same outstanding delegations and,
under a tracker, the same recorded supports of every fact.

The churn program of ``test_differential_engine.py`` reaches negation from
``link``, so its deletions keep the predicate-level path; the programs here
are negation-free on purpose.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.provenance.graph import ProvenanceTracker

from tests.properties.test_differential_program_changes import outputs_of
from tests.properties.test_differential_provenance import provenance_story
from tests.reference_engine import record_changes, reference_engine

#: Linear and cyclic recursion (``tc``, which two remote senders also feed),
#: a self-join and a second rule for the same head (``twin``), a remote
#: intensional head (``mirror@q``), a deferred extensional head (``seen``), a
#: delegating rule whose delegations each have several derivations (``far``,
#: ``$m`` is prefix-only), a wildcard head (``$r@p``) and a keyed base
#: relation (``color``: an insert may displace a fact).
PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent color@p(node*, color);
collection extensional persistent route@p(relation);
collection extensional persistent seen@p(node);
collection extensional persistent log@p(src, dst);
collection intensional tc@p(src, dst);
collection intensional twin@p(a, b);
collection intensional hop@p(src, dst);
collection intensional painted@p(node, color);
collection intensional mirror@q(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
rule twin@p($a, $b) :- link@p($a, $c), link@p($b, $c);
rule twin@p($x, $y) :- tc@p($x, $y), tc@p($y, $x);
rule mirror@q($x, $y) :- tc@p($x, $y);
rule seen@p($x) :- tc@p($x, $x);
rule far@p($x) :- link@p($x, $m), link@p($m, $y), remote@q($y);
rule $r@p($x, $y) :- route@p($r), link@p($x, $y);
rule painted@p($x, $c) :- tc@p($x, $y), color@p($y, $c);
"""

#: Installed at ``p`` by ``q``: a delegated definition of the recursive head.
DELEGATED = "tc@p(9, $x) :- link@p($x, $x)"

#: Route targets: intensional, recursive intensional, extensional, undeclared.
ROUTES = ("hop", "tc", "log", "stray")

NODES = st.integers(0, 4)
operation = st.one_of(
    st.tuples(st.just("link"), st.booleans(), NODES, NODES),
    st.tuples(st.just("color"), st.booleans(), NODES, st.integers(0, 1)),
    st.tuples(st.just("route"), st.booleans(), st.integers(0, len(ROUTES) - 1)),
    st.tuples(st.just("provide"), st.booleans(), st.sampled_from(["q", "r"]),
              NODES, NODES),
    st.tuples(st.just("unsee"), NODES),
)
#: One to three operations per stage.
stages = st.lists(st.lists(operation, min_size=1, max_size=3), max_size=8)


def _apply(engine: WebdamLogEngine, op) -> None:
    kind = op[0]
    if kind == "provide":
        _, insert, sender, a, b = op
        fact = Fact("tc", "p", (a, b))
        if insert:
            engine.receive_facts(sender, inserted=[fact])
        else:
            engine.receive_facts(sender, deleted=[fact])
        return
    if kind == "unsee":
        # The derived extensional fact itself: the rule that still derives
        # it defers it again.
        engine.delete_fact(Fact("seen", "p", (op[1],)))
        return
    if kind == "link":
        values = (op[2], op[3])
    elif kind == "color":
        values = (op[2], f"c{op[3]}")
    else:
        values = (ROUTES[op[2]],)
    (engine.insert_fact if op[1] else engine.delete_fact)(Fact(kind, "p", values))


def _pair(storage, provenance, program=PROGRAM):
    incremental = WebdamLogEngine("p", storage=storage)
    naive = reference_engine("p")
    delegated = parse_rule(DELEGATED, default_peer="p", author="q")
    for engine in (incremental, naive):
        if provenance:
            engine.provenance = ProvenanceTracker()
        engine.load_program(program)
        engine.receive_delegation("q", "deleg-tc", delegated)
        for edge in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 3)):
            engine.insert_fact(Fact("link", "p", edge))
        engine.insert_fact(Fact("route", "p", ("hop",)))
        engine.insert_fact(Fact("color", "p", (3, "c0")))
        engine.receive_facts("q", inserted=[Fact("tc", "p", (3, 0))])
    return incremental, naive


def _forbid_predicate_clears(engine: WebdamLogEngine) -> None:
    """From here on no derived relation is cleared, no predicate re-recorded."""
    def cleared(*args, **kwargs):
        raise AssertionError(f"a derived relation was cleared: {args}")
    engine.state.derived.clear_relation = cleared
    if engine.provenance is not None:
        engine.provenance.on_rederive = cleared
        engine.provenance.on_full_recompute = cleared


def _outstanding(engine: WebdamLogEngine):
    """The delegations the engine believes installed (rule ids aside)."""
    return {(d.target, d.rule.canonical_key())
            for d in engine.state.delegation_tracker.outstanding()}


def _settle_in_lockstep(incremental, naive, sent, provenance, changes) -> None:
    """Run both engines stage by stage, comparing after every stage;
    ``changes`` are their :func:`record_changes` lists."""
    got_changes, want_changes = changes
    for _ in range(30):
        result, reference = incremental.run_stage(), naive.run_stage()
        sent[0] |= outputs_of([result])
        sent[1] |= outputs_of([reference])
        assert incremental.snapshot() == naive.snapshot()
        assert sent[0] == sent[1]
        assert _outstanding(incremental) == _outstanding(naive)
        assert got_changes[-1] == want_changes[-1]
        if provenance:
            assert (provenance_story(incremental.provenance.graph)
                    == provenance_story(naive.provenance.graph))
        if got_changes[-1][1]:
            assert result.evaluation_path == "rederive"
        if result.is_quiescent() and reference.is_quiescent():
            return
    raise AssertionError("the engines did not settle")


#: Streams every run replays: each isolates one way a deletion can go wrong
#: on tuples (the traps of the change that introduced the path).
SCRIPTED = (
    # two deleted facts in one derivation, one fact at two body positions
    [[("link", False, 0, 1), ("link", False, 1, 2)], [("link", False, 3, 3)]],
    # a provided fact that is also derived, through a cycle it is part of
    [[("provide", True, "q", 0, 2)], [("provide", False, "q", 0, 2)],
     [("provide", False, "q", 3, 0)]],
    # two senders, one fact: it goes with the second retraction only
    [[("provide", True, "q", 4, 4), ("provide", True, "r", 4, 4)],
     [("provide", False, "q", 4, 4)], [("provide", False, "r", 4, 4)]],
    # the deferred extensional fact deleted under the rule that derives it,
    # then with its support
    [[("unsee", 3)], [("link", False, 3, 3), ("unsee", 3)]],
    # a displaced base fact is a delete plus an insert
    [[("color", True, 3, 1)], [("color", False, 3, 1)]],
    # the wildcard head: into a recursive relation, an extensional one, and out
    [[("route", True, 1), ("route", True, 2)], [("link", False, 1, 2)],
     [("route", False, 1), ("route", False, 0)]],
    # a delegation with two derivations loses one, then the other
    [[("link", True, 0, 4), ("link", True, 4, 2)], [("link", False, 0, 1)],
     [("link", False, 4, 2)]],
    # delete and re-insert in one stage; delete what was never there
    [[("link", False, 0, 1), ("link", True, 0, 1), ("link", False, 4, 4)]],
)


def scripted(test):
    for script in SCRIPTED:
        test = example(script)(test)
    return test


class TestTupleLevelDeletesMatchNaive:
    @pytest.mark.parametrize("storage", ["memory", "sqlite"])
    @pytest.mark.parametrize("provenance", [False, True],
                             ids=["plain", "provenance"])
    def test_delete_churn_matches_naive_stage_by_stage(self, storage, provenance):
        @scripted
        @given(stages)
        @settings(max_examples=12 if storage == "memory" else 4, deadline=None)
        def run(stream):
            incremental, naive = _pair(storage, provenance)
            sent = [set(), set()]
            changes = record_changes(incremental), record_changes(naive)
            _settle_in_lockstep(incremental, naive, sent, provenance, changes)
            _forbid_predicate_clears(incremental)
            for batch in stream:
                for op in batch:
                    _apply(incremental, op)
                    _apply(naive, op)
                _settle_in_lockstep(incremental, naive, sent, provenance, changes)
            assert incremental.metrics["core", "stages_full"] == 1

        run()


class TestWorkFollowsTheDeletedTuple:
    def test_a_delete_explores_less_than_the_naive_engine(self):
        """A few hundred facts: the delete stage says ``rederive`` and costs
        the deleted tuple's consequences, not the store."""
        # The recursion, the remote head and the keyed join are enough here;
        # the rest only makes the naive side slow.
        program = "\n".join(
            line for line in PROGRAM.splitlines()
            if not line.startswith(("rule twin", "rule far", "rule $r", "rule seen")))
        incremental, naive = _pair("memory", True, program)
        for engine in (incremental, naive):
            engine.insert_facts(
                Fact("link", "p", (chain * 100 + step, chain * 100 + step + 1))
                for chain in range(10, 36) for step in range(8))
            engine.run_to_quiescence()
        assert incremental.state.store.total_facts() > 200
        _forbid_predicate_clears(incremental)
        for engine in (incremental, naive):
            engine.delete_fact(Fact("link", "p", (2004, 2005)))
        result, reference = incremental.run_stage(), naive.run_stage()
        assert result.evaluation_path == "rederive"
        assert incremental.snapshot() == naive.snapshot()
        assert (provenance_story(incremental.provenance.graph)
                == provenance_story(naive.provenance.graph))
        assert result.substitutions_explored * 20 < reference.substitutions_explored
