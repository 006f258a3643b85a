"""Differential equivalence when the *program* is what changes.

The paper's signature features are rules with variables in relation and peer
position (the Wepic transfer rule) and programs that change while they run
(rules added, removed and customised; delegations installed and retracted).
The incremental engine treats both as deltas — a wildcard atom depends on
the predicates agreeing with its constant position, a rule change evaluates
the added rules and rederives the closure of the removed heads — and must
stay observationally identical to the clear-and-recompute reference of
``tests/reference_engine.py``:
same snapshots, same messages, same provenance stories, and never a ``full``
stage after an engine's first.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema
from repro.provenance.graph import ProvenanceTracker
from repro.runtime.system import WebdamLogSystem

from tests.properties.test_differential_provenance import provenance_story
from tests.reference_engine import (ReferenceSystem, reference_deployment,
                                    reference_engine)


def outputs_of(results):
    """Everything a run of stages sent, as comparable sets."""
    sent = set()
    for result in results:
        for update in result.outgoing_updates:
            sent |= {("+", fact) for fact in update.inserted}
            sent |= {("-", fact) for fact in update.deleted}
            sent |= {("withdrawn", fact) for fact in update.withdrawn}
        sent |= {("install", d.target, d.rule.canonical_key())
                 for d in result.delegations_to_install}
        sent |= {("retract", d.target, d.rule.canonical_key())
                 for d in result.delegations_to_retract}
    return sent


def settle_and_compare(incremental, naive, provenance=False):
    sent = outputs_of(incremental.run_to_quiescence(max_stages=30))
    assert sent == outputs_of(naive.run_to_quiescence(max_stages=30))
    assert incremental.snapshot() == naive.snapshot()
    if provenance:
        assert (provenance_story(incremental.provenance.graph)
                == provenance_story(naive.provenance.graph))


# --------------------------------------------------------------------------- #
# (i) wildcard rules under fact churn
# --------------------------------------------------------------------------- #

TRANSFER_PROGRAM = """
collection extensional persistent selectedAttendee@p(attendee);
collection extensional persistent communicate@p(protocol);
collection extensional persistent selectedPictures@p(name, id, owner);
collection extensional persistent pictures@p(id);
collection extensional persistent rate@p(id, rating);
collection extensional persistent wepic@p(attendee, name, id, owner);
collection intensional inbox@p(attendee, name, id, owner);
collection intensional received@p(id);
collection intensional attendeePictures@p(id);
rule $protocol@$attendee($attendee, $name, $id, $owner) :-
    selectedAttendee@p($attendee), communicate@$attendee($protocol),
    selectedPictures@p($name, $id, $owner);
rule attendeePictures@p($id) :- selectedAttendee@p($attendee), pictures@$attendee($id);
rule received@p($id) :- inbox@p($attendee, $name, $id, $owner);
"""

#: What another attendee delegates once it selected ``p``: the transfer rule
#: instantiated up to its first literal at ``p``.
DELEGATED_TRANSFER = (
    '$protocol@p("p", "sea.jpg", 7, "q") :- communicate@p($protocol)')

transfer_operations = st.lists(
    st.tuples(
        st.sampled_from(["select", "communicate", "picked", "pictures", "rate"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2)),
    max_size=30,
)


def _transfer_fact(kind: str, value: int) -> Fact:
    if kind == "select":
        return Fact("selectedAttendee", "p", (("p", "q", "r")[value],))
    if kind == "communicate":
        # inbox@p is intensional, wepic@p extensional, email@p undeclared.
        return Fact("communicate", "p", (("inbox", "wepic", "email")[value],))
    if kind == "picked":
        return Fact("selectedPictures", "p", (f"pic{value}.jpg", value, "p"))
    if kind == "pictures":
        return Fact("pictures", "p", (value,))
    return Fact("rate", "p", (value, 5))


class TestWildcardRulesStayIncremental:
    @given(transfer_operations)
    @settings(max_examples=40, deadline=None)
    def test_transfer_rule_and_its_delegated_form_match_naive(self, stream):
        incremental = WebdamLogEngine("p")
        naive = reference_engine("p")
        delegated = parse_rule(DELEGATED_TRANSFER, default_peer="p", author="q")
        for engine in (incremental, naive):
            engine.load_program(TRANSFER_PROGRAM)
            engine.receive_delegation("q", "deleg-transfer", delegated)
            for kind in ("select", "communicate", "picked"):
                engine.insert_fact(_transfer_fact(kind, 0))
        settle_and_compare(incremental, naive)
        # Both the transfer rule and its delegated form derive into inbox@p.
        assert {f.values for f in incremental.query("received")} == {(0,), (7,)}
        for kind, insert, value in stream:
            fact = _transfer_fact(kind, value)
            for engine in (incremental, naive):
                (engine.insert_fact if insert else engine.delete_fact)(fact)
            settle_and_compare(incremental, naive)
        # The first stage of the engine, and nothing after it.
        assert incremental.metrics["core", "stages_full"] == 1

    def test_facts_the_wildcard_rules_do_not_read_evaluate_nothing_wild(self):
        """Ratings and pictures never re-fire the transfer rule."""
        engine = WebdamLogEngine("p")
        engine.load_program(TRANSFER_PROGRAM)
        engine.insert_fact(Fact("selectedAttendee", "p", ("q",)))
        engine.run_to_quiescence()
        engine.insert_fact(Fact("rate", "p", (1, 5)))
        result = engine.run_stage()
        assert result.evaluation_path == "delta"
        assert result.rules_evaluated == 0
        engine.insert_fact(Fact("pictures", "p", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "delta"
        assert result.rules_evaluated == 1  # attendeePictures reads pictures@*

    @pytest.mark.parametrize("seed", [5, 23, 2013])
    def test_wepic_like_deployment_matches_naive_without_full_stages(self, seed):
        def build(deployment):
            for name in ("p", "q", "r"):
                peer = deployment.add_peer(name)
                peer.load_program(TRANSFER_PROGRAM.replace("@p", f"@{name}"))
            return deployment

        incremental, naive = build(WebdamLogSystem()), build(ReferenceSystem())
        rng = random.Random(seed)
        for _ in range(40):
            owner = rng.choice("pqr")
            kind = rng.choice(["select", "communicate", "picked", "pictures", "rate"])
            fact = _transfer_fact(kind, rng.randrange(3))
            fact = Fact(fact.relation, owner, fact.values)
            insert = rng.random() < 0.7
            for deployment in (incremental, naive):
                peer = deployment.peer(owner)
                (peer.insert_fact if insert else peer.delete_fact)(fact)
                assert deployment.converge(max_steps=80).converged
            assert incremental.snapshot() == naive.snapshot()
        for name in "pqr":
            counters = incremental.peer(name).engine.metrics
            assert counters["core", "stages_full"] == 1


# --------------------------------------------------------------------------- #
# (ii) rule and delegation changes interleaved with fact churn
# --------------------------------------------------------------------------- #

CHANGING_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection extensional persistent blocked@p(node);
collection extensional persistent route@p(relation);
collection extensional persistent seen@p(node);
collection extensional persistent log@p(src, dst);
collection intensional tc@p(src, dst);
collection intensional ok@p(src, dst);
collection intensional hop@p(src, dst);
collection intensional mirror@q(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule ok@p($x, $y) :- tc@p($x, $y), not blocked@p($x);
"""

#: Rules that come and go: recursion through the added rule, negation, a
#: remote head, a local extensional head, a wildcard head and a delegating body.
RULE_POOL = (
    "tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z)",
    "hop@p($x, $y) :- link@p($x, $y), not blocked@p($y)",
    "mirror@q($x, $y) :- tc@p($x, $y)",
    "seen@p($x) :- ok@p($x, $y)",
    "$r@p($x, $y) :- route@p($r), link@p($x, $y)",
    "far@p($x) :- link@p($x, $y), remote@q($y)",
    "hop@p($x, $x) :- tc@p($x, $x)",
    "$r@p($x, $y) :- route@p($r), link@p($x, $y), not blocked@p($x)",
    "$r@q($x, $y) :- route@p($r), link@p($x, $y), not blocked@p($y)",
)

#: Route targets: intensional, recursive, extensional, undeclared, remote view.
ROUTES = ("hop", "tc", "log", "stray", "mirror")

#: Rules other peers delegate to ``p`` (local and remote heads).
DELEGATION_POOL = (
    "back@q($x) :- link@p($x, 1)",
    "tc@p(9, $x) :- link@p($x, $x)",
    "mirror@q($x, $x) :- ok@p($x, $y)",
)

change_operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["link", "blocked", "route"]), st.booleans(),
                  st.integers(0, 4), st.integers(0, 3)),
        st.tuples(st.sampled_from(["add", "remove", "replace"]),
                  st.integers(0, len(RULE_POOL) - 1),
                  st.integers(0, len(RULE_POOL) - 1)),
        st.tuples(st.sampled_from(["install", "retract"]),
                  st.integers(0, len(DELEGATION_POOL) - 1), st.booleans()),
    ),
    max_size=30,
)


def _apply_change(engine: WebdamLogEngine, operation, rules, delegations) -> None:
    kind = operation[0]
    if kind in ("link", "blocked", "route"):
        _, insert, a, b = operation
        values = {"link": (a, b), "blocked": (a,),
                  "route": (ROUTES[a],)}[kind]
        fact = Fact(kind, "p", values)
        (engine.insert_fact if insert else engine.delete_fact)(fact)
    elif kind == "add":
        rule = rules[operation[1]]
        if all(own.rule_id != rule.rule_id for own in engine.rules()):
            engine.add_rule(rule)
    elif kind == "remove":
        engine.remove_rule(rules[operation[1]].rule_id)
    elif kind == "replace":
        old, new = rules[operation[1]], rules[operation[2]]
        if any(own.rule_id == old.rule_id for own in engine.rules()):
            engine.replace_rule(old.rule_id, new)
    else:
        index, twice = operation[1], operation[2]
        for _ in range(2 if twice else 1):  # duplicated deliveries too
            if kind == "install":
                engine.receive_delegation("q", f"deleg-{index}", delegations[index])
            else:
                engine.receive_delegation_retraction("q", f"deleg-{index}")


#: Sequences every run replays: each one isolates a way a program change
#: reaches the fixpoint (the random streams rarely line three of them up).
SCRIPTED_CHANGES = (
    # a rule with a remote head comes and goes
    [("add", 2, 0), ("remove", 2, 0)],
    # recursion through the added rule, then without it again
    [("add", 0, 0), ("link", True, 2, 0), ("remove", 0, 0)],
    # a wildcard head re-fired through negation: what it shipped and deferred
    [("route", True, 3, 0), ("route", True, 4, 0), ("add", 7, 0), ("add", 8, 0),
     ("blocked", True, 0, 0), ("blocked", True, 1, 0), ("blocked", False, 0, 0)],
    # customising a rule in place, and back
    [("add", 1, 0), ("replace", 1, 6), ("replace", 1, 1), ("remove", 1, 0)],
    # delegations with local and remote heads, duplicated deliveries
    [("install", 1, True), ("install", 2, False), ("link", True, 3, 3),
     ("retract", 1, True), ("retract", 2, False)],
    # a delegating body: the delegation is retracted with its rule
    [("add", 5, 0), ("link", False, 0, 1), ("remove", 5, 0)],
)


def scripted(test):
    for script in SCRIPTED_CHANGES:
        test = example(script, 1)(test)
    # Two changes in one stage: a rule with a remote head is added while an
    # unrelated deletion sends the stage down the rederive path.
    return example([("blocked", True, 0, 0), ("link", True, 3, 3),
                    ("add", 2, 0), ("blocked", False, 0, 0)], 2)(test)


class TestProgramChangesAreDeltas:
    @scripted
    @given(change_operations, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_rule_and_delegation_churn_matches_naive(self, stream, stride):
        self._drive(stream, stride, provenance=False)

    @scripted
    @given(change_operations, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_lineage_matches_a_full_recompute_under_rule_churn(self, stream, stride):
        self._drive(stream, stride, provenance=True)

    @staticmethod
    def _drive(stream, stride: int, provenance: bool) -> None:
        """Apply ``stride`` operations per stage to both engines, in lockstep."""
        # The same Rule objects go to both engines, so rule ids (and the
        # delegation ids hashed over them) agree.
        rules = [parse_rule(text, default_peer="p", author="p") for text in RULE_POOL]
        delegations = [parse_rule(text, default_peer="p", author="q")
                       for text in DELEGATION_POOL]
        incremental = WebdamLogEngine("p")
        naive = reference_engine("p")
        for engine in (incremental, naive):
            if provenance:
                engine.provenance = ProvenanceTracker()
            engine.load_program(CHANGING_PROGRAM)
            for edge in ((0, 1), (1, 2), (2, 2)):
                engine.insert_fact(Fact("link", "p", edge))
            engine.insert_fact(Fact("route", "p", ("hop",)))
        settle_and_compare(incremental, naive, provenance)
        for start in range(0, len(stream), stride):
            for operation in stream[start:start + stride]:
                for engine in (incremental, naive):
                    _apply_change(engine, operation, rules, delegations)
            settle_and_compare(incremental, naive, provenance)
        assert incremental.metrics["core", "stages_full"] == 1

    def test_aggregate_views_opened_and_closed_under_churn(self):
        """Ad-hoc aggregate views are program changes too: rows agree with a
        reference deployment, and no open or close recomputes the standing
        view."""
        rows = {}
        for evaluation, build in (("incremental", lambda builder: builder.build()),
                                  ("naive", reference_deployment)):
            deployment = build(system()
                               .peer("q").program("""
                               collection extensional persistent score@q(who, points);
                               collection extensional persistent banned@q(who);
                               """).done())
            hub = deployment.peer("q")
            standing = hub.query(
                "board($w, count($p), avg($p)) :- score@q($w, $p), not banned@q($w)")
            rng = random.Random(11)
            seen = []
            for step in range(24):
                fact = f"score@q({rng.randrange(4)}, {rng.randrange(6)})"
                (hub.insert if rng.random() < 0.75 else hub.delete)(fact)
                if step % 5 == 0:
                    hub.insert(f"banned@q({rng.randrange(4)})")
                deployment.converge()
                if step % 6 == 3:
                    with hub.query("top(max($p), min($p)) :- score@q($w, $p)") as view:
                        deployment.converge()
                        seen.append(view.rows())
                seen.append(standing.rows())
            rows[evaluation] = seen
            if evaluation == "incremental":
                engine = deployment.runtime.peer("q").engine
                assert engine.metrics["core", "stages_full"] == 1
        assert rows["incremental"] == rows["naive"]


# --------------------------------------------------------------------------- #
# (iii) duplicated delegation deliveries, (iv) the idle-stage guard
# --------------------------------------------------------------------------- #

class TestStrictNoOps:
    def test_duplicated_install_and_retract_deliveries_do_nothing(self):
        engine = WebdamLogEngine("p")
        engine.provenance = ProvenanceTracker()
        engine.load_program(CHANGING_PROGRAM)
        engine.insert_fact(Fact("link", "p", (1, 1)))
        rule = parse_rule(DELEGATION_POOL[1], default_peer="p", author="q")
        engine.receive_delegation("q", "deleg-1", rule)
        engine.run_to_quiescence()
        story = provenance_story(engine.provenance.graph)
        snapshot = engine.snapshot()
        version = engine.program_version

        # The same install again — as a fresh, equal Rule object, the way a
        # redelivered message decodes it.
        again = parse_rule(DELEGATION_POOL[1], default_peer="p", author="q")
        again = type(rule)(head=again.head, body=again.body, author=rule.author,
                           origin=rule.origin, rule_id=rule.rule_id)
        engine.receive_delegation("q", "deleg-1", again)
        result = engine.run_stage()
        assert result.evaluation_path == "skip"
        assert not result.has_outgoing() and not result.derived_changed
        assert engine.program_version == version
        assert engine.state.all_rules()[-1] is rule

        engine.receive_delegation_retraction("q", "deleg-1")
        engine.run_to_quiescence()
        version = engine.program_version
        engine.receive_delegation_retraction("q", "deleg-1")
        result = engine.run_stage()
        assert result.evaluation_path == "skip"
        assert result.consumed_inputs == 0
        assert engine.program_version == version

        engine.receive_delegation("q", "deleg-1", rule)
        engine.run_to_quiescence()
        assert engine.snapshot() == snapshot
        assert provenance_story(engine.provenance.graph) == story

    def test_a_remote_fact_is_withdrawn_whatever_the_sender_knows_of_it(self):
        """A remote head of unknown kind ships its signed diff (its receiver
        decides what a withdrawal means), so declaring the kind afterwards
        leaves nothing to retract."""
        engine = WebdamLogEngine("p")
        engine.load_program("""
        collection extensional persistent mine@p(x);
        rule mirror@q($x) :- mine@p($x);
        """)
        engine.insert_fact(Fact("mine", "p", (1,)))
        engine.insert_fact(Fact("mine", "p", (2,)))
        engine.run_to_quiescence()
        engine.delete_fact(Fact("mine", "p", (1,)))
        results = engine.run_to_quiescence()
        assert outputs_of(results) == {("withdrawn", Fact("mirror", "q", (1,)))}
        assert engine.run_stage().evaluation_path == "skip"

        engine.declare(RelationSchema("mirror", "q", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        result = engine.run_stage()
        assert result.evaluation_path == "skip"
        assert outputs_of([result]) == set()

    def test_identical_redeclaration_changes_nothing(self):
        engine = WebdamLogEngine("p")
        engine.load_program(CHANGING_PROGRAM)
        engine.insert_fact(Fact("link", "p", (1, 2)))
        engine.run_to_quiescence()
        saved = []
        engine.state.backend.save_meta = lambda *args: saved.append(args)
        for schema in list(engine.state.schemas):
            engine.declare(schema)
        assert saved == []
        assert engine.run_stage().evaluation_path == "skip"

    def test_a_relation_declared_intensional_late_rederives_its_definitions(self):
        incremental = WebdamLogEngine("p")
        naive = reference_engine("p")
        for engine in (incremental, naive):
            engine.load_program("""
            collection extensional persistent base@p(x);
            rule late@p($x) :- base@p($x);
            rule reader@q($x) :- late@p($x);
            """)
            engine.run_to_quiescence()
            engine.declare(RelationSchema("late", "p", ("x",),
                                          kind=RelationKind.INTENSIONAL))
            engine.insert_fact(Fact("base", "p", (1,)))
        settle_and_compare(incremental, naive)
        assert incremental.query("late") == (Fact("late", "p", (1,)),)
        assert incremental.metrics["core", "stages_full"] == 1
