"""Tests of the per-peer engine: program loading, updates, queries."""

import pytest

from repro.core.engine import OutgoingUpdate, StageResult, WebdamLogEngine
from repro.core.errors import SchemaError
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema

from tests.reference_engine import watch


class TestProgramLoading:
    PROGRAM = """
    collection extensional persistent pictures@alice(id, name);
    collection intensional names@alice(name);
    fact pictures@alice(1, "sea.jpg");
    fact pictures@alice(2, "boat.jpg");
    rule names@alice($n) :- pictures@alice($id, $n);
    """

    def test_load_program_registers_everything(self, engine):
        engine.load_program(self.PROGRAM)
        assert engine.state.schemas.get("pictures", "alice") is not None
        assert engine.state.store.count("pictures", "alice") == 2
        assert len(engine.rules()) == 1

    def test_load_program_with_remote_facts_queues_them(self, engine):
        engine.load_program('fact pictures@sigmod(1, "x");')
        assert engine.state.store.total_facts() == 0
        result = engine.run_stage()
        targets = [update.target for update in result.outgoing_updates]
        assert targets == ["sigmod"]

    def test_add_rule_from_text(self, engine):
        rule = engine.add_rule("v@alice($x) :- b@alice($x)")
        assert rule.author == "alice"
        assert len(engine.rules()) == 1

    def test_remove_and_replace_rule(self, engine):
        rule = engine.add_rule("v@alice($x) :- b@alice($x)")
        replaced = engine.replace_rule(rule.rule_id, "v@alice($x) :- c@alice($x)")
        assert replaced.rule_id == rule.rule_id
        assert replaced.body[0].relation_constant() == "c"
        removed = engine.remove_rule(rule.rule_id)
        assert removed is not None
        assert not engine.rules()

    def test_replace_unknown_rule_raises(self, engine):
        with pytest.raises(KeyError):
            engine.replace_rule("nope", "v@alice($x) :- b@alice($x)")


class TestFactUpdates:
    def test_insert_and_delete_local_fact(self, engine):
        engine.insert_fact('pictures@alice(1, "sea.jpg")')
        assert engine.query("pictures") == (Fact("pictures", "alice", (1, "sea.jpg")),)
        engine.delete_fact('pictures@alice(1, "sea.jpg")')
        assert engine.query("pictures") == ()

    def test_insert_into_intensional_relation_rejected(self, engine):
        engine.declare(RelationSchema("view", "alice", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        with pytest.raises(SchemaError):
            engine.insert_fact(Fact("view", "alice", (1,)))

    def test_remote_insert_is_queued_not_stored(self, engine):
        engine.insert_fact(Fact("pictures", "bob", (1, "x")))
        assert engine.state.store.total_facts() == 0
        result = engine.run_stage()
        assert result.outgoing_updates[0].target == "bob"
        assert Fact("pictures", "bob", (1, "x")) in result.outgoing_updates[0].inserted

    def test_remote_delete_is_queued(self, engine):
        engine.delete_fact(Fact("pictures", "bob", (1, "x")))
        result = engine.run_stage()
        assert Fact("pictures", "bob", (1, "x")) in result.outgoing_updates[0].deleted

    def test_send_fact_rejects_local(self, engine):
        with pytest.raises(SchemaError):
            engine.send_fact(Fact("pictures", "alice", (1,)))


class TestStageBasics:
    def test_intensional_view_computed_in_one_stage(self, engine):
        engine.load_program(TestProgramLoading.PROGRAM)
        result = engine.run_stage()
        assert result.derived_intensional == 2
        names = {f.values[0] for f in engine.query("names")}
        assert names == {"sea.jpg", "boat.jpg"}

    def test_view_recomputed_after_base_deletion(self, engine):
        engine.load_program(TestProgramLoading.PROGRAM)
        engine.run_stage()
        engine.delete_fact('pictures@alice(1, "sea.jpg")')
        engine.run_stage()
        names = {f.values[0] for f in engine.query("names")}
        assert names == {"boat.jpg"}

    def test_quiescence_after_convergence(self, engine):
        engine.load_program(TestProgramLoading.PROGRAM)
        results = engine.run_to_quiescence()
        assert results[-1].is_quiescent()
        # Running another stage stays quiescent.
        assert engine.run_stage().is_quiescent()

    def test_recursive_local_rules_reach_fixpoint(self, engine):
        engine.load_program("""
        collection extensional persistent edge@alice(src, dst);
        collection intensional path@alice(src, dst);
        fact edge@alice(1, 2);
        fact edge@alice(2, 3);
        fact edge@alice(3, 4);
        rule path@alice($x, $y) :- edge@alice($x, $y);
        rule path@alice($x, $z) :- path@alice($x, $y), edge@alice($y, $z);
        """)
        engine.run_to_quiescence()
        paths = {(f.values[0], f.values[1]) for f in engine.query("path")}
        assert paths == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}

    def test_stratified_negation_local(self, engine):
        engine.load_program("""
        collection extensional persistent pictures@alice(id);
        collection extensional persistent hidden@alice(id);
        collection intensional visible@alice(id);
        fact pictures@alice(1);
        fact pictures@alice(2);
        fact hidden@alice(2);
        rule visible@alice($id) :- pictures@alice($id), not hidden@alice($id);
        """)
        engine.run_to_quiescence()
        assert {f.values[0] for f in engine.query("visible")} == {1}

    def test_derived_local_extensional_facts_deferred_to_next_stage(self, engine):
        engine.load_program("""
        collection extensional persistent raw@alice(x);
        collection extensional persistent archive@alice(x);
        fact raw@alice(1);
        rule archive@alice($x) :- raw@alice($x);
        """)
        first = engine.run_stage()
        assert first.deferred_local_updates == 1
        # The deferred update lands at the start of the next stage.
        assert engine.query("archive") == ()
        engine.run_stage()
        assert engine.query("archive") == (Fact("archive", "alice", (1,)),)

    def test_counts_and_snapshot(self, engine):
        engine.load_program(TestProgramLoading.PROGRAM)
        engine.run_stage()
        assert engine.state.store.total_facts() == 2
        assert engine.state.derived.total_facts() == 2
        snapshot = engine.snapshot()
        assert "pictures@alice" in snapshot
        assert "names@alice" in snapshot


class TestRemoteInteraction:
    def test_receive_facts_inserted_at_next_stage(self, engine):
        engine.declare(RelationSchema("pictures", "alice", ("id",)))
        engine.receive_facts("bob", inserted=[Fact("pictures", "alice", (7,))])
        assert engine.query("pictures") == ()
        engine.run_stage()
        assert engine.query("pictures") == (Fact("pictures", "alice", (7,)),)

    def test_received_deletion_applied(self, engine):
        engine.insert_fact(Fact("pictures", "alice", (7,)))
        engine.receive_facts("bob", deleted=[Fact("pictures", "alice", (7,))])
        engine.run_stage()
        assert engine.query("pictures") == ()

    def test_received_facts_for_intensional_relation_are_provided(self, engine):
        engine.declare(RelationSchema("view", "alice", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        engine.receive_facts("bob", inserted=[Fact("view", "alice", (1,))])
        engine.run_stage()
        assert engine.query("view") == (Fact("view", "alice", (1,)),)
        # They persist across stages until retracted by the sender...
        engine.run_stage()
        assert engine.query("view") == (Fact("view", "alice", (1,)),)
        engine.receive_facts("bob", deleted=[Fact("view", "alice", (1,))])
        engine.run_stage()
        assert engine.query("view") == ()

    def test_fact_provided_by_two_senders_outlives_one_of_them(self, engine):
        engine.declare(RelationSchema("view", "alice", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        fact = Fact("view", "alice", (1,))
        subscription, added, removed = watch(engine, "view")
        engine.receive_facts("bob", inserted=[fact])
        engine.receive_facts("carol", inserted=[fact])
        engine.run_stage()
        subscription.notify_stage("alice")
        assert (added, removed) == ([fact], [])
        engine.receive_facts("bob", deleted=[fact])
        engine.run_stage()
        subscription.notify_stage("alice")
        assert engine.query("view") == (fact,)
        assert removed == []
        # A retraction by someone who never provided it changes nothing.
        engine.receive_facts("dave", deleted=[fact])
        engine.run_stage()
        assert engine.query("view") == (fact,)
        engine.receive_facts("carol", deleted=[fact])
        engine.run_stage()
        subscription.notify_stage("alice")
        assert engine.query("view") == ()
        assert (added, removed) == ([fact], [fact])

    def test_deletion_masked_by_another_source_is_no_visible_change(self, engine):
        """Derived locally and provided remotely: dropping either holder is
        no visibility change — a subscription fires no ``on_remove`` — but
        ``fact_view`` yields one row fewer."""
        engine.declare(RelationSchema("base", "alice", ("x",)))
        engine.declare(RelationSchema("view", "alice", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        engine.add_rule("view@alice($x) :- base@alice($x)")
        fact = Fact("view", "alice", (1,))
        subscription, added, removed = watch(engine, "view")
        engine.insert_fact(Fact("base", "alice", (1,)))
        engine.receive_facts("bob", inserted=[fact])
        engine.run_stage()
        subscription.notify_stage("alice")
        assert added == [fact]
        assert len(list(engine.state.fact_view("view", "alice"))) == 2
        engine.receive_facts("bob", deleted=[fact])
        engine.run_stage()
        assert subscription.notify_stage("alice") == 0
        assert removed == []
        assert list(engine.state.fact_view("view", "alice")) == [fact]
        engine.delete_fact(Fact("base", "alice", (1,)))
        engine.run_stage()
        subscription.notify_stage("alice")
        assert (added, removed) == ([fact], [fact])

    @pytest.mark.parametrize("faults", [{}, {"duplicate_probability": 0.3}],
                             ids=["raw", "causal"])
    def test_rating_gathered_from_two_selected_attendees_survives_a_deselect(
            self, faults):
        """The Wepic ranking view: the same ``attendeeRatings(49, 4)`` derived
        at two selected attendees stays while either is still selected."""
        from repro.runtime.inmemory import InMemoryTransport
        from repro.runtime.system import WebdamLogSystem

        system = WebdamLogSystem(transport=InMemoryTransport(seed=3, **faults))
        jules = system.add_peer("Jules")
        jules.load_program("""
        collection extensional persistent selectedAttendee@Jules(attendee);
        collection intensional attendeeRatings@Jules(id, rating);
        rule attendeeRatings@Jules($id, $rating) :-
            selectedAttendee@Jules($attendee), rate@$attendee($id, $rating);
        """)
        for name in ("Emilien", "Julia"):
            system.add_peer(name).load_program(f"""
            collection extensional persistent rate@{name}(id, rating);
            fact rate@{name}(49, 4);
            """)
            jules.insert_fact(Fact("selectedAttendee", "Jules", (name,)))
        rating = Fact("attendeeRatings", "Jules", (49, 4))
        assert system.converge(max_steps=60).converged
        assert jules.query("attendeeRatings") == (rating,)
        jules.delete_fact(Fact("selectedAttendee", "Jules", ("Emilien",)))
        assert system.converge(max_steps=60).converged
        assert jules.query("attendeeRatings") == (rating,)
        jules.delete_fact(Fact("selectedAttendee", "Jules", ("Julia",)))
        assert system.converge(max_steps=60).converged
        assert jules.query("attendeeRatings") == ()

    def test_scratch_intensional_relation_drops_provided_facts(self):
        engine = WebdamLogEngine("alice")
        engine.load_program("""
        collection intensional scratch view@alice(x);
        collection intensional kept@alice(x);
        """)
        engine.receive_facts("bob", inserted=[Fact("view", "alice", (1,)),
                                              Fact("kept", "alice", (1,))])
        engine.run_stage()
        # A fact provided to a scratch relation is visible only during the
        # stage that consumed it; the persistent relation keeps its own.
        assert engine.query("view") == ()
        assert engine.query("kept") == (Fact("kept", "alice", (1,)),)

    def test_misrouted_fact_ignored(self, engine):
        engine.receive_facts("bob", inserted=[Fact("pictures", "carol", (1,))])
        engine.run_stage()
        assert engine.state.store.total_facts() == 0

    def test_provided_fact_of_the_wrong_arity_is_ignored(self, engine):
        engine.load_program("collection intensional view@alice(x, y);")
        good = Fact("view", "alice", (1, 2))
        engine.receive_facts("bob", inserted=[Fact("view", "alice", (1,)), good])
        engine.run_stage()
        assert engine.query("view") == (good,)
        engine.receive_facts("bob", deleted=[Fact("view", "alice", (1,))])
        engine.run_stage()
        assert engine.query("view") == (good,)

    def test_remote_derived_facts_not_resent(self, engine):
        engine.load_program("""
        collection extensional persistent pictures@alice(id);
        fact pictures@alice(1);
        rule pictures@sigmod($id) :- pictures@alice($id);
        """)
        first = engine.run_stage()
        assert first.outgoing_fact_count() == 1
        second = engine.run_stage()
        assert second.outgoing_fact_count() == 0
        # A new base fact triggers exactly one new outgoing fact.
        engine.insert_fact(Fact("pictures", "alice", (2,)))
        third = engine.run_stage()
        assert third.outgoing_fact_count() == 1

    def test_delegation_installed_and_evaluated(self, engine):
        engine.insert_fact(Fact("pictures", "alice", (1, "sea.jpg")))
        delegated = parse_rule("attendeePictures@Jules($id, $n) :- pictures@alice($id, $n)",
                               author="Jules")
        engine.receive_delegation("Jules", "deleg-1", delegated)
        result = engine.run_stage()
        assert len(engine.installed_delegations()) == 1
        assert result.outgoing_updates[0].target == "Jules"
        assert Fact("attendeePictures", "Jules", (1, "sea.jpg")) in \
            result.outgoing_updates[0].inserted

    def test_delegation_retraction_stops_evaluation(self, engine):
        engine.insert_fact(Fact("pictures", "alice", (1, "x")))
        delegated = parse_rule("v@Jules($id) :- pictures@alice($id, $n)", author="Jules")
        engine.receive_delegation("Jules", "deleg-9", delegated)
        engine.run_stage()
        engine.receive_delegation_retraction("Jules", "deleg-9")
        engine.run_stage()
        assert len(engine.installed_delegations()) == 0

    def test_only_delegator_can_retract(self, engine):
        delegated = parse_rule("v@Jules($id) :- pictures@alice($id)", author="Jules")
        engine.receive_delegation("Jules", "deleg-2", delegated)
        engine.run_stage()
        engine.receive_delegation_retraction("Mallory", "deleg-2")
        engine.run_stage()
        assert len(engine.installed_delegations()) == 1


class TestStageResult:
    def test_outgoing_counters(self):
        result = StageResult(peer="p", stage=1)
        assert result.is_quiescent()
        result.outgoing_updates.append(OutgoingUpdate(
            target="q", inserted=frozenset({Fact("r", "q", (1,))})))
        assert result.outgoing_fact_count() == 1
        assert result.has_outgoing()
        assert not result.is_quiescent()
