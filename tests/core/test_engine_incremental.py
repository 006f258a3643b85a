"""Targeted tests of the incremental fixpoint machinery and the fact indexes."""

import pytest

from repro.core.engine import WebdamLogEngine
from repro.core.evaluation import RuleEvaluator
from repro.core.facts import Fact, FactStore
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema

from tests.reference_engine import reference_engine, watch

TC_PROGRAM = """
collection extensional persistent link@alice(src, dst);
collection intensional tc@alice(src, dst);
rule tc@alice($x, $y) :- link@alice($x, $y);
rule tc@alice($x, $z) :- link@alice($x, $y), tc@alice($y, $z);
"""


class TestEvaluationPaths:
    def test_first_stage_is_full(self, engine):
        engine.load_program(TC_PROGRAM)
        assert engine.run_stage().evaluation_path == "full"

    def test_a_stratum_that_does_not_feed_itself_is_evaluated_once(self, engine):
        """A second pass only confirms the fixpoint unless a rule of the
        stratum reads what a rule of the stratum derives."""
        engine.load_program("""
        collection extensional persistent base@alice(x);
        collection intensional left@alice(x);
        collection intensional right@alice(x);
        rule left@alice($x) :- base@alice($x);
        rule right@alice($x) :- base@alice($x);
        """)
        engine.insert_fact(Fact("base", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "full"
        assert (result.rules_evaluated, result.fixpoint_iterations) == (2, 1)
        assert len(engine.query("left")) == len(engine.query("right")) == 1

    def test_a_stratum_that_feeds_itself_runs_to_fixpoint(self, engine):
        """... whatever the order the rules are written in."""
        engine.load_program("""
        collection extensional persistent base@alice(x);
        collection intensional first@alice(x);
        collection intensional second@alice(x);
        rule second@alice($x) :- first@alice($x);
        rule first@alice($x) :- base@alice($x);
        """)
        engine.insert_fact(Fact("base", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "full"
        assert result.fixpoint_iterations > 1
        assert {f.values for f in engine.query("second")} == {(1,)}

    def test_insertions_take_the_delta_path(self, engine):
        engine.load_program(TC_PROGRAM)
        engine.run_to_quiescence()
        engine.insert_fact(Fact("link", "alice", (1, 2)))
        result = engine.run_stage()
        assert result.evaluation_path == "delta"
        assert {f.values for f in engine.query("tc")} == {(1, 2)}

    def test_deletions_take_the_rederive_path(self, engine):
        engine.load_program(TC_PROGRAM)
        for edge in ((1, 2), (2, 3)):
            engine.insert_fact(Fact("link", "alice", edge))
        engine.run_to_quiescence()
        engine.delete_fact(Fact("link", "alice", (2, 3)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert {f.values for f in engine.query("tc")} == {(1, 2)}

    def test_rederive_is_scoped_to_the_affected_closure(self, engine):
        engine.load_program(TC_PROGRAM)
        engine.load_program("""
        collection extensional persistent other@alice(x);
        collection intensional unrelated@alice(x);
        rule unrelated@alice($x) :- other@alice($x);
        """)
        engine.insert_fact(Fact("link", "alice", (1, 2)))
        engine.insert_fact(Fact("other", "alice", (9,)))
        engine.run_to_quiescence()

        def delete_and_reinsert():
            baseline = engine.metrics["core", "rules_evaluated"]
            engine.delete_fact(Fact("link", "alice", (1, 2)))
            result = engine.run_stage()
            assert result.evaluation_path == "rederive"
            evaluated = engine.metrics["core", "rules_evaluated"] - baseline
            assert evaluated == result.rules_evaluated
            assert {f.values for f in engine.query("unrelated")} == {(9,)}
            engine.insert_fact(Fact("link", "alice", (1, 2)))
            engine.run_to_quiescence()
            return result

        small = delete_and_reinsert()
        # The work is bounded by the deleted tuple's consequences, not by the
        # relation: 200 links it has nothing to do with change nothing.
        for node in range(100, 300):
            engine.insert_fact(Fact("link", "alice", (node, node + 1000)))
        engine.run_to_quiescence()
        large = delete_and_reinsert()
        assert large.rules_evaluated == small.rules_evaluated
        assert large.substitutions_explored <= small.substitutions_explored

    def test_rule_changes_are_deltas_not_resets(self, engine):
        """Adding a rule evaluates that rule; removing one rederives the
        closure of its head — and both agree with the reference engine."""
        naive = reference_engine("alice")
        for each in (engine, naive):
            each.load_program(TC_PROGRAM)
            each.load_program("collection intensional loop@alice(x);")
            for edge in ((1, 2), (2, 1), (2, 3)):
                each.insert_fact(Fact("link", "alice", edge))
            each.run_to_quiescence()
            each.add_rule("loop@alice($x) :- tc@alice($x, $x)")
        result = engine.run_stage()
        naive.run_stage()
        assert result.evaluation_path == "delta"
        assert result.rules_evaluated == 1  # the added rule, once
        assert {f.values for f in engine.query("loop")} == {(1,), (2,)}
        assert engine.snapshot() == naive.snapshot()

        for each in (engine, naive):
            each.remove_rule(each.rules()[-1].rule_id)
        result = engine.run_stage()
        naive.run_stage()
        assert result.evaluation_path == "rederive"
        assert result.rules_evaluated == 0  # loop@alice has no definition left
        assert engine.query("loop") == ()
        assert engine.snapshot() == naive.snapshot()
        assert engine.metrics["core", "stages_full"] == 1  # the first stage only

    def test_removing_a_rule_with_a_remote_head_evaluates_nothing(self, engine):
        engine.declare(RelationSchema("mirror", "bob", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        engine.load_program("""
        collection extensional persistent mine@alice(x);
        rule mirror@bob($x) :- mine@alice($x);
        """)
        engine.insert_fact(Fact("mine", "alice", (1,)))
        engine.run_to_quiescence()
        engine.remove_rule(engine.rules()[0].rule_id)
        result = engine.run_stage()
        assert result.evaluation_path == "skip"
        assert [u.withdrawn for u in result.outgoing_updates] == [
            frozenset({Fact("mirror", "bob", (1,))})]

    def test_negation_touching_delta_takes_the_rederive_path(self, engine):
        engine.load_program("""
        collection extensional persistent base@alice(x);
        collection extensional persistent hide@alice(x);
        collection intensional shown@alice(x);
        rule shown@alice($x) :- base@alice($x), not hide@alice($x);
        """)
        engine.insert_fact(Fact("base", "alice", (1,)))
        engine.run_to_quiescence()
        assert {f.values for f in engine.query("shown")} == {(1,)}
        engine.insert_fact(Fact("hide", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert engine.query("shown") == ()

    def test_insert_reaching_negation_transitively_rederives(self, engine):
        """Regression: an insert that derives *into* a negated predicate only
        through an intermediate rule must not take the seminaive path — the
        stale negation-guarded facts would never be retracted."""
        engine.load_program("""
        collection extensional persistent c@alice(x);
        collection extensional persistent d@alice(x);
        collection intensional a@alice(x);
        collection intensional b@alice(x);
        rule a@alice($x) :- c@alice($x), d@alice($x);
        rule b@alice($x) :- c@alice($x), not a@alice($x);
        """)
        engine.insert_fact(Fact("c", "alice", (1,)))
        engine.run_to_quiescence()
        assert {f.values for f in engine.query("b")} == {(1,)}
        engine.insert_fact(Fact("d", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert engine.query("b") == ()
        assert {f.values for f in engine.query("a")} == {(1,)}

    def test_provenance_rides_the_delta_path(self, engine):
        """A maintained tracker no longer pins the engine to full stages."""
        from repro.provenance import ProvenanceTracker

        engine.load_program(TC_PROGRAM)
        engine.provenance = ProvenanceTracker()
        engine.run_to_quiescence()
        engine.insert_fact(Fact("link", "alice", (1, 2)))
        result = engine.run_stage()
        assert result.evaluation_path == "delta"
        assert engine.provenance.why(Fact("tc", "alice", (1, 2)))


class TestTupleLevelDeletes:
    """Delete-and-rederive on tuples: the traps of over-delete and probe."""

    def test_a_delete_clears_no_relation_and_evaluates_only_what_it_reaches(
            self, engine, monkeypatch):
        from repro.provenance import ProvenanceTracker

        engine.load_program(TC_PROGRAM)
        engine.load_program("""
        collection extensional persistent other@alice(x);
        collection intensional unrelated@alice(x);
        rule unrelated@alice($x) :- other@alice($x);
        """)
        engine.provenance = ProvenanceTracker()
        for edge in ((1, 2), (2, 3)):
            engine.insert_fact(Fact("link", "alice", edge))
        engine.insert_fact(Fact("other", "alice", (9,)))
        engine.run_to_quiescence()
        unrelated = engine.rules()[-1]
        touched, cleared = [], []
        for name in ("evaluate_rule", "evaluate_rule_delta", "derives"):
            original = getattr(RuleEvaluator, name)
            monkeypatch.setattr(
                RuleEvaluator, name,
                lambda self, rule, *args, _original=original:
                    touched.append(rule) or _original(self, rule, *args))
        monkeypatch.setattr(engine.state.derived, "clear_relation",
                            lambda *args: cleared.append(args))
        monkeypatch.setattr(engine.provenance, "on_rederive",
                            lambda *args: cleared.append(args))
        engine.delete_fact(Fact("link", "alice", (2, 3)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert cleared == []
        assert touched and unrelated not in touched
        assert {f.values for f in engine.query("tc")} == {(1, 2)}
        assert set(engine.provenance.graph.facts()) == {
            Fact("tc", "alice", (1, 2)), Fact("unrelated", "alice", (9,))}

    def test_over_delete_reads_the_state_before_the_delete(self, engine):
        """Trap (a): a derivation from two deleted facts — or from one fact at
        two body positions — exists only in the old state."""
        engine.load_program("""
        collection extensional persistent a@alice(x);
        collection intensional pair@alice(x, y);
        rule pair@alice($x, $y) :- a@alice($x), a@alice($y);
        """)
        for value in (1, 2, 3):
            engine.insert_fact(Fact("a", "alice", (value,)))
        engine.run_to_quiescence()
        engine.delete_fact(Fact("a", "alice", (1,)))
        engine.insert_fact(Fact("a", "alice", (4,)))  # same stage: harmless
        assert engine.run_stage().evaluation_path == "rederive"
        assert {f.values for f in engine.query("pair")} == {
            (x, y) for x in (2, 3, 4) for y in (2, 3, 4)}
        engine.delete_fact(Fact("a", "alice", (2,)))
        engine.delete_fact(Fact("a", "alice", (3,)))
        assert engine.run_stage().evaluation_path == "rederive"
        assert {f.values for f in engine.query("pair")} == {(4, 4)}

    def test_a_withdrawn_fact_supporting_itself_through_a_cycle_goes(self, engine):
        """Trap (b): a provided fact that is also derived — through a cycle
        it is part of — is no reason to keep the derived copy."""
        engine.load_program(TC_PROGRAM)
        for edge in ((3, 5), (5, 3)):
            engine.insert_fact(Fact("link", "alice", edge))
        engine.receive_facts("bob", inserted=[Fact("tc", "alice", (3, 0))])
        engine.run_to_quiescence()
        assert engine.state.derived.contains(Fact("tc", "alice", (3, 0)))
        subscription, _, removed = watch(engine, "tc")
        engine.receive_facts("bob", deleted=[Fact("tc", "alice", (3, 0))])
        result = engine.run_stage()
        subscription.notify_stage("alice")
        assert result.evaluation_path == "rederive"
        assert {f.values for f in engine.query("tc")} == {
            (3, 5), (5, 3), (3, 3), (5, 5)}
        assert [f.values for f in removed] == [(3, 0), (5, 0)]

    def test_an_output_leaves_the_memo_of_the_rule_that_lost_it(self, engine):
        """Trap (e): another rule still deriving a remote fact does not keep
        it in the memo of the rule that no longer does."""
        engine.declare(RelationSchema("mirror", "bob", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        engine.load_program("""
        collection extensional persistent a@alice(x);
        collection extensional persistent b@alice(x);
        rule mirror@bob($x) :- a@alice($x);
        rule mirror@bob($x) :- b@alice($x);
        """)
        engine.insert_fact(Fact("a", "alice", (1,)))
        engine.insert_fact(Fact("b", "alice", (1,)))
        engine.run_to_quiescence()
        engine.delete_fact(Fact("a", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert result.outgoing_updates == []  # the second rule still derives it
        engine.delete_fact(Fact("b", "alice", (1,)))
        result = engine.run_stage()
        assert [u.withdrawn for u in result.outgoing_updates] == [
            frozenset({Fact("mirror", "bob", (1,))})]

    def test_a_delegation_is_probed_from_what_it_fixes(self, engine):
        """Trap (e): a delegation with two derivations (``$m`` is bound by
        the prefix only) is retracted with the second one, not the first."""
        engine.load_program("""
        collection extensional persistent l@alice(src, dst);
        rule far@alice($x) :- l@alice($x, $m), l@alice($m, $y), remote@bob($y);
        """)
        for edge in ((0, 1), (1, 9), (0, 2), (2, 9)):
            engine.insert_fact(Fact("l", "alice", edge))
        result = engine.run_stage()
        assert len(result.delegations_to_install) == 1
        engine.delete_fact(Fact("l", "alice", (0, 1)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert result.delegations_to_retract == []
        assert len(engine.state.delegation_tracker.outstanding()) == 1
        engine.delete_fact(Fact("l", "alice", (2, 9)))
        result = engine.run_stage()
        assert len(result.delegations_to_retract) == 1
        assert engine.state.delegation_tracker.outstanding() == ()

    def test_a_deferred_extensional_fact_leaves_with_its_rule_only(self, engine):
        """Trap (e), deferred heads: deleted under the rule that derives it,
        the fact comes back; deleted with its support, it stays gone."""
        engine.load_program("""
        collection extensional persistent base@alice(x);
        collection extensional persistent seen@alice(x);
        rule seen@alice($x) :- base@alice($x);
        """)
        engine.insert_fact(Fact("base", "alice", (1,)))
        engine.run_to_quiescence()
        engine.delete_fact(Fact("seen", "alice", (1,)))
        engine.run_to_quiescence()
        assert {f.values for f in engine.query("seen")} == {(1,)}
        engine.delete_fact(Fact("base", "alice", (1,)))
        engine.delete_fact(Fact("seen", "alice", (1,)))
        engine.run_to_quiescence()
        assert engine.query("seen") == ()

    def test_the_probe_is_planned_with_the_head_variables_bound(self, engine):
        """Trap (f): asked for one ``listed(item)``, the rule starts at
        ``owns(item, ?)`` — two rows — although ``member`` is the smaller
        relation and an unbound plan would walk it first."""
        engine.load_program("""
        collection extensional persistent member@alice(club);
        collection extensional persistent owns@alice(item, club);
        collection intensional listed@alice(item);
        rule listed@alice($item) :- member@alice($club), owns@alice($item, $club);
        """)
        for club in range(30):
            engine.insert_fact(Fact("member", "alice", (club,)))
            for item in range(5):
                engine.insert_fact(Fact("owns", "alice", (club * 10 + item, club)))
        engine.insert_fact(Fact("owns", "alice", (0, 29)))  # item 0: clubs 0 and 29
        engine.run_to_quiescence()
        engine.delete_fact(Fact("owns", "alice", (0, 0)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        # listed(0) is over-deleted and found again through club 29.
        assert len(engine.query("listed")) == 150
        assert result.substitutions_explored < 10  # member alone is 30


class TestMemoisedOutputs:
    def test_remote_updates_survive_unrelated_stages(self, engine):
        """A derived remote fact is not retracted by an unrelated delta."""
        engine.load_program("""
        collection extensional persistent mine@alice(x);
        collection extensional persistent other@alice(x);
        rule mirror@bob($x) :- mine@alice($x);
        """)
        engine.insert_fact(Fact("mine", "alice", (1,)))
        result = engine.run_stage()
        assert any(Fact("mirror", "bob", (1,)) in u.inserted
                   for u in result.outgoing_updates)
        engine.insert_fact(Fact("other", "alice", (5,)))
        result = engine.run_stage()
        # Nothing new for bob, and crucially no retraction either.
        assert result.outgoing_updates == []

    def test_remote_view_retraction_after_deletion(self, engine):
        engine.declare(RelationSchema("mirror", "bob", ("x",),
                                      kind=RelationKind.INTENSIONAL))
        engine.load_program("""
        collection extensional persistent mine@alice(x);
        rule mirror@bob($x) :- mine@alice($x);
        """)
        engine.insert_fact(Fact("mine", "alice", (1,)))
        engine.run_stage()
        engine.delete_fact(Fact("mine", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert any(Fact("mirror", "bob", (1,)) in u.withdrawn
                   for u in result.outgoing_updates)


class TestFactStoreIndexes:
    def _store(self):
        store = FactStore()
        store.insert(Fact("r", "p", (1, "a")))
        store.insert(Fact("r", "p", (1, "b")))
        store.insert(Fact("r", "p", (2, "a")))
        return store

    def test_multi_column_lookup_is_exact(self):
        store = self._store()
        facts = set(store.facts("r", "p", bindings={0: 1, 1: "a"}))
        assert facts == {Fact("r", "p", (1, "a"))}

    def test_indexes_are_maintained_across_updates(self):
        store = self._store()
        assert len(set(store.facts("r", "p", bindings={0: 1}))) == 2
        store.delete(Fact("r", "p", (1, "a")))
        store.insert(Fact("r", "p", (1, "c")))
        assert (set(store.facts("r", "p", bindings={0: 1}))
                == {Fact("r", "p", (1, "b")), Fact("r", "p", (1, "c"))})

    def test_bool_and_int_keys_stay_distinct(self):
        store = FactStore()
        store.insert(Fact("flags", "p", (True,)))
        store.insert(Fact("flags", "p", (1,)))
        assert set(store.facts("flags", "p", bindings={0: True})) == {
            Fact("flags", "p", (True,))}

    def test_out_of_range_binding_matches_nothing(self):
        store = self._store()
        assert list(store.facts("r", "p", bindings={5: "a"})) == []


class TestEvaluatorSources:
    def test_two_argument_source_is_rejected(self):
        """The bindings-aware protocol is the only one: the transparent
        adapter for ``source(relation, peer)`` callables is gone, and such a
        source fails at its first call instead of being silently wrapped."""
        facts = [Fact("r", "p", (1, "a")), Fact("r", "p", (2, "b"))]

        def source(relation, peer):
            return [f for f in facts if f.relation == relation and f.peer == peer]

        evaluator = RuleEvaluator("p", source)
        rule = parse_rule("out@p($x) :- r@p($x, \"a\")")
        with pytest.raises(TypeError):
            evaluator.evaluate_rule(rule)

    def test_negated_ground_literal_uses_the_index_probe(self):
        facts = {"s": [Fact("s", "p", (1,)), Fact("s", "p", (2,))],
                 "r": [Fact("r", "p", (1,))]}
        calls = []

        def source(relation, peer, bindings=None):
            calls.append((relation, bindings))
            selected = facts.get(relation, [])
            if bindings:
                selected = [f for f in selected
                            if all(f.values[i] == v for i, v in bindings.items())]
            return selected

        evaluator = RuleEvaluator("p", source)
        rule = parse_rule("out@p($x) :- s@p($x), not r@p($x)")
        outcome = evaluator.evaluate_rule(rule)
        assert {f.values for f in outcome.local_extensional} == {(2,)}
        # The negated probes arrived with the argument fully bound.
        negated_probes = [b for rel, b in calls if rel == "r"]
        assert negated_probes == [{0: 1}, {0: 2}]

    def test_delta_evaluation_only_explores_delta_joins(self):
        facts = [Fact("link", "p", (i, i + 1)) for i in range(10)]
        facts += [Fact("tc", "p", (i, j)) for i in range(10) for j in range(i + 1, 11)]

        def source(relation, peer, bindings=None):
            selected = (f for f in facts if f.relation == relation and f.peer == peer)
            if bindings:
                selected = (f for f in selected
                            if all(f.values[i] == v for i, v in bindings.items()))
            return list(selected)

        evaluator = RuleEvaluator(
            "p", source,
            kind_resolver=lambda relation, peer: (
                RelationKind.INTENSIONAL if relation == "tc" else None),
        )
        rule = parse_rule("tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z)")
        full = evaluator.evaluate_rule(rule)
        delta = evaluator.evaluate_rule_delta(
            rule, {"link@p": {Fact("link", "p", (0, 1))}})
        assert delta.substitutions_explored < full.substitutions_explored
        # Every delta derivation is a subset of the full evaluation's.
        assert delta.local_intensional <= full.local_intensional
        assert {f.values[0] for f in delta.local_intensional} == {0}
