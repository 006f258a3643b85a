"""Targeted tests of the incremental fixpoint machinery and the fact indexes."""

import pytest

from repro.core.engine import WebdamLogEngine
from repro.core.evaluation import RuleEvaluator
from repro.core.facts import Fact, FactStore
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema

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
        baseline = engine.eval_counters["rules_evaluated"]
        engine.delete_fact(Fact("link", "alice", (1, 2)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        # Only the two tc rules re-fired; the unrelated rule was not touched.
        evaluated = engine.eval_counters["rules_evaluated"] - baseline
        assert evaluated == result.rules_evaluated
        assert result.rules_evaluated <= 4  # 2 tc rules × ≤2 iterations
        assert {f.values for f in engine.query("unrelated")} == {(9,)}

    def test_rule_changes_are_deltas_not_resets(self, engine):
        """Adding a rule evaluates that rule; removing one rederives the
        closure of its head — and both agree with a naive engine."""
        naive = WebdamLogEngine("alice", evaluation_mode="naive")
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
        assert engine.eval_counters["stages_full"] == 1  # the first stage only

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
        assert [u.deleted for u in result.outgoing_updates] == [
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
        assert any(Fact("mirror", "bob", (1,)) in u.deleted
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
        outcome = evaluator.evaluate_rules([rule])
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
