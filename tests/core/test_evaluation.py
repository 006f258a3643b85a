"""Tests of left-to-right rule evaluation at a single peer."""

import pytest

from repro.core.delegation import Delegation, shape_of
from repro.core.errors import EvaluationError, SchemaError, StratificationError
from repro.core.engine import WebdamLogEngine
from repro.core.evaluation import RuleEvaluator, RuleOutcome
from repro.core.facts import Fact, fact_matches_bindings
from repro.core.parser import parse_rule
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind
from repro.datalog.stratification import stratify


def make_source(facts):
    """Build a fact_source callable from a list of facts."""

    def source(relation, peer, bindings=None):
        return [f for f in facts if f.relation == relation and f.peer == peer
                and fact_matches_bindings(f, bindings or {})]

    return source


class TestLocalEvaluation:
    def test_simple_projection(self):
        facts = [Fact("pictures", "alice", (1, "sea.jpg")),
                 Fact("pictures", "alice", (2, "boat.jpg"))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = parse_rule("names@alice($n) :- pictures@alice($id, $n)")
        outcome = evaluator.evaluate_rule(rule)
        assert outcome.local_extensional == {
            Fact("names", "alice", ("sea.jpg",)), Fact("names", "alice", ("boat.jpg",))
        }

    def test_join_across_relations(self):
        facts = [Fact("rate", "alice", (1, 5)), Fact("rate", "alice", (2, 3)),
                 Fact("pictures", "alice", (1, "sea.jpg")),
                 Fact("pictures", "alice", (2, "boat.jpg"))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = parse_rule("best@alice($n) :- rate@alice($id, 5), pictures@alice($id, $n)")
        outcome = evaluator.evaluate_rule(rule)
        assert outcome.local_extensional == {Fact("best", "alice", ("sea.jpg",))}

    def test_intensional_head_classified_by_kind_resolver(self):
        facts = [Fact("base", "alice", (1,))]
        evaluator = RuleEvaluator(
            "alice", make_source(facts),
            kind_resolver=lambda r, p: RelationKind.INTENSIONAL if r == "view" else None,
        )
        rule = parse_rule("view@alice($x) :- base@alice($x)")
        outcome = evaluator.evaluate_rule(rule)
        assert outcome.local_intensional == {Fact("view", "alice", (1,))}
        assert not outcome.local_extensional

    def test_negation_filters_substitutions(self):
        facts = [Fact("pictures", "alice", (1,)), Fact("pictures", "alice", (2,)),
                 Fact("hidden", "alice", (2,))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = parse_rule("visible@alice($id) :- pictures@alice($id), not hidden@alice($id)")
        outcome = evaluator.evaluate_rule(rule)
        assert outcome.local_extensional == {Fact("visible", "alice", (1,))}

    def test_negation_on_empty_relation_passes(self):
        facts = [Fact("pictures", "alice", (1,))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = parse_rule("v@alice($id) :- pictures@alice($id), not banned@alice($id)")
        outcome = evaluator.evaluate_rule(rule)
        assert len(outcome.local_extensional) == 1

    def test_relation_variable_ranges_over_local_relations(self):
        facts = [Fact("rate", "alice", (1, 5))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        # $R bound by a previous literal listing relation names.
        facts.append(Fact("relations", "alice", ("rate",)))
        rule = parse_rule("found@alice($R, $id) :- relations@alice($R), $R@alice($id, $v)")
        outcome = evaluator.evaluate_rule(rule)
        assert outcome.local_extensional == {Fact("found", "alice", ("rate", 1))}

    def test_remote_head_produces_remote_fact(self):
        facts = [Fact("pictures", "alice", (1, "x", "alice", "d"))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = parse_rule("pictures@sigmod($i, $n, $o, $d) :- pictures@alice($i, $n, $o, $d)")
        outcome = evaluator.evaluate_rule(rule)
        assert outcome.remote_facts == {Fact("pictures", "sigmod", (1, "x", "alice", "d"))}
        assert not outcome.delegations

    def test_unbound_head_raises(self):
        facts = [Fact("base", "alice", (1,))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = Rule(head=Atom.of("view", "alice", "$x", "$unbound"),
                    body=(Atom.of("base", "alice", "$x"),))
        with pytest.raises(EvaluationError):
            evaluator.evaluate_rule(rule)

    def test_unbound_peer_variable_raises(self):
        facts = [Fact("base", "alice", (1,))]
        evaluator = RuleEvaluator("alice", make_source(facts))
        rule = Rule(head=Atom.of("view", "alice", "$x"),
                    body=(Atom.of("base", "$somewhere", "$x"),))
        with pytest.raises(EvaluationError):
            evaluator.evaluate_rule(rule)


class TestWalkEdges:
    """What the body walk does at the edges a safe program never reaches."""

    def test_peer_variable_unbound_when_its_literal_is_reached(self):
        evaluator = RuleEvaluator("alice", make_source([Fact("base", "alice", (1,))]))
        rule = Rule(head=Atom.of("view", "alice", "$x"),
                    body=(Atom.of("base", "alice", "$x"), Atom.of("other", "$P", "$x")))
        with pytest.raises(EvaluationError,
                           match=r"peer position of literal other@\$P\(1\) is unbound"):
            evaluator.evaluate_rule(rule)

    def test_relation_variable_unbound_at_a_local_literal(self):
        evaluator = RuleEvaluator("alice", make_source([Fact("base", "alice", (1,))]))
        rule = Rule(head=Atom.of("view", "alice", "$x"),
                    body=(Atom.of("base", "alice", "$x"), Atom.of("$R", "alice", "$x")))
        with pytest.raises(EvaluationError,
                           match=r"literal #2 \(\$R@alice\(\$x\)\) is still a variable"):
            evaluator.evaluate_rule(rule)

    @pytest.mark.parametrize("value", [1, 1.5, None])
    def test_relation_variable_bound_to_a_non_string(self, value):
        evaluator = RuleEvaluator("alice", make_source([Fact("names", "alice", (value, 2))]))
        rule = Rule(head=Atom.of("found", "alice", "$x"),
                    body=(Atom.of("names", "alice", "$R", "$x"), Atom.of("$R", "alice", "$x")))
        with pytest.raises(SchemaError, match=r"relation position of an atom must be a "
                           r"string constant or a variable, got Constant\("):
            evaluator.evaluate_rule(rule)

    @pytest.mark.parametrize("value", [7, True, b"bob", None])
    def test_peer_variable_bound_to_a_non_string(self, value):
        evaluator = RuleEvaluator("alice", make_source([Fact("owners", "alice", (value,))]))
        rule = Rule(head=Atom.of("found", "alice", "$x"),
                    body=(Atom.of("owners", "alice", "$P"), Atom.of("r", "$P", "$x")))
        with pytest.raises(SchemaError, match=r"peer position of an atom must be a "
                           r"string constant or a variable, got Constant\("):
            evaluator.evaluate_rule(rule)

    def test_head_peer_bound_to_a_non_string(self):
        evaluator = RuleEvaluator("alice", make_source([Fact("owners", "alice", (7, 1))]))
        rule = Rule(head=Atom.of("r", "$P", "$x"),
                    body=(Atom.of("owners", "alice", "$P", "$x"),))
        with pytest.raises(SchemaError, match=r"got Constant\(7\)"):
            evaluator.evaluate_rule(rule)

    def test_head_left_non_ground_names_the_substituted_head(self):
        evaluator = RuleEvaluator("alice", make_source([Fact("base", "alice", (1,))]))
        rule = Rule(head=Atom.of("view", "alice", "$x", "$unbound"),
                    body=(Atom.of("base", "alice", "$x"),))
        with pytest.raises(EvaluationError,
                           match=r"head view@alice\(1, \$unbound\) is not ground"):
            evaluator.evaluate_rule(rule)

    def test_delta_of_several_relations_joins_only_the_bound_relation(self):
        facts = [Fact("rels", "p", ("a",)), Fact("a", "p", (1,)), Fact("b", "p", (2,)),
                 Fact("c", "p", (3, 4)), Fact("a", "q", (5,))]
        evaluator = RuleEvaluator("p", make_source(facts))
        rule = parse_rule("out@p($R, $x) :- rels@p($R), $R@p($x)")
        delta = {"a@p": {facts[1]}, "b@p": {facts[2]}, "c@p": {facts[3]},
                 "a@q": {facts[4]}}
        outcome = evaluator.evaluate_rule_delta(rule, delta)
        assert outcome.local_extensional == {Fact("out", "p", ("a", 1))}


def delegations_of(evaluator, outcome):
    """The outcome's bindings with the shapes the evaluator filed them under."""
    return [Delegation(binding, evaluator.shapes[shape_of(binding.relation)])
            for binding in sorted(outcome.delegations, key=str)]


class TestDelegationEmission:
    def test_paper_delegation_example(self):
        """The exact example of the paper: Jules delegates to Émilien."""
        facts = [Fact("selectedAttendee", "Jules", ("Emilien",))]
        evaluator = RuleEvaluator("Jules", make_source(facts))
        rule = parse_rule(
            "attendeePictures@Jules($id, $name, $owner, $data) :- "
            "selectedAttendee@Jules($attendee), "
            "pictures@$attendee($id, $name, $owner, $data)"
        )
        outcome = evaluator.evaluate_rule(rule)
        assert len(outcome.delegations) == 1
        (delegation,) = delegations_of(evaluator, outcome)
        assert delegation.target == "Emilien"
        assert delegation.delegator == "Jules"
        delegated = delegation.rule
        assert delegated.head.peer_constant() == "Jules"
        assert len(delegated.body) == 1
        assert delegated.body[0].relation_constant() == "pictures"
        assert delegated.body[0].peer_constant() == "Emilien"

    def test_one_delegation_per_selected_attendee(self):
        facts = [Fact("selectedAttendee", "Jules", ("Emilien",)),
                 Fact("selectedAttendee", "Jules", ("Julia",))]
        evaluator = RuleEvaluator("Jules", make_source(facts))
        rule = parse_rule(
            "attendeePictures@Jules($id) :- "
            "selectedAttendee@Jules($a), pictures@$a($id)"
        )
        outcome = evaluator.evaluate_rule(rule)
        targets = {binding.peer for binding in outcome.delegations}
        assert targets == {"Emilien", "Julia"}

    def test_selected_attendee_local_means_no_delegation(self):
        facts = [Fact("selectedAttendee", "Jules", ("Jules",)),
                 Fact("pictures", "Jules", (9,))]
        evaluator = RuleEvaluator("Jules", make_source(facts))
        rule = parse_rule(
            "attendeePictures@Jules($id) :- selectedAttendee@Jules($a), pictures@$a($id)"
        )
        outcome = evaluator.evaluate_rule(rule)
        assert not outcome.delegations
        assert Fact("attendeePictures", "Jules", (9,)) in outcome.local_extensional

    def test_delegation_carries_remaining_body(self):
        facts = [Fact("selectedAttendee", "Jules", ("Emilien",)),
                 Fact("communicate", "Jules", ("email",))]
        evaluator = RuleEvaluator("Jules", make_source(facts))
        rule = parse_rule(
            "$protocol@$attendee($attendee, $name) :- "
            "selectedAttendee@Jules($attendee), "
            "communicate@$attendee($protocol), "
            "selectedPictures@Jules($name)"
        )
        outcome = evaluator.evaluate_rule(rule)
        assert len(outcome.delegations) == 1
        (delegation,) = delegations_of(evaluator, outcome)
        delegated = delegation.rule
        # Remainder keeps both the remote communicate literal and the
        # (back-at-Jules) selectedPictures literal.
        assert len(delegated.body) == 2
        assert delegated.body[0].relation_constant() == "communicate"
        assert delegated.body[1].peer_constant() == "Jules"

    def test_delegation_ids_stable_across_evaluations(self):
        facts = [Fact("selectedAttendee", "Jules", ("Emilien",))]
        evaluator = RuleEvaluator("Jules", make_source(facts))
        rule = parse_rule(
            "attendeePictures@Jules($id) :- selectedAttendee@Jules($a), pictures@$a($id)"
        )
        first = evaluator.evaluate_rule(rule).delegations
        shapes = dict(evaluator.shapes)
        second = evaluator.evaluate_rule(rule).delegations
        assert first == second
        # The second evaluation met its shape again: nothing new was built.
        assert all(evaluator.shapes[name] is shape for name, shape in shapes.items())

    def test_a_delegation_is_a_binding_of_a_template(self):
        """The paper's transfer rule: the located value (the attendee) is
        part of the shape, the other bound values are the binding."""
        facts = [Fact("selectedAttendee", "Jules", ("Emilien",)),
                 Fact("selectedPictures", "Jules", ("sea.jpg", 1)),
                 Fact("selectedPictures", "Jules", ("boat.jpg", 2))]
        evaluator = RuleEvaluator("Jules", make_source(facts))
        rule = parse_rule(
            "$protocol@$attendee($attendee, $name, $id) :- "
            "selectedAttendee@Jules($attendee), selectedPictures@Jules($name, $id), "
            "communicate@$attendee($protocol)")
        outcome = evaluator.evaluate_rule(rule)
        assert {binding.values for binding in outcome.delegations} == {
            ("sea.jpg", 1), ("boat.jpg", 2)}
        (shape,) = evaluator.shapes.values()
        assert {binding.relation for binding in outcome.delegations} == {
            f"_bind_{shape.name}"}
        assert str(shape.template) == (
            f'$protocol@Emilien("Emilien", $name, $id) :- '
            f'_bind_{shape.name}@Emilien($name, $id), communicate@Emilien($protocol)')
        assert {str(d.rule) for d in delegations_of(evaluator, outcome)} == {
            '$protocol@Emilien("Emilien", "boat.jpg", 2) :- communicate@Emilien($protocol)',
            '$protocol@Emilien("Emilien", "sea.jpg", 1) :- communicate@Emilien($protocol)'}


class TestProvenanceHook:
    def test_on_derivation_receives_support(self):
        facts = [Fact("rate", "alice", (1, 5)), Fact("pictures", "alice", (1, "sea.jpg"))]
        recorded = []
        evaluator = RuleEvaluator(
            "alice", make_source(facts),
            on_derivation=lambda fact, rule, support: recorded.append((fact, support)),
        )
        rule = parse_rule("best@alice($n) :- rate@alice($id, 5), pictures@alice($id, $n)")
        evaluator.evaluate_rule(rule)
        assert len(recorded) == 1
        fact, support = recorded[0]
        assert fact == Fact("best", "alice", ("sea.jpg",))
        assert set(support) == set(facts)


class TestOutcome:
    def test_merge_accumulates(self):
        a = RuleOutcome(local_extensional={Fact("r", "p", (1,))}, substitutions_explored=2)
        b = RuleOutcome(local_extensional={Fact("r", "p", (2,))}, substitutions_explored=3)
        a.merge(b)
        assert len(a.local_extensional) == 2
        assert a.substitutions_explored == 5
        assert a.total_derivations() == 2

    def test_is_empty(self):
        assert RuleOutcome().is_empty()
        assert not RuleOutcome(remote_facts={Fact("r", "p", (1,))}).is_empty()


class TestStratifyLocalRules:
    def test_negation_creates_two_strata(self):
        rules = [
            parse_rule("a@p($x) :- base@p($x)"),
            parse_rule("b@p($x) :- base@p($x), not a@p($x)"),
        ]
        strata = stratify(rules, frozenset())
        assert len(strata) == 2
        assert strata[0][0].head.relation_constant() == "a"
        assert strata[1][0].head.relation_constant() == "b"

    def test_positive_program_single_stratum(self):
        rules = [
            parse_rule("a@p($x) :- base@p($x)"),
            parse_rule("b@p($x) :- a@p($x)"),
        ]
        strata = stratify(rules, frozenset())
        assert sum(len(s) for s in strata) == 2

    def test_unstratifiable_is_refused(self):
        rules = [
            parse_rule("a@p($x) :- base@p($x), not b@p($x)"),
            parse_rule("b@p($x) :- base@p($x), not a@p($x)"),
        ]
        with pytest.raises(StratificationError) as refused:
            stratify(rules, frozenset())
        assert sorted(refused.value.rules) == sorted(map(str, rules))

    def test_empty_rule_list(self):
        assert stratify([], frozenset()) in ([], [[]])


class TestStratificationThroughVariableLiterals:
    """A literal whose relation or peer is a variable is ordered after every
    rule deriving into a relation it can match, whatever the written order."""

    DECLARATIONS = """
        collection extensional persistent base@p(x);
        collection extensional persistent c@p(x);
        collection extensional persistent d@p(x);
        collection extensional persistent sel@p(r);
        collection extensional persistent tgt@p(r);
        collection intensional a@p(x);
        collection intensional b@p(x);
        collection intensional out@p(x);
        fact base@p(1); fact base@p(2); fact c@p(2);
    """

    def run(self, rules, facts):
        engine = WebdamLogEngine("p")
        engine.load_program(self.DECLARATIONS + facts
                            + "".join(f"rule {rule};\n" for rule in rules))
        engine.run_to_quiescence()
        return engine

    @pytest.mark.parametrize("reverse", [False, True])
    def test_variable_relation_body_reads_after_negation(self, reverse):
        rules = ["b@p($x) :- c@p($x)",
                 "a@p($x) :- base@p($x), not b@p($x)",
                 "out@p($x) :- sel@p($r), $r@p($x)"]
        engine = self.run(rules[::-1] if reverse else rules, 'fact sel@p("a");')
        assert {fact.values for fact in engine.query("out")} == {(1,)}

    @pytest.mark.parametrize("reverse", [False, True])
    def test_variable_relation_head_is_read_under_negation(self, reverse):
        rules = ["a@p($x) :- base@p($x), not b@p($x)",
                 "$r@p($x) :- tgt@p($r), c@p($x), not d@p($x)"]
        engine = self.run(rules[::-1] if reverse else rules, 'fact tgt@p("b");')
        assert {fact.values for fact in engine.query("b")} == {(2,)}
        assert {fact.values for fact in engine.query("a")} == {(1,)}
