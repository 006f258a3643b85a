"""Tests of delegation bookkeeping: shapes, the tracker's diff, the template store."""

import pytest

from repro.core.delegation import (DelegationStore, DelegationTracker, Split,
                                   binding_relation, delegation_id, shape_of, stands_for)
from repro.core.errors import DelegationError
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.terms import Constant

RULE = ("attendeePictures@Jules($id, $n) :- selectedAttendee@Jules($a, $n), "
        "pictures@$a($id, $n)")


def bind(tracker, rule, attendee, name, index=1):
    """The binding ``rule`` delegates for ``selectedAttendee@Jules(attendee, name)``."""
    split = Split.of(rule, index)
    variables = {variable.name: variable for variable in split.located + split.free}
    substitution = {variables["a"]: Constant(attendee), variables["n"]: Constant(name)}
    return split.bind("Jules", attendee, substitution, tracker.shapes)


class TestShapes:
    def test_a_located_value_is_part_of_the_shape(self):
        tracker = DelegationTracker("Jules")
        rule = parse_rule(RULE, author="Jules")
        first = bind(tracker, rule, "Emilien", "x")
        second = bind(tracker, rule, "Emilien", "y")
        other = bind(tracker, rule, "Julia", "x")
        assert first.relation == second.relation != other.relation
        assert (first.peer, first.values, second.values) == ("Emilien", ("x",), ("y",))
        assert len(tracker.shapes) == 2
        shape = tracker.shapes[shape_of(first.relation)]
        assert str(shape.template) == (
            f"attendeePictures@Jules($id, $n) :- {first.relation}@Emilien($n), "
            "pictures@Emilien($id, $n)")

    def test_a_binding_stands_for_the_delegated_rule(self):
        tracker = DelegationTracker("Jules")
        rule = parse_rule(RULE, author="Jules")
        binding = bind(tracker, rule, "Emilien", "x")
        shape = tracker.shapes[shape_of(binding.relation)]
        delegated = stands_for(shape.template, binding.values, "Emilien")
        assert str(delegated) == (
            'attendeePictures@Jules($id, "x") :- pictures@Emilien($id, "x")')
        assert delegated.author == "Jules" and delegated.origin == rule.rule_id
        # Named as the delegator names it: by content, up to variable names.
        assert delegation_id("Jules", "Emilien", rule.rule_id, delegated).startswith("deleg-")

    def test_shapes_are_named_by_content(self):
        rule = parse_rule(RULE, author="Jules")
        again = parse_rule(RULE, author="Jules")
        assert rule is not again
        assert (bind(DelegationTracker("Jules"), rule, "Emilien", "x")
                == bind(DelegationTracker("Jules"), again, "Emilien", "x"))


class TestDelegationTracker:
    def setup_method(self):
        self.tracker = DelegationTracker("Jules")
        self.rule = parse_rule(RULE, author="Jules")

    def test_the_first_binding_of_a_shape_sends_its_template(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        diff = self.tracker.diff({binding})
        assert [d.binding for d in diff.to_install] == [binding]
        assert [shape.name for shape in diff.templates] == [shape_of(binding.relation)]
        assert diff.counts() == (1, 0)
        self.tracker.commit(diff)
        sibling = bind(self.tracker, self.rule, "Emilien", "y")
        diff = self.tracker.diff({binding, sibling})
        assert [d.binding for d in diff.to_install] == [sibling]
        assert diff.templates == []

    def test_commit_then_same_required_is_noop(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        self.tracker.commit(self.tracker.diff({binding}))
        assert not self.tracker.diff({binding})
        assert [d.binding for d in self.tracker.outstanding_for("Emilien")] == [binding]

    def test_a_live_rule_keeps_its_template_when_its_bindings_go(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        self.tracker.commit(self.tracker.diff({binding}))
        diff = self.tracker.diff(set())
        assert [d.binding for d in diff.to_retract] == [binding]
        self.tracker.retire(diff, [self.rule])
        assert diff.retired == []
        self.tracker.commit(diff)
        assert not self.tracker.outstanding()
        # Bound again: a fact, no template.
        diff = self.tracker.diff({binding})
        assert diff.templates == [] and [d.binding for d in diff.to_install] == [binding]

    def test_a_removed_rule_retires_its_templates(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        self.tracker.commit(self.tracker.diff({binding}))
        diff = self.tracker.diff(set())
        self.tracker.retire(diff, [])
        assert diff.retired == [("Emilien", shape_of(binding.relation))]

    def test_a_program_change_retires_a_template_whose_bindings_went_before(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        self.tracker.commit(self.tracker.diff({binding}))
        diff = self.tracker.diff(set())
        self.tracker.retire(diff, [self.rule])
        self.tracker.commit(diff)
        # The rule is replaced later: no binding goes with that diff.
        replacement = parse_rule(RULE.replace("pictures@", "photos@"), author="Jules")
        assert not self.tracker.needs_retire()
        self.tracker.rules_removed()
        assert self.tracker.needs_retire()
        diff = self.tracker.diff(set())
        self.tracker.retire(diff, [replacement])
        assert diff.retired == [("Emilien", shape_of(binding.relation))]
        self.tracker.commit(diff)
        self.tracker.rules_removed()
        assert not self.tracker.needs_retire()

    def test_a_restored_template_stays_while_its_rule_as_written_is_live(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        sent, _ = self.tracker.commit(self.tracker.diff({binding}))
        reopened = DelegationTracker("Jules")
        reopened.restore([], sent)
        diff = reopened.diff(set())
        reopened.retire(diff, (parse_rule(RULE, author="Jules"),))
        assert diff.retired == []
        reopened.rules_removed()
        diff = reopened.diff(set())
        reopened.retire(diff, (parse_rule(RULE.replace("pictures@", "photos@"),
                                          author="Jules"),))
        assert diff.retired == [("Emilien", shape_of(binding.relation))]

    def test_rejects_foreign_delegations(self):
        tracker = DelegationTracker("Julia")
        foreign = bind(tracker, self.rule, "Emilien", "x")
        with pytest.raises(DelegationError):
            tracker.diff({foreign})

    def test_a_restored_tracker_sends_everything_again(self):
        binding = bind(self.tracker, self.rule, "Emilien", "x")
        gone = Fact(binding_relation("deleg-gone"), "Julia", (1,))
        self.tracker.restore([binding, gone])
        diff = self.tracker.diff({binding})
        assert [d.binding for d in diff.to_install] == [binding]
        assert len(diff.templates) == 1
        assert [d.binding for d in diff.to_retract] == [gone]
        assert diff.retired == [("Julia", "deleg-gone")]


class TestDelegationStore:
    def test_a_template_enters_the_program_when_activated(self):
        store = DelegationStore("Emilien")
        rule = parse_rule("v@Jules($x) :- _bind_s@Emilien($x), pictures@Emilien($x)",
                          author="Jules")
        assert store.learn("s", "Jules", rule)
        assert "s" in store and len(store) == 0 and store.rules() == ()
        store.activate("s")
        assert len(store) == 1 and store.rules() == (rule,)
        assert not store.learn("s", "Jules", rule)
        store.deactivate("s")
        assert store.rules() == () and store.get("s").rule is rule
        assert store.forget("s").delegator == "Jules"
        assert store.forget("s") is None

    def test_a_held_template_is_never_taken_over_nor_changed(self):
        store = DelegationStore("Emilien")
        rule = parse_rule("v@Jules($x) :- _bind_s@Emilien($x), pictures@Emilien($x)",
                          author="Jules")
        forged = parse_rule("v@Jules($x) :- _bind_s@Emilien($x), secret@Emilien($x)",
                            author="Mallory")
        store.learn("s", "Jules", rule)
        store.activate("s")
        assert not store.learn("s", "Mallory", forged)
        assert not store.learn("s", "Jules", forged)
        assert store.rules() == (rule,) and store.holds("s", "Jules", rule)
        assert not store.holds("s", "Mallory", forged)
        # A rule delegated whole is replaced by its own delegator only.
        whole = parse_rule("w@Jules($x) :- pictures@Emilien($x)", author="Jules")
        other = parse_rule("w@Jules($x) :- secret@Emilien($x)", author="Jules")
        store.learn("w", "Jules", whole, whole=True)
        assert not store.learn("w", "Mallory", other, whole=True)
        assert store.learn("w", "Jules", other, whole=True)
        assert store.get("w").rule is other

    def test_rules_come_in_shape_order(self):
        store = DelegationStore("Emilien")
        for shape in ("c", "a", "b"):
            store.learn(shape, "Jules", parse_rule(f"{shape}@Jules($x) :- p@Emilien($x)",
                                                   author="Jules"), whole=True)
            store.activate(shape)
        assert [held.delegation_id for held in store.active()] == ["a", "b", "c"]
        assert [rule.head.relation_constant() for rule in store.rules()] == ["a", "b", "c"]
        assert store.is_whole("a")
