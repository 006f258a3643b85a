"""Tests of atoms, rules and the left-to-right safety conditions."""

import os
import subprocess
import sys

import pytest

from repro.core import codec
from repro.core.errors import SafetyError, SchemaError
from repro.core.parser import parse_rule
from repro.core.rules import Atom, Rule
from repro.core.terms import Constant, Variable


class TestAtom:
    def test_of_coerces_terms(self):
        atom = Atom.of("pictures", "$attendee", "$id", "sea.jpg", 3)
        assert atom.relation == Constant("pictures")
        assert atom.peer == Variable("attendee")
        assert atom.args == (Variable("id"), Constant("sea.jpg"), Constant(3))

    def test_location_constants(self):
        atom = Atom.of("r", "p", "$x")
        assert atom.relation_constant() == "r"
        assert atom.peer_constant() == "p"
        open_atom = Atom.of("$R", "$P")
        assert open_atom.relation_constant() is None
        assert open_atom.peer_constant() is None

    def test_location_must_be_string_constant_or_variable(self):
        with pytest.raises(SchemaError):
            Atom.of(3, "p")
        with pytest.raises(SchemaError):
            Atom.of("r", 3)

    def test_ground_checks(self):
        assert Atom.of("r", "p", 1, "x").is_ground()
        assert not Atom.of("r", "p", "$x").is_ground()
        assert Atom.of("r", "$p", 1).is_ground_location() is False

    def test_variables_in_order_of_first_occurrence(self):
        atom = Atom.of("$R", "$P", "$x", "$R", "$y")
        assert [v.name for v in atom.variables()] == ["R", "P", "x", "y"]
        assert [v.name for v in atom.argument_variables()] == ["x", "R", "y"]
        assert [v.name for v in atom.location_variables()] == ["R", "P"]

    def test_substitute(self):
        atom = Atom.of("pictures", "$a", "$id")
        bound = atom.substitute({Variable("a"): Constant("alice")})
        assert bound.peer_constant() == "alice"
        assert bound.args == (Variable("id"),)
        assert not bound.is_ground()
        assert bound.substitute({Variable("id"): Constant(1)}).is_ground()

    def test_positive(self):
        atom = Atom.of("r", "p", "$x")
        negated = Atom.of("r", "p", "$x", negated=True)
        assert negated.negated
        assert negated.positive() == atom

    def test_to_fact_requires_ground(self):
        assert Atom.of("r", "p", 1).to_fact().values == (1,)
        with pytest.raises(SchemaError):
            Atom.of("r", "p", "$x").to_fact()

    def test_str_rendering(self):
        atom = Atom.of("pictures", "$a", "$id", "x", negated=True)
        assert str(atom) == 'not pictures@$a($id, "x")'


class TestRuleSafety:
    def test_simple_safe_rule(self):
        rule = Rule(
            head=Atom.of("view", "alice", "$x"),
            body=(Atom.of("base", "alice", "$x"),),
        )
        rule.check_safety()

    def test_head_variable_must_be_bound(self):
        rule = Rule(
            head=Atom.of("view", "alice", "$x", "$y"),
            body=(Atom.of("base", "alice", "$x"),),
        )
        with pytest.raises(SafetyError):
            rule.check_safety()

    def test_peer_variable_must_be_bound_before_use(self):
        # The paper's attendee-pictures rule: $attendee is bound by the first literal.
        good = Rule(
            head=Atom.of("attendeePictures", "Jules", "$id"),
            body=(
                Atom.of("selectedAttendee", "Jules", "$attendee"),
                Atom.of("pictures", "$attendee", "$id"),
            ),
        )
        good.check_safety()
        # Swapping the body literals breaks left-to-right safety.
        bad = Rule(
            head=Atom.of("attendeePictures", "Jules", "$id"),
            body=(
                Atom.of("pictures", "$attendee", "$id"),
                Atom.of("selectedAttendee", "Jules", "$attendee"),
            ),
        )
        with pytest.raises(SafetyError):
            bad.check_safety()

    def test_negated_variables_must_be_bound(self):
        bad = Rule(
            head=Atom.of("view", "p", "$x"),
            body=(
                Atom.of("base", "p", "$x"),
                Atom.of("banned", "p", "$y", negated=True),
            ),
        )
        with pytest.raises(SafetyError):
            bad.check_safety()
        good = Rule(
            head=Atom.of("view", "p", "$x"),
            body=(
                Atom.of("base", "p", "$x"),
                Atom.of("banned", "p", "$x", negated=True),
            ),
        )
        good.check_safety()

    def test_negated_head_rejected(self):
        with pytest.raises(SafetyError):
            Rule(head=Atom.of("view", "p", "$x", negated=True),
                 body=(Atom.of("base", "p", "$x"),))

    def test_empty_body_rejected(self):
        with pytest.raises(SafetyError):
            Rule(head=Atom.of("view", "p", 1), body=())

    def test_relation_variable_binding(self):
        # $protocol is bound by the communicate literal before being used as a
        # relation name in the head; this is checked at head-binding time.
        rule = Rule(
            head=Atom.of("$protocol", "$attendee", "$attendee"),
            body=(
                Atom.of("selectedAttendee", "Jules", "$attendee"),
                Atom.of("communicate", "$attendee", "$protocol"),
            ),
        )
        rule.check_safety()


class TestRuleOperations:
    def make_rule(self) -> Rule:
        return Rule(
            head=Atom.of("attendeePictures", "Jules", "$id", "$name"),
            body=(
                Atom.of("selectedAttendee", "Jules", "$attendee"),
                Atom.of("pictures", "$attendee", "$id", "$name"),
            ),
            author="Jules",
        )

    def test_variables_in_order(self):
        rule = self.make_rule()
        assert [v.name for v in rule.variables()] == ["attendee", "id", "name"]

    def test_substitute_keeps_metadata(self):
        rule = self.make_rule()
        bound = rule.substitute({Variable("attendee"): Constant("Emilien")})
        assert bound.rule_id == rule.rule_id
        assert bound.author == "Jules"
        assert bound.body[1].peer_constant() == "Emilien"

    def test_canonical_key_ignores_variable_names_and_metadata(self):
        rule_a = Rule(head=Atom.of("v", "p", "$x"), body=(Atom.of("b", "p", "$x"),))
        rule_b = Rule(head=Atom.of("v", "p", "$other"), body=(Atom.of("b", "p", "$other"),),
                      author="someone")
        assert rule_a.canonical_key() == rule_b.canonical_key()
        different = Rule(head=Atom.of("v", "p", "$x"), body=(Atom.of("c", "p", "$x"),))
        assert rule_a.canonical_key() != different.canonical_key()

    def test_str_rendering(self):
        rule = self.make_rule()
        assert ":-" in str(rule)
        assert "pictures@$attendee" in str(rule)



class TestContentIds:
    """A rule built without an id is named by its content."""

    TEXT = "rule attendeePictures@Jules($id) :- selectedAttendee@Jules($a), pictures@$a($id)"

    def test_two_parses_of_one_text_give_one_id(self):
        first = parse_rule(self.TEXT, author="Jules")
        second = parse_rule(self.TEXT, author="Jules")
        assert first is not second and first.rule_id == second.rule_id
        assert first == second

    def test_a_codec_round_trip_keeps_the_id(self):
        rule = parse_rule(self.TEXT, author="Jules")
        assert codec.decode_rule(codec.encode_rule(rule)) == rule
        rebuilt = Rule(head=rule.head, body=rule.body, author=rule.author)
        assert rebuilt.rule_id == rule.rule_id

    def test_ones_of_three_types_give_three_ids(self):
        ids = {Rule(head=Atom.of("v", "p", "$x"),
                    body=(Atom.of("b", "p", "$x", constant),)).rule_id
               for constant in (1, 1.0, True)}
        assert len(ids) == 3

    def test_author_and_origin_are_content(self):
        head, body = Atom.of("v", "p", "$x"), (Atom.of("b", "p", "$x"),)
        ids = {Rule(head=head, body=body).rule_id,
               Rule(head=head, body=body, author="p").rule_id,
               Rule(head=head, body=body, author="p", origin="rule-1").rule_id}
        assert len(ids) == 3

    def test_an_explicit_id_is_kept(self):
        rule = Rule(head=Atom.of("v", "p", "$x"), body=(Atom.of("b", "p", "$x"),),
                    rule_id="mine")
        assert rule.rule_id == "mine"
        assert rule.substitute({}).rule_id == "mine"

    def test_the_id_is_the_same_under_every_hash_seed(self):
        script = ("from repro.core.parser import parse_rule; "
                  f"print(parse_rule({self.TEXT!r}, author='Jules').rule_id)")
        src = os.path.join(os.path.dirname(codec.__file__), os.pardir, os.pardir)
        ids = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.abspath(src))
            ids.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                   capture_output=True, text=True).stdout.strip())
        assert ids == {parse_rule(self.TEXT, author="Jules").rule_id}
