"""Tests of matching (one-way unification against ground facts)."""

import pytest

from repro.core.facts import Fact
from repro.core.rules import Atom
from repro.core.terms import Constant, Variable
from repro.core.unification import match_atom_fact


class TestArgumentMatching:
    """One argument position at a time, through the one matcher."""

    def test_constant_matches_equal_constant(self):
        atom = Atom.of("r", "p", 3)
        assert match_atom_fact(atom, Fact("r", "p", (3,))) == {}
        assert match_atom_fact(atom, Fact("r", "p", (4,))) is None

    def test_type_sensitivity(self):
        for pattern, value in ((1, True), (True, 1), (1, 1.0), (1.0, 1),
                               ("1", b"1"), (0, None), (None, 0)):
            atom = Atom(Constant("r"), Constant("p"), (Constant(pattern),))
            assert match_atom_fact(atom, Fact("r", "p", (value,))) is None
            assert match_atom_fact(atom, Fact("r", "p", (pattern,))) == {}

    def test_variable_binds(self):
        result = match_atom_fact(Atom.of("r", "p", "$x"), Fact("r", "p", ("a",)))
        assert result == {Variable("x"): Constant("a")}

    def test_rebound_variable_must_agree_by_value_and_type(self):
        atom = Atom.of("r", "p", "$x")
        binding = {Variable("x"): Constant("a")}
        assert match_atom_fact(atom, Fact("r", "p", ("a",)), binding) == binding
        assert match_atom_fact(atom, Fact("r", "p", ("b",)), binding) is None
        assert match_atom_fact(atom, Fact("r", "p", (True,)),
                               {Variable("x"): Constant(1)}) is None

    def test_input_substitution_not_mutated_by_a_failed_match(self):
        binding = {}
        assert match_atom_fact(Atom.of("r", "p", "$x", 2),
                               Fact("r", "p", (1, 3)), binding) is None
        assert binding == {}


class TestMatchAtomFact:
    def test_simple_match(self):
        atom = Atom.of("pictures", "alice", "$id", "$name")
        fact = Fact("pictures", "alice", (1, "sea.jpg"))
        result = match_atom_fact(atom, fact)
        assert result == {Variable("id"): Constant(1), Variable("name"): Constant("sea.jpg")}

    def test_peer_variable_binds_to_fact_peer(self):
        atom = Atom.of("pictures", "$attendee", "$id")
        fact = Fact("pictures", "Emilien", (7,))
        result = match_atom_fact(atom, fact)
        assert result[Variable("attendee")] == Constant("Emilien")

    def test_relation_variable_binds_to_fact_relation(self):
        atom = Atom.of("$R", "alice", "$x")
        fact = Fact("rate", "alice", (5,))
        result = match_atom_fact(atom, fact)
        assert result[Variable("R")] == Constant("rate")

    def test_mismatched_relation_fails(self):
        atom = Atom.of("pictures", "alice", "$x")
        assert match_atom_fact(atom, Fact("rate", "alice", (1,))) is None

    def test_arity_mismatch_fails(self):
        atom = Atom.of("r", "p", "$x")
        assert match_atom_fact(atom, Fact("r", "p", (1, 2))) is None

    def test_repeated_variable_requires_equal_values(self):
        atom = Atom.of("edge", "p", "$x", "$x")
        assert match_atom_fact(atom, Fact("edge", "p", (1, 1))) is not None
        assert match_atom_fact(atom, Fact("edge", "p", (1, 2))) is None

    def test_existing_substitution_constrains_match(self):
        atom = Atom.of("pictures", "$a", "$id")
        fact = Fact("pictures", "Emilien", (7,))
        constrained = {Variable("a"): Constant("Jules")}
        assert match_atom_fact(atom, fact, constrained) is None

    def test_negated_atom_rejected(self):
        atom = Atom.of("r", "p", "$x", negated=True)
        with pytest.raises(ValueError):
            match_atom_fact(atom, Fact("r", "p", (1,)))

    def test_peer_constant_must_equal_fact_peer(self):
        atom = Atom.of("pictures", "alice", "$id")
        assert match_atom_fact(atom, Fact("pictures", "bob", (7,))) is None

    def test_constant_argument_selects_by_value_and_type(self):
        atom = Atom.of("rate", "alice", 1, "$score")
        assert match_atom_fact(atom, Fact("rate", "alice", (1, 5))) == {
            Variable("score"): Constant(5)}
        assert match_atom_fact(atom, Fact("rate", "alice", (2, 5))) is None
        assert match_atom_fact(atom, Fact("rate", "alice", (True, 5))) is None

    def test_agreeing_substitution_is_extended_not_replaced(self):
        atom = Atom.of("pictures", "$a", "$id")
        fact = Fact("pictures", "Emilien", (7,))
        given = {Variable("a"): Constant("Emilien"), Variable("other"): Constant(0)}
        assert match_atom_fact(atom, fact, given) == {
            Variable("a"): Constant("Emilien"), Variable("other"): Constant(0),
            Variable("id"): Constant(7)}

    def test_given_substitution_is_not_mutated(self):
        given = {Variable("a"): Constant("Emilien")}
        match_atom_fact(Atom.of("pictures", "$a", "$id"),
                        Fact("pictures", "Emilien", (7,)), given)
        assert given == {Variable("a"): Constant("Emilien")}

    def test_variable_shared_by_peer_and_argument(self):
        atom = Atom.of("owner", "$p", "$p")
        assert match_atom_fact(atom, Fact("owner", "alice", ("alice",))) == {
            Variable("p"): Constant("alice")}
        assert match_atom_fact(atom, Fact("owner", "alice", ("bob",))) is None
