"""Tests of the term model (constants, variables, coercion)."""

import copy
import pickle

import pytest

from repro.core.terms import Constant, Variable, make_term


class TestConstant:
    def test_wraps_plain_values(self):
        assert Constant("sea.jpg").value == "sea.jpg"
        assert Constant(42).value == 42
        assert Constant(3.5).value == 3.5
        assert Constant(True).value is True
        assert Constant(None).value is None
        assert Constant(b"\x01\x02").value == b"\x01\x02"

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            Constant(["list"])
        with pytest.raises(TypeError):
            Constant({"a": 1})

    def test_equality_is_type_sensitive(self):
        assert Constant(1) == Constant(1)
        assert Constant(1) != Constant(True)
        assert Constant(1) != Constant(1.0)
        assert Constant("1") != Constant(1)

    def test_hash_consistent_with_equality(self):
        assert hash(Constant("x")) == hash(Constant("x"))
        assert len({Constant(1), Constant(True), Constant(1)}) == 2

    def test_string_rendering_quotes_strings(self):
        assert str(Constant("sea.jpg")) == '"sea.jpg"'
        assert str(Constant(7)) == "7"

    def test_string_rendering_escapes_quotes(self):
        assert str(Constant('he said "hi"')) == '"he said \\"hi\\""'


class TestVariable:
    def test_strips_leading_dollar(self):
        assert Variable("$x").name == "x"
        assert Variable("x").name == "x"

    def test_rejects_empty_names(self):
        with pytest.raises((TypeError, ValueError)):
            Variable("")
        with pytest.raises(ValueError):
            Variable("$")

    def test_equality_and_hash(self):
        assert Variable("x") == Variable("$x")
        assert Variable("x") != Variable("y")
        assert len({Variable("x"), Variable("$x")}) == 1

    def test_str_renders_with_dollar(self):
        assert str(Variable("attendee")) == "$attendee"

    def test_copies_rebuild_from_the_name(self):
        # A variable keeps its hash: a copy (or a pickle read in another
        # process) must hash as a variable of that name built there.
        for clone in (pickle.loads(pickle.dumps(Variable("x"))),
                      copy.deepcopy(Variable("x")), copy.copy(Variable("x"))):
            assert clone == Variable("x") and hash(clone) == hash(Variable("x"))
            assert {clone: 1}[Variable("x")] == 1

    def test_anonymous_detection(self):
        assert Variable("_").is_anonymous()
        assert Variable("_anon3").is_anonymous()
        assert not Variable("x").is_anonymous()

    def test_variable_differs_from_constant(self):
        assert Variable("x") != Constant("x")
        assert Constant("x") != Variable("x")


class TestMakeTerm:
    def test_passthrough_of_terms(self):
        constant = Constant(3)
        assert make_term(constant) is constant
        variable = Variable("x")
        assert make_term(variable) is variable

    def test_dollar_strings_become_variables(self):
        term = make_term("$attendee")
        assert isinstance(term, Variable)
        assert term.name == "attendee"

    def test_plain_values_become_constants(self):
        assert make_term("alice") == Constant("alice")
        assert make_term(5) == Constant(5)
        assert make_term(None) == Constant(None)
