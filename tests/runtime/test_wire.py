"""Round-trip tests of the one codec: on the wire and through the durable store."""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema
from repro.core.state import PeerState
from repro.core.terms import Constant, Variable
from repro.provenance.graph import Derivation
from repro.runtime import wire
from repro.runtime.messages import FactMessage, message_from_wire
from repro.store.backend import resolve_backend

#: Every value type the engine stores — bytes-valued picture contents (which
#: must survive the hex detour exactly), non-finite floats (which strict JSON
#: cannot spell) and the values JSON must keep apart: ``True``/``1``/``1.0``.
values = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-2**40, max_value=2**40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.binary(max_size=24),
    st.sampled_from([True, 1, 1.0, None, False, 0, 0.0, -0.0, ""]),
)

names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
    min_size=1, max_size=8,
)

facts = st.builds(
    Fact,
    relation=names, peer=names,
    values=st.tuples(values, values),
)

derivations = st.builds(
    Derivation,
    fact=facts,
    rule_id=names,
    support=st.lists(facts, max_size=4).map(tuple),
    author=st.one_of(st.none(), names),
)

#: A delegated rule: a head at its delegator, one body atom with a constant
#: of any stored type (the bound value of the delegator's evaluated prefix).
rules = st.builds(
    lambda head, body, value, author, rule_id: Rule(
        head=Atom(Constant(head), Constant(author), (Variable("x"),)),
        body=(Atom(Constant(body), Constant("b"), (Variable("x"), Constant(value))),),
        author=author, rule_id=rule_id),
    names, names, values, names, names,
)

schemas = st.builds(
    RelationSchema,
    name=names, peer=names, columns=st.just(("x", "y")),
    kind=st.sampled_from(RelationKind), persistent=st.booleans(),
    key=st.sampled_from([(), ("x",)]),
)

installs = st.tuples(names, rules, st.lists(schemas, max_size=2).map(tuple))


def typed(values):
    """Values as (type, repr): bit-exact for floats — ``nan`` equals itself,
    ``-0.0`` differs from ``0.0`` — and ``True``/``1``/``1.0`` stay apart."""
    return [(type(value), repr(value)) for value in values]


def same_fact(left: Fact, right: Fact) -> bool:
    return ((left.relation, left.peer, typed(left.values))
            == (right.relation, right.peer, typed(right.values)))


def same_derivation(left: Derivation, right: Derivation) -> bool:
    return ((left.rule_id, left.author, len(left.support))
            == (right.rule_id, right.author, len(right.support))
            and same_fact(left.fact, right.fact)
            and all(map(same_fact, left.support, right.support)))


def constants_of(rule: Rule):
    return typed(term.value for atom in (rule.head, *rule.body)
                 for term in atom.args if isinstance(term, Constant))


def through_json(encoded):
    """What a socket, a log line or a database column does to a payload."""
    return json.loads(json.dumps(encoded, allow_nan=False))


class TestValueEncoding:
    @pytest.mark.parametrize("value", ["text", 42, -1, 3.5, True, False, None])
    def test_scalar_roundtrip(self, value):
        encoded = codec.encode_value(value)
        assert codec.decode_value(through_json(encoded)) == value

    def test_bytes_roundtrip(self):
        encoded = codec.encode_value(b"\x00\x01\xff")
        assert codec.decode_value(through_json(encoded)) == b"\x00\x01\xff"

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            codec.encode_value(object())


class TestTermEncoding:
    def test_variable_roundtrip(self):
        term = Variable("attendee")
        assert codec.decode_term(codec.encode_term(term)) == term

    @pytest.mark.parametrize("value", ["x", 7, 2.5, True, None, b"\x01"])
    def test_constant_roundtrip_preserves_type(self, value):
        term = Constant(value)
        decoded = codec.decode_term(codec.encode_term(term))
        assert decoded == term
        assert type(decoded.value) is type(value)

    def test_bool_int_distinction_survives(self):
        one = codec.decode_term(codec.encode_term(Constant(1)))
        true = codec.decode_term(codec.encode_term(Constant(True)))
        assert one != true


class TestFactEncoding:
    def test_roundtrip(self):
        fact = Fact("pictures", "sigmod", (32, "sea.jpg", "Emilien", True, None, 4.5))
        encoded = codec.encode_fact(fact)
        json.dumps(encoded)
        assert codec.decode_fact(encoded) == fact

    def test_type_distinction_in_values(self):
        fact = Fact("r", "p", (1, True))
        decoded = codec.decode_fact(codec.encode_fact(fact))
        assert decoded.values[0] == 1 and decoded.values[0] is not True
        assert decoded.values[1] is True


class TestAtomAndRuleEncoding:
    def test_atom_roundtrip(self):
        atom = Atom.of("pictures", "$attendee", "$id", "sea.jpg", negated=True)
        decoded = codec.decode_atom(codec.encode_atom(atom))
        assert decoded == atom

    def test_rule_roundtrip_preserves_metadata(self):
        rule = parse_rule(
            "attendeePictures@Jules($id, $n) :- "
            "selectedAttendee@Jules($a), pictures@$a($id, $n)",
            author="Jules",
        )
        encoded = codec.encode_rule(rule)
        json.dumps(encoded)
        decoded = codec.decode_rule(encoded)
        assert decoded.head == rule.head
        assert decoded.body == rule.body
        assert decoded.author == "Jules"
        assert decoded.rule_id == rule.rule_id

    def test_schema_roundtrip(self):
        schema = RelationSchema("attendeePictures", "Jules", ("id", "name"),
                                kind=RelationKind.INTENSIONAL, persistent=False,
                                key=("id",))
        decoded = codec.decode_schema(codec.encode_schema(schema))
        assert decoded == schema


class TestDerivationEncoding:
    """Every derivation payload round-trips exactly (property-based)."""

    @given(derivations)
    @settings(max_examples=100, deadline=None)
    def test_derivation_roundtrip_exact(self, derivation):
        encoded = through_json(wire.encode_derivation(derivation))
        assert same_derivation(wire.decode_derivation(encoded), derivation)

    def test_derivation_with_picture_bytes(self):
        picture = Fact("pictures", "Emilien", (1, "sea.jpg", b"\x89PNG\x00\xff"))
        derivation = Derivation(
            fact=Fact("attendeePictures", "Jules", (1, "sea.jpg")),
            rule_id="rule-1", support=(picture,), author="Jules",
        )
        encoded = wire.encode_derivation(derivation)
        json.dumps(encoded)
        assert wire.decode_derivation(encoded) == derivation

    @given(st.lists(facts, max_size=3), st.lists(facts, max_size=3),
           st.lists(derivations, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_fact_message_with_derivations_roundtrip(self, inserted, deleted,
                                                     shipped):
        message = FactMessage(
            sender="a", recipient="b",
            inserted=frozenset(inserted), deleted=frozenset(deleted),
            derivations=tuple(shipped),
        )
        decoded = message_from_wire(through_json(message.to_wire()))
        for found, sent in ((decoded.inserted, message.inserted),
                            (decoded.deleted, message.deleted)):
            assert len(found) == len(sent)
            assert all(map(same_fact, sorted(found, key=str), sorted(sent, key=str)))
        assert all(map(same_derivation, decoded.derivations, message.derivations))
        assert decoded.payload_size() == message.payload_size()

    @given(st.lists(facts, max_size=2), st.lists(installs, max_size=3),
           st.lists(names, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_fact_message_with_installs_and_retracts_roundtrip(
            self, inserted, delegated, retracted):
        message = FactMessage(
            sender="a", recipient="b", inserted=frozenset(inserted),
            installs=tuple(delegated), retracts=tuple(retracted),
        )
        decoded = message_from_wire(through_json(message.to_wire()))
        assert len(decoded.installs) == len(message.installs)
        for (found_id, found, found_schemas), (sent_id, sent, sent_schemas) in zip(
                decoded.installs, message.installs):
            assert (found_id, found_schemas) == (sent_id, sent_schemas)
            assert ((found.rule_id, found.author, found.head, len(found.body))
                    == (sent.rule_id, sent.author, sent.head, len(sent.body)))
            assert constants_of(found) == constants_of(sent)
        assert decoded.retracts == message.retracts
        assert decoded.payload_size() == message.payload_size()
        assert [e[0] for e in decoded.effects()] == [e[0] for e in message.effects()]


class TestOneEncodingEverywhere:
    """A fact has one encoding: the wire payload, and what a SQLite-backed
    ``PeerState`` writes, are both read back by the shared functions."""

    def test_values_json_keeps_apart_stay_apart_side_by_side(self):
        fact = Fact("r", "p", (True, 1, 1.0, None, False, 0, 0.0, -0.0,
                               float("inf"), float("-inf"), float("nan"), b"\x00"))
        encoded = codec.encode_fact(fact)
        assert set(encoded) == {"relation", "peer", "values"}  # no type tags
        assert same_fact(codec.decode_fact(through_json(encoded)), fact)

    @given(facts)
    @settings(max_examples=100, deadline=None)
    def test_fact_roundtrip_exact(self, fact):
        assert same_fact(codec.decode_fact(through_json(codec.encode_fact(fact))), fact)

    def test_unknown_escape_is_rejected(self):
        with pytest.raises(ValueError):
            codec.decode_value({"$pickle": "00"})
        with pytest.raises(ValueError):
            codec.decode_term({"neither": 1})

    @given(st.lists(values, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_durable_records_decode_with_the_shared_functions(self, constants):
        rule = Rule(
            head=Atom(Constant("out"), Constant("q"),
                      (Variable("x"), *map(Constant, constants))),
            body=(Atom(Constant("r"), Constant("p"),
                       (Variable("x"), *map(Constant, constants))),),
            author="q", rule_id="rule-7",
        )
        schema = RelationSchema("r", "p", ("x", *(f"c{i}" for i in range(len(constants)))),
                                kind=RelationKind.EXTENSIONAL, key=("x",))
        with tempfile.TemporaryDirectory() as path:
            backend = resolve_backend("sqlite", peer="p", options={"path": path})
            state = PeerState("p", backend=backend)
            state.declare(schema)
            state.add_rule(rule)
            state.learn_template("deleg-1", "q", rule, whole=True)
            state.activate_template("deleg-1")
            state.commit()
            written = {kind: backend.load_meta(kind)
                       for kind in ("schema", "rule", "template")}
            state.close()

            (_, stored_schema), = written["schema"]
            (_, stored_rule), = written["rule"]
            (shape, stored_template), = written["template"]
            assert codec.decode_schema(json.loads(stored_schema)) == schema
            decoded = codec.decode_rule(json.loads(stored_rule))
            assert (decoded.head.relation, decoded.rule_id, decoded.author) \
                == (rule.head.relation, "rule-7", "q")
            assert constants_of(decoded) == constants_of(rule)
            record = json.loads(stored_template)
            assert (shape, record["delegator"], record["active"]) == ("deleg-1", "q", True)
            assert record["rule"] == json.loads(stored_rule) == through_json(
                codec.encode_rule(rule))

            backend = resolve_backend("sqlite", peer="p", options={"path": path})
            reopened = PeerState("p", backend=backend)
            try:
                assert reopened.restored
                assert {kind: backend.load_meta(kind) for kind in written} == written
                assert constants_of(reopened.own_rules[0]) == constants_of(rule)
                assert constants_of(reopened.delegations_in.rules()[0]) == constants_of(rule)
                assert reopened.schemas.get("r", "p") == schema
            finally:
                reopened.close()
