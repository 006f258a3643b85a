"""Tests of the message types and their wire round-trips."""

import json

import pytest

from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema
from repro.replication.dots import Op
from repro.provenance.graph import Derivation
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    Message,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
    message_from_wire,
)


class TestFactMessage:
    def test_payload_size_counts_facts(self):
        message = FactMessage(
            sender="a", recipient="b",
            inserted=frozenset({Fact("r", "b", (1,)), Fact("r", "b", (2,))}),
            deleted=frozenset({Fact("r", "b", (3,))}),
        )
        assert message.payload_size() == 3
        assert message.kind() == "FactMessage"

    def test_wire_roundtrip(self):
        message = FactMessage(
            sender="alice", recipient="bob",
            inserted=frozenset({Fact("pictures", "bob", (1, "sea.jpg"))}),
            deleted=frozenset({Fact("pictures", "bob", (2, "old.jpg"))}),
        )
        encoded = message.to_wire()
        json.dumps(encoded)
        decoded = message_from_wire(encoded)
        assert isinstance(decoded, FactMessage)
        assert decoded.inserted == message.inserted
        assert decoded.deleted == message.deleted
        assert decoded.sender == "alice" and decoded.recipient == "bob"

    def test_installs_and_retracts_roundtrip(self):
        rule = parse_rule("v@Jules($x) :- pictures@Emilien($x)", author="Jules")
        message = FactMessage(
            sender="Jules", recipient="Emilien",
            installs=(("deleg-42", rule, (RelationSchema(
                "v", "Jules", ("x",), kind=RelationKind.INTENSIONAL),)),),
            retracts=("deleg-41",),
        )
        decoded = message_from_wire(json.loads(json.dumps(message.to_wire())))
        assert decoded == message
        ((delegation_id, decoded_rule, schemas),) = decoded.installs
        assert delegation_id == "deleg-42"
        assert decoded_rule.head.relation_constant() == "v"
        assert schemas[0].kind is RelationKind.INTENSIONAL
        assert decoded.retracts == ("deleg-41",)
        assert message.payload_size() == 3  # rule + one schema + one retract

    def test_a_message_without_delegations_encodes_as_before(self):
        # The gossip overlay's payload: the new fields are written only when
        # non-empty, so a fact update's wire form is byte for byte what it
        # was before delegations joined the message.
        message = FactMessage(
            sender="peer0", recipient="peer1", message_id="peer0#7",
            inserted=frozenset({Fact("pictures", "peer1", (1, "sea.jpg")),
                                Fact("pictures", "peer1", (2, b"\x00"))}),
            deleted=frozenset({Fact("pictures", "peer1", (0, 1.5))}),
            derivations=(Derivation(
                fact=Fact("pictures", "peer1", (1, "sea.jpg")), rule_id="rule-3",
                support=(Fact("src", "peer0", (1,)),), author="peer0"),),
        )
        assert json.dumps(message.to_wire()) == (
            '{"kind": "FactMessage", "sender": "peer0", "recipient": "peer1", '
            '"message_id": "peer0#7", "inserted": [{"relation": "pictures", '
            '"peer": "peer1", "values": [1, "sea.jpg"]}, {"relation": "pictures", '
            '"peer": "peer1", "values": [2, {"$bytes": "00"}]}], "deleted": '
            '[{"relation": "pictures", "peer": "peer1", "values": [0, 1.5]}], '
            '"derivations": [{"fact": {"relation": "pictures", "peer": "peer1", '
            '"values": [1, "sea.jpg"]}, "rule_id": "rule-3", "support": '
            '[{"relation": "src", "peer": "peer0", "values": [1]}], '
            '"author": "peer0"}]}')
        empty = FactMessage(sender="peer0", recipient="peer1", message_id="peer0#8")
        assert json.dumps(empty.to_wire()) == (
            '{"kind": "FactMessage", "sender": "peer0", "recipient": "peer1", '
            '"message_id": "peer0#8", "inserted": [], "deleted": [], '
            '"derivations": []}')

    def test_effects_come_in_the_order_an_inbox_emits_them(self):
        rule = parse_rule("v@Jules($x) :- pictures@Emilien($x)", author="Jules")
        shipped = Fact("pictures", "Emilien", (1,))
        earlier = Fact("pictures", "Emilien", (0,))
        derivations = (Derivation(fact=shipped, rule_id="r1", support=()),
                       Derivation(fact=earlier, rule_id="r2", support=()))
        message = FactMessage(
            sender="Jules", recipient="Emilien", inserted=frozenset({shipped}),
            deleted=frozenset({Fact("pictures", "Emilien", (2,))}),
            derivations=derivations, installs=(("d2", rule, ()),), retracts=("d1",))
        assert message.effects() == [
            ("insert", shipped), ("delete", Fact("pictures", "Emilien", (2,))),
            ("derivation", derivations[0], True), ("derivation", derivations[1], False),
            ("delegate", "d2", rule, ()), ("undelegate", "d1")]


class TestControlMessages:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            message_from_wire({"kind": "Bogus", "sender": "a", "recipient": "b"})

    def test_every_message_kind_has_a_wire_branch(self):
        # One stage update and four replication payloads.
        assert {cls.__name__ for cls in Message.__subclasses__()} == {
            "FactMessage", "DeltaEnvelopeMessage", "ReplicationDigestMessage",
            "ReplicationPullMessage", "ReplicationAckMessage"}
        for cls in Message.__subclasses__():
            message = cls(sender="a", recipient="b")
            decoded = message_from_wire(json.loads(json.dumps(message.to_wire())))
            assert type(decoded) is cls
            assert decoded == message


REPLICATION_MESSAGES = {
    "envelope": DeltaEnvelopeMessage(
        sender="alice", recipient="bob", frontier=3,
        ops=(Op(seq=2, kind="insert", fact=Fact("pictures", "bob", (1, "sea.jpg"))),
             Op(seq=3, kind="delete", fact=Fact("pictures", "bob", (0, "old.jpg")),
                removed=(1,)),
             Op(seq=4, kind="delegate", delegation_id="d1",
                rule=parse_rule("v@alice($x) :- r@bob($x)", author="alice")),
             Op(seq=5, kind="undelegate", delegation_id="d0"))),
    "digest": ReplicationDigestMessage(sender="alice", recipient="bob", frontier=9),
    "pull": ReplicationPullMessage(sender="bob", recipient="alice", want=(4, 7)),
    "ack": ReplicationAckMessage(sender="bob", recipient="alice", acked=6),
}


class TestReplicationMessages:
    @pytest.mark.parametrize("name", sorted(REPLICATION_MESSAGES))
    def test_wire_roundtrip(self, name):
        message = REPLICATION_MESSAGES[name]
        decoded = message_from_wire(json.loads(json.dumps(message.to_wire())))
        assert decoded == message
        assert decoded.kind() == type(message).__name__
        assert decoded.payload_size() == message.payload_size()


class TestBatching:
    def test_message_ids_unique(self):
        first = FactMessage(sender="a", recipient="b")
        second = FactMessage(sender="a", recipient="b")
        assert first.message_id != second.message_id
