"""Tests of the message types and their wire round-trips."""

import json

import pytest

from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema
from repro.replication.dots import Op
from repro.runtime.messages import (
    DelegationInstallMessage,
    DelegationRetractMessage,
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


class TestDelegationMessages:
    def test_install_roundtrip_with_schemas(self):
        rule = parse_rule("v@Jules($x) :- pictures@Emilien($x)", author="Jules")
        message = DelegationInstallMessage(
            sender="Jules", recipient="Emilien",
            delegation_id="deleg-42", rule=rule,
            schemas=(RelationSchema("v", "Jules", ("x",), kind=RelationKind.INTENSIONAL),),
        )
        decoded = message_from_wire(message.to_wire())
        assert isinstance(decoded, DelegationInstallMessage)
        assert decoded.delegation_id == "deleg-42"
        assert decoded.rule.head.relation_constant() == "v"
        assert decoded.schemas[0].kind is RelationKind.INTENSIONAL
        assert message.payload_size() == 2  # rule + one schema

    def test_retract_roundtrip(self):
        message = DelegationRetractMessage(sender="Jules", recipient="Emilien",
                                           delegation_id="deleg-42")
        decoded = message_from_wire(message.to_wire())
        assert isinstance(decoded, DelegationRetractMessage)
        assert decoded.delegation_id == "deleg-42"


class TestControlMessages:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            message_from_wire({"kind": "Bogus", "sender": "a", "recipient": "b"})

    def test_every_message_kind_has_a_wire_branch(self):
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
