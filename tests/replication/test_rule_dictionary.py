"""Each rule id is sent once per causal channel.

A derivation op names its rule while no op naming it has been acknowledged;
after that it gives only the channel's index of the rule, which the
receiving inbox resolves from its dictionary.  Both dictionaries ride the
channel headers, so a reopen keeps them.  What the receiver records must be
the derivation the sender shipped, through a loss, a duplicate and a reopen.
"""

import json

from repro.core.facts import Fact
from repro.provenance.graph import Derivation
from repro.replication.channel import ChannelInbox, ChannelOutbox
from repro.replication.state import ReplicationState
from repro.runtime import wire
from repro.runtime.messages import DeltaEnvelopeMessage, message_from_wire
from repro.store.memory import MemoryBackend

RULE = "rule-0123456789abcdef"


class DurableMemory(MemoryBackend):
    """A memory backend that says it persists: its meta rows survive in
    the object, which a second state restores from."""

    persistent = True


def derivation(value, rule_id=RULE):
    return Derivation(fact=Fact("out", "b", (value,)), rule_id=rule_id,
                      support=(Fact("src", "a", (value,)),), author="a")


def over_the_wire(op):
    """``op`` as a receiver decodes it."""
    return wire.decode_op(json.loads(json.dumps(wire.encode_op(op))))


def shipped(effects):
    return [(kind, d.key()) for kind, d, _ in effects]


class TestOneChannel:
    def test_the_id_travels_until_acknowledged_then_the_index(self):
        box, inbox = ChannelOutbox("b"), ChannelInbox("a")
        first = box.derivation(derivation(1), anchor=True)
        second = box.derivation(derivation(2), anchor=True)
        other = box.derivation(derivation(3, "rule-other"), anchor=True)
        assert [(op.rule_index, op.named) for op in (first, second, other)] == [
            (1, True), (1, True), (2, True)]
        assert "rule_id" in wire.encode_op(second)["derivation"]

        # The first op is lost: the second one names the rule all the same.
        assert shipped(inbox.apply(over_the_wire(second))) == [
            ("derivation", derivation(2).key())]
        assert shipped(inbox.apply(over_the_wire(first))) == [
            ("derivation", derivation(1).key())]
        inbox.apply(over_the_wire(other))
        box.ack(3)

        third = box.derivation(derivation(4), anchor=False)
        assert (third.rule_index, third.named) == (1, False)
        encoded = wire.encode_op(third)
        assert "rule_id" not in encoded["derivation"] and encoded["rule_index"] == 1
        decoded = over_the_wire(third)
        assert decoded.derivation.rule_id == ""
        assert shipped(inbox.apply(decoded)) == [("derivation", derivation(4).key())]
        # A duplicate is absorbed, as every op is.
        assert inbox.apply(over_the_wire(third)) == []

    def test_the_wire_form_is_shorter_once_acknowledged(self):
        box = ChannelOutbox("b")
        named = box.derivation(derivation(1), anchor=True)
        box.ack(1)
        indexed = box.derivation(derivation(1), anchor=True)
        size = lambda op: len(json.dumps(wire.encode_op(op)))  # noqa: E731
        assert size(indexed) < size(named) - len(RULE)


class TestAReopenKeepsBothDictionaries:
    def test_sender_and_receiver_restart_and_keep_resolving(self):
        sender_store, receiver_store = DurableMemory(), DurableMemory()
        sender = ReplicationState("a", journal=True)
        receiver = ReplicationState("b", journal=True)

        def deliver(state, messages):
            return [effect for message in messages
                    for effect in state.apply_envelope(
                        message_from_wire(json.loads(json.dumps(message.to_wire()))), 0)]

        box = sender.outbox("b")
        box.derivation(derivation(1), anchor=True)
        sender._refile_outbox(box)
        effects = deliver(receiver, sender.flush(0))
        assert shipped(effects) == [("derivation", derivation(1).key())]
        box.ack(receiver.inbox("a").cc.base)
        sender.persist(sender_store)
        receiver.persist(receiver_store)

        sender, receiver = ReplicationState("a", journal=True), ReplicationState("b", journal=True)
        sender.restore(sender_store)
        receiver.restore(receiver_store)
        box = sender.outbox("b")
        op = box.derivation(derivation(2), anchor=True)
        assert (op.rule_index, op.named) == (1, False)
        sender._refile_outbox(box)
        messages = [m for m in sender.flush(0) if isinstance(m, DeltaEnvelopeMessage)]
        assert shipped(deliver(receiver, messages)) == [("derivation", derivation(2).key())]
