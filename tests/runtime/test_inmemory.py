"""Tests of the in-memory network (delivery, latency, loss, accounting)."""

import pytest

from repro.core.errors import TransportError
from repro.core.facts import Fact
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.messages import FactMessage


def make_message(sender="alice", recipient="bob", value=1):
    return FactMessage(sender=sender, recipient=recipient,
                       inserted=frozenset({Fact("r", recipient, (value,))}))


class TestRegistration:
    def test_register_and_peers(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob", address="host:1")
        assert network.peers() == ("alice", "bob")
        assert network.is_registered("alice")
        assert network.address_of("bob") == "host:1"
        assert network.address_of("carol") is None

    def test_send_to_unknown_peer_raises(self):
        network = InMemoryTransport()
        network.register("alice")
        with pytest.raises(TransportError):
            network.send(make_message(recipient="nobody"))

    def test_unregister_drops_in_flight(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob")
        network.send(make_message())
        network.unregister("bob")
        assert network.stats.messages_dropped == 1
        assert network.pending_count() == 0


class TestDelivery:
    def test_default_latency_one_round(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob")
        network.send(make_message())
        # Not deliverable in the sending round.
        assert network.receive("bob") == []
        network.advance_round()
        delivered = network.receive("bob")
        assert len(delivered) == 1
        assert network.stats.messages_delivered == 1

    def test_zero_latency_delivers_same_round(self):
        network = InMemoryTransport(latency=0)
        network.register("alice")
        network.register("bob")
        network.send(make_message())
        assert len(network.receive("bob")) == 1

    def test_higher_latency(self):
        network = InMemoryTransport(latency=3)
        network.register("alice")
        network.register("bob")
        network.send(make_message())
        for _ in range(2):
            network.advance_round()
            assert network.receive("bob") == []
        network.advance_round()
        assert len(network.receive("bob")) == 1

    def test_receive_only_removes_due_messages(self):
        network = InMemoryTransport(latency=1)
        network.register("alice")
        network.register("bob")
        network.send(make_message(value=1))
        network.advance_round()
        network.send(make_message(value=2))
        first_batch = network.receive("bob")
        assert len(first_batch) == 1
        assert network.pending_count("bob") == 1

    def test_has_in_flight(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob")
        assert not network.has_in_flight()
        network.send(make_message())
        assert network.has_in_flight()
        network.advance_round()
        network.receive("bob")
        assert not network.has_in_flight()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InMemoryTransport(latency=-1)
        with pytest.raises(ValueError):
            InMemoryTransport(drop_probability=1.5)


class TestLossModel:
    def test_all_messages_dropped_at_probability_one(self):
        network = InMemoryTransport(drop_probability=1.0, seed=3)
        network.register("alice")
        network.register("bob")
        assert network.send(make_message()) is False
        network.advance_round()
        assert network.receive("bob") == []
        assert network.stats.messages_dropped == 1

    def test_seeded_drops_are_reproducible(self):
        outcomes = []
        for _ in range(2):
            network = InMemoryTransport(drop_probability=0.5, seed=123)
            network.register("a")
            network.register("b")
            outcomes.append([network.send(make_message("a", "b", i)) for i in range(20)])
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])


class TestAccounting:
    def test_stats_counters(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob")
        network.send(make_message())
        network.send(make_message())
        stats = network.stats
        assert stats.messages_sent == 2
        assert stats.payload_items == 2
        assert stats.by_kind["FactMessage"] == 2
        assert stats.by_link[("alice", "bob")] == 2
        as_dict = stats.as_dict()
        assert as_dict["by_link"]["alice->bob"] == 2

    def test_send_all(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob")
        queued = network.send_all([make_message(value=i) for i in range(3)])
        assert queued == 3

    def test_reset_stats(self):
        network = InMemoryTransport()
        network.register("alice")
        network.register("bob")
        network.send(make_message())
        old = network.reset_stats()
        assert old.messages_sent == 1
        assert network.stats.messages_sent == 0
