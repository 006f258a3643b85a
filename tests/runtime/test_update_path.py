"""The transport decides how updates travel.

A peer ships raw messages (one ``FactMessage`` per recipient per stage) only
over a transport that promises exactly-once, in-order delivery
(``exactly_once_in_order``); over any other transport every peer replicates
causally.
"""

import pytest

from repro.api import InMemoryTransport, system
from repro.net.tcp import TcpTransport
from repro.replication.state import ReplicationState
from repro.runtime.messages import DeltaEnvelopeMessage
from repro.runtime.peer import Peer
from repro.runtime.system import WebdamLogSystem

from tests.fakes import UnpromisedTransport, ZeroLatencyTransport

#: One constructor argument per fault the in-memory transport can inject.
FAULTS = {
    "loss": {"loss_probability": 0.1},
    "duplication": {"duplicate_probability": 0.1},
    "jitter": {"latency_jitter": 2},
    "shuffle": {"shuffle_seed": 1},
    "reorder": {"reorder_window": 2},
}


def replication_states(transport):
    runtime = WebdamLogSystem(transport=transport)
    for name in ("a", "b", "c"):
        runtime.add_peer(name)
    return [peer.replication for peer in runtime.peers.values()]


def all_causal(states):
    return all(isinstance(state, ReplicationState) for state in states)


class TestTheTransportPicksThePath:
    @pytest.mark.parametrize("latency", [0, 1, 3])
    def test_a_clean_in_memory_transport_ships_raw_messages(self, latency):
        transport = InMemoryTransport(latency=latency)
        assert transport.exactly_once_in_order
        assert replication_states(transport) == [None, None, None]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_every_fault_gives_every_peer_causal_replication(self, fault):
        transport = InMemoryTransport(**FAULTS[fault])
        assert not transport.exactly_once_in_order
        assert all_causal(replication_states(transport))

    def test_a_named_faulty_transport_gives_causal_replication(self):
        deployment = (system().transport("inmemory", duplicate_probability=0.2)
                      .peer("a").peer("b").build())
        assert all_causal(peer.replication
                          for peer in deployment.runtime.peers.values())

    def test_tcp_gives_causal_replication(self):
        with TcpTransport() as transport:
            assert not transport.exactly_once_in_order
            assert all_causal(replication_states(transport))

    def test_a_transport_that_declares_nothing_gets_causal_replication(self):
        assert not hasattr(ZeroLatencyTransport(), "exactly_once_in_order")
        assert all_causal(replication_states(ZeroLatencyTransport()))


class TestThePromiseIsFixedAtConstruction:
    @pytest.mark.parametrize("field,value", [
        ("drop_probability", 0.3), ("duplicate_probability", 0.1),
        ("latency_jitter", 2), ("reorder_window", 3)])
    def test_a_fault_set_on_a_promising_transport_raises(self, field, value):
        transport = InMemoryTransport()
        with pytest.raises(ValueError, match=f"build it with {field}="):
            setattr(transport, field, value)
        assert not getattr(transport, field)
        assert transport.exactly_once_in_order

    def test_setting_a_fault_field_to_zero_is_no_fault(self):
        transport = InMemoryTransport()
        transport.drop_probability = 0.0
        assert transport.exactly_once_in_order

    def test_a_transport_built_with_a_fault_may_change_it(self):
        transport = InMemoryTransport(loss_probability=0.1)
        transport.drop_probability = 1.0
        transport.drop_probability = 0.0
        assert not transport.exactly_once_in_order

    def test_the_promise_is_read_only(self):
        with pytest.raises(AttributeError):
            InMemoryTransport().exactly_once_in_order = False


def test_a_peer_without_causal_replication_rejects_envelopes():
    peer = Peer("alice")
    assert peer.replication is None
    with pytest.raises(TypeError, match="no causal replication"):
        peer.deliver(DeltaEnvelopeMessage(sender="bob", recipient="alice",
                                          frontier=0, ops=()))


#: The raw path, the causal path, and the causal path under every fault.
PATHS = {
    "raw": lambda: InMemoryTransport(),
    "causal": lambda: UnpromisedTransport(),
    "lossy": lambda: InMemoryTransport(loss_probability=0.3, duplicate_probability=0.3,
                                       reorder_window=2, seed=5),
}


class TestARemoteHeadFollowsItsReceiver:
    """A rule's remote head is read by its receiver's declaration, not by
    what the sender knows of it: a receiver's intensional relation loses a
    fact when its last support at the sender is gone; an extensional one
    keeps it (a derived fact is an insert there).  The sender declares
    nothing about ``out@b`` unless a test says so."""

    RULE = "collection extensional persistent src@a(x);\nrule out@b($x) :- src@a($x);"

    def deploy(self, path, at_b, at_a=""):
        deployment = (system().transport(PATHS[path]())
                      .peer("a").program(at_a + self.RULE)
                      .peer("b").program(at_b).build())
        deployment.peer("a").insert_many(["src@a(1)", "src@a(2)"])
        self.settle(deployment)
        assert self.out(deployment) == [(1,), (2,)]
        deployment.peer("a").delete("src@a(1)")
        self.settle(deployment)
        return deployment

    @staticmethod
    def settle(deployment):
        assert deployment.converge(max_steps=400).converged

    @staticmethod
    def out(deployment):
        return sorted(fact.values for fact in deployment.peer("b").snapshot().get("out@b", ()))

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_an_intensional_receiver_loses_an_unsupported_fact(self, path):
        deployment = self.deploy(path, "collection intensional out@b(x);")
        assert self.out(deployment) == [(2,)]
        deployment.peer("a").insert("src@a(1)")
        self.settle(deployment)
        assert self.out(deployment) == [(1,), (2,)]

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_an_extensional_receiver_keeps_a_derived_fact(self, path):
        deployment = self.deploy(path, "collection extensional persistent out@b(x);")
        assert self.out(deployment) == [(1,), (2,)]

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_the_receivers_declaration_wins_over_the_senders(self, path):
        deployment = self.deploy(path, "collection extensional persistent out@b(x);",
                                 at_a="collection intensional out@b(x);\n")
        assert self.out(deployment) == [(1,), (2,)]

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_a_users_remote_delete_applies_to_an_extensional_receiver(self, path):
        deployment = self.deploy(path, "collection extensional persistent out@b(x);")
        deployment.peer("a").delete("out@b(1)")
        self.settle(deployment)
        assert self.out(deployment) == [(2,)]

