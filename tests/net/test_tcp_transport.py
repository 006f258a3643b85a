"""The asyncio TCP transport behind ``system().transport("tcp")``.

These tests open real localhost sockets.  They keep peer counts small and
rely on the bounded-quiet-period convergence mode for determinism.
"""

import asyncio
import time

import pytest

from repro.api import system
from repro.core.errors import TransportError
from repro.core.facts import Fact
from repro.net.events import NetEventLog, read_events
from repro.net.membership import ALIVE, LEFT
from repro.net.tcp import TcpTransport
from repro.runtime.messages import FactMessage

JULES = '''
collection extensional persistent pictures@jules(pic);
collection extensional persistent friends@jules(name);
fact friends@jules("emilien");
fact pictures@jules("p1");
fact pictures@jules("p2");
rule album@emilien($pic) :- pictures@jules($pic);
'''

EMILIEN = '''
collection extensional persistent album@emilien(pic);
'''


def wait_for(predicate, timeout=8.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_register_assigns_real_addresses():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        assert transport.peers() == ("alice", "bob")
        address = transport.address_of("alice")
        host, _, port = address.rpartition(":")
        assert host == "127.0.0.1" and int(port) > 0
        assert transport.is_registered("alice")
        assert not transport.is_registered("carol")


class SentFrames(TcpTransport):
    """Keeps every ``(dest, address, frame)`` the transport puts on a socket."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sent = []

    async def _transmit(self, outputs):
        self.sent.extend(outputs)
        await super()._transmit(outputs)


def test_registered_node_knows_its_own_address_from_the_start():
    """A node's table is born with the server's ``host:port`` — nobody sets
    it behind the table's back — so the first peer's view hands it on."""
    with SentFrames(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        alice_at = transport.address_of("alice")
        bob_at = transport.address_of("bob")
        alice = transport._endpoints["alice"].node
        bob = transport._endpoints["bob"].node
        assert alice.membership.self_address == alice_at == alice.address
        assert bob.membership.self_address == bob_at == bob.address

        def welcomes():
            return [wire for dest, _, wire in list(transport.sent)
                    if dest == "bob" and wire["type"] == "digest"]
        assert wait_for(welcomes)
        # alice's welcome digest tells bob where alice and bob listen
        told = {u["peer"]: u["address"] for u in welcomes()[0]["updates"]}
        assert told == {"alice": alice_at, "bob": bob_at}
        # ... and each ends up in the other's routable index, by that address
        assert wait_for(lambda: alice.membership.routable_peers() == ["bob"]
                        and bob.membership.routable_peers() == ["alice"])
        for view in (bob.membership.wire_view(),
                     [u.to_wire() for u in bob.membership.full_view()]):
            assert {u["peer"]: u["address"] for u in view} == told


def test_membership_converges_between_peers():
    with TcpTransport(seed=1) as transport:
        for name in ("alice", "bob", "carol"):
            transport.register(name)
        assert wait_for(lambda: all(
            transport.membership_view(name).get(other) == ALIVE
            for name in ("alice", "bob", "carol")
            for other in ("alice", "bob", "carol") if other != name))


def test_message_travels_over_real_sockets():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        message = FactMessage(sender="alice", recipient="bob",
                              inserted=frozenset({Fact("r", "bob", ("x",))}))
        assert transport.send(message) is True
        assert transport.stats.messages_sent == 1
        received = []
        assert wait_for(lambda: received.extend(transport.receive("bob"))
                        or received)
        assert received[0].message_id == message.message_id
        assert transport.stats.messages_delivered == 1


def test_unknown_recipient_raises_transport_error():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        with pytest.raises(TransportError):
            transport.send(FactMessage(sender="alice", recipient="facebook"))
        with pytest.raises(TransportError):
            transport.send(FactMessage(sender="ghost", recipient="alice"))


def test_unregister_announces_leave():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        assert wait_for(
            lambda: transport.membership_view("alice").get("bob") == ALIVE)
        transport.unregister("bob")
        assert transport.peers() == ("alice",)
        assert wait_for(
            lambda: transport.membership_view("alice").get("bob") == LEFT)


def exchange_one_message(transport):
    transport.register("alice")
    transport.register("bob")
    message = FactMessage(sender="alice", recipient="bob",
                          inserted=frozenset({Fact("r", "bob", ("x",))}))
    transport.send(message)
    assert wait_for(lambda: transport.receive("bob"))


def test_event_log_written_to_jsonl(tmp_path):
    path = tmp_path / "net.jsonl"
    with NetEventLog(path=path, keep_in_memory=False) as log:
        with TcpTransport(seed=1, events=log) as transport:
            exchange_one_message(transport)
        assert len(log) == 0
    actions = {event["action"] for event in read_events(str(path))}
    assert {"register", "send", "deliver"} <= actions


def test_one_log_serves_every_build_of_a_builder(tmp_path):
    """Closing a deployment leaves the caller's log open, so a second
    build of the same chain still writes to the file."""
    path = tmp_path / "net.jsonl"
    with NetEventLog(path=path, keep_in_memory=False) as log:
        builder = system().transport("tcp", seed=1, events=log).peer("alice").done()
        for _ in range(2):
            with builder.build():
                pass
    registers = [event for event in read_events(str(path))
                 if event["action"] == "register"]
    assert [event["node"] for event in registers] == ["alice", "alice"]


def test_a_transport_without_a_log_keeps_no_records():
    with TcpTransport(seed=1) as transport:
        exchange_one_message(transport)
        assert len(transport.events) == 0
        assert transport.events.events() == []


def test_wepic_scenario_matches_inmemory_with_churn():
    """The acceptance scenario: 3 peers over real TCP, same snapshots as
    in-memory, with a peer joining and leaving mid-run."""

    def run(use_tcp):
        builder = (system()
                   .peer("jules").program(JULES)
                   .peer("emilien").program(EMILIEN)
                   .done())
        if use_tcp:
            builder = builder.transport("tcp", seed=3)
        deployment = builder.build()
        with deployment:
            summary = deployment.converge()
            assert summary.converged
            # mid-run join: a third peer subscribes to jules's pictures
            deployment.add_peer("patrick", program=(
                'collection extensional persistent album@patrick(pic);'))
            deployment.peer("jules").add_rule(
                'rule album@patrick($p) :- pictures@jules($p);')
            assert deployment.converge().converged
            assert deployment.snapshot()["patrick"]
            # mid-run leave, then more traffic
            deployment.remove_peer("patrick")
            deployment.peer("jules").insert('pictures@jules("p3")')
            assert deployment.converge().converged
            return deployment.snapshot()

    assert run(use_tcp=False) == run(use_tcp=True)


def test_tcp_transport_with_aconverge():
    deployment = (system()
                  .transport("tcp", seed=5)
                  .peer("jules").program(JULES)
                  .peer("emilien").program(EMILIEN)
                  .build())
    with deployment:
        summary = asyncio.run(deployment.aconverge())
        assert summary.converged
        album = deployment.snapshot()["emilien"]["album@emilien"]
        assert {fact.values[0] for fact in album} == {"p1", "p2"}


def test_builder_rejects_inmemory_knobs_with_tcp():
    from repro.api import BuildError
    with pytest.raises(BuildError):
        system().transport("tcp", latency=2).build()


def test_builder_rejects_unknown_transport_name():
    from repro.api import BuildError
    with pytest.raises(BuildError):
        system().transport("carrier-pigeon")
