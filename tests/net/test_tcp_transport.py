"""The asyncio TCP transport behind ``system().transport("tcp")``.

These tests open real localhost sockets and keep peer counts small.  Every
message is one frame on a connection to its recipient, and the transport
counts the frames in flight exactly, so a deployment settles on its first
quiet cycle, as an in-memory one does.
"""

import asyncio
import itertools
import socket
import time

import pytest

import repro.net.tcp as tcp
import repro.runtime.scheduler as scheduler
from repro.api import BuildError, system
from repro.core.errors import TransportError
from repro.core.facts import Fact
from repro.net.events import NetEventLog, read_events
from repro.net.framing import write_frame
from repro.net.tcp import TcpTransport
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    message_from_wire,
)

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


#: Ids of the messages these tests build by hand: each one its own.
_message_ids = itertools.count(1)


def fact_message(sender="alice", recipient="bob", value="x"):
    return FactMessage(sender=sender, recipient=recipient,
                       message_id=f"hand-{next(_message_ids)}",
                       inserted=frozenset({Fact("r", recipient, (value,))}))


def exchange_one_message(transport):
    """alice sends bob one message, which lands within the round."""
    message = fact_message()
    transport.send(message)
    transport.advance_round()
    assert [m.message_id for m in transport.receive("bob")] == [
        message.message_id]


def two_peer_builder(transport="tcp", **options):
    builder = (system()
               .peer("jules").program(JULES)
               .peer("emilien").program(EMILIEN)
               .done())
    return builder.transport(transport, **options) if transport else builder


def album(deployment):
    return {fact.values[0]
            for fact in deployment.snapshot()["emilien"]["album@emilien"]}


@pytest.fixture
def frames_written(monkeypatch):
    """Every ``(host:port, frame)`` a TCP transport puts on a socket,
    recorded at its one write path."""
    written = []

    async def recording(writer, frame):
        host, port = writer.get_extra_info("peername")[:2]
        written.append((f"{host}:{port}", frame))
        await write_frame(writer, frame)

    monkeypatch.setattr(tcp, "write_frame", recording)
    return written


@pytest.fixture
def settled_flags(monkeypatch):
    """Whether each cycle the converge loop judged had settled, in order."""
    flags = []
    judge = scheduler._settled_after

    def recording(system, report):
        flags.append(judge(system, report))
        return flags[-1]

    monkeypatch.setattr(scheduler, "_settled_after", recording)
    return flags


def test_register_assigns_real_addresses():
    with TcpTransport() as transport:
        transport.register("alice")
        transport.register("bob")
        assert transport.peers() == ("alice", "bob")
        address = transport.address_of("alice")
        host, _, port = address.rpartition(":")
        assert host == "127.0.0.1" and int(port) > 0
        assert address != transport.address_of("bob")
        assert transport.is_registered("alice")
        assert not transport.is_registered("carol")


class TestTrafficShape:
    """One message is one frame to its recipient; an idle deployment is
    silent."""

    def test_one_send_puts_one_frame_on_a_socket(self, frames_written):
        with TcpTransport() as transport:
            for index in range(6):
                transport.register(f"p{index}")
            recipient_at = transport.address_of("p3")
            messages = [fact_message("p0", "p3", value) for value in "ab"]
            sent = []
            for message in messages:
                frames_written.clear()
                transport.send(message)
                transport.advance_round()
                sent.append(list(frames_written))
            # a new connection opens with its hello frame, then one frame
            # per message; the other four peers see nothing
            (hello_at, hello), first = sent[0]
            assert hello_at == recipient_at and set(hello) == {"connection"}
            assert first == (recipient_at, messages[0].to_wire())
            assert sent[1] == [(recipient_at, messages[1].to_wire())]
            assert [m.message_id for m in transport.receive("p3")] == [
                m.message_id for m in messages]

    def test_an_idle_deployment_puts_no_frame(self, frames_written):
        with TcpTransport() as transport:
            for index in range(6):
                transport.register(f"p{index}")
            time.sleep(0.3)
            assert frames_written == []


def test_message_travels_over_real_sockets():
    with TcpTransport() as transport:
        transport.register("alice")
        transport.register("bob")
        message = fact_message()
        assert transport.send(message) is True
        assert transport.stats.messages_sent == 1
        transport.advance_round()
        received = transport.receive("bob")
        assert [m.message_id for m in received] == [message.message_id]
        assert received[0] == message
        assert transport.stats.messages_delivered == 1


def test_messages_arrive_in_send_order():
    with TcpTransport() as transport:
        transport.register("alice")
        transport.register("bob")
        messages = [fact_message(value=str(index)) for index in range(20)]
        assert transport.send_all(messages) == 20
        transport.advance_round()
        assert transport.receive("bob") == messages


def test_in_flight_is_counted_exactly():
    """Written-but-unread frames and undrained inboxes are in flight; once
    ``advance_round`` returns every frame has landed in an inbox."""
    with TcpTransport() as transport:
        assert not transport.has_in_flight()
        for name in ("alice", "bob", "carol"):
            transport.register(name)
        assert not transport.has_in_flight()
        transport.send(fact_message("alice", "bob"))
        transport.send(fact_message("carol", "bob"))
        assert transport.has_in_flight()
        transport.advance_round()
        assert transport.due_count("bob") == 2
        assert transport.pending_count("bob") == 2
        assert transport.pending_count() == 2
        assert transport.pending_count("alice") == 0
        assert transport.has_in_flight()
        assert len(transport.receive("bob")) == 2
        assert not transport.has_in_flight()
        assert transport.pending_count() == 0


def test_unknown_recipient_raises_transport_error():
    with TcpTransport() as transport:
        transport.register("alice")
        with pytest.raises(TransportError):
            transport.send(FactMessage(sender="alice", recipient="facebook"))
        with pytest.raises(TransportError):
            transport.send(FactMessage(sender="ghost", recipient="alice"))
        assert transport.stats.messages_sent == 0


def test_unregister_closes_the_socket_and_a_send_to_it_raises():
    with TcpTransport() as transport:
        transport.register("alice")
        transport.register("bob")
        exchange_one_message(transport)
        host, _, port = transport.address_of("bob").rpartition(":")
        transport.unregister("bob")
        assert transport.peers() == ("alice",)
        assert transport.address_of("bob") is None
        with pytest.raises(TransportError):
            transport.send(fact_message("alice", "bob"))
        with pytest.raises(OSError):
            socket.create_connection((host, int(port)), timeout=2).close()
        assert not transport.has_in_flight()


def test_unregister_drops_what_was_undelivered():
    log = NetEventLog()
    with TcpTransport(event_log=log) as transport:
        transport.register("alice")
        transport.register("bob")
        transport.send(fact_message(value="landed"))
        transport.advance_round()
        transport.send(fact_message(value="written"))
        transport.unregister("bob")
        assert transport.stats.messages_dropped == 2
        assert not transport.has_in_flight()
        assert log.events("unregister")[0]["undelivered"] == 2
        drops = log.events("drop")
        assert [event["reason"] for event in drops] == ["unregistered"] * 2
        # the peer can come back, on a new socket
        transport.register("bob")
        exchange_one_message(transport)


class TestLoss:
    """The exact count survives frames lost before or on a connection."""

    def test_a_reset_connection_counts_its_unread_frames_lost(self):
        with TcpTransport() as transport:
            transport.register("alice")
            transport.register("bob")
            exchange_one_message(transport)   # the connection's reader is up
            lost = [fact_message(value=str(index)) for index in range(3)]

            async def write_then_reset():
                # No await yields between the writes and the abort, so the
                # frames are still in bob's socket buffer when it resets.
                for message in lost:
                    assert await transport._write(message)
                for writer in transport._endpoints["bob"].connections.values():
                    writer.transport.abort()

            transport._call(write_then_reset)
            assert wait_for(lambda: not transport.has_in_flight())
            assert transport.stats.messages_dropped == 3
            assert transport.receive("bob") == []
            # the next send opens a new connection
            exchange_one_message(transport)

    def test_converge_settles_after_a_reset(self):
        class ResetsUnderTheFirstEnvelope(TcpTransport):
            armed = False

            async def _write(self, message):
                written = await super()._write(message)
                if self.armed and isinstance(message, DeltaEnvelopeMessage):
                    self.armed = False
                    for writer in self._endpoints[message.recipient].connections.values():
                        writer.transport.abort()
                return written

        transport = ResetsUnderTheFirstEnvelope()
        with two_peer_builder(transport).build() as deployment:
            assert deployment.converge().converged
            transport.armed = True
            deployment.peer("jules").insert('pictures@jules("p3")')
            summary = deployment.converge(max_steps=60)
            assert summary.converged
            assert not transport.armed
            assert transport.stats.messages_dropped == 1
            assert album(deployment) == {"p1", "p2", "p3"}

    def test_a_lost_envelope_is_repaired_by_replication(self):
        class DropsTheFirstEnvelope(TcpTransport):
            dropped = None

            async def _write(self, message):
                if self.dropped is None and isinstance(message, DeltaEnvelopeMessage):
                    self.dropped = message
                    return False
                return await super()._write(message)

        with two_peer_builder(None).build() as reference:
            reference.converge()
            expected = reference.snapshot()
        transport = DropsTheFirstEnvelope()
        with two_peer_builder(transport).build() as deployment:
            assert deployment.converge().converged
            assert transport.dropped is not None
            assert transport.stats.by_kind["ReplicationPullMessage"] >= 1
            assert deployment.snapshot() == expected

    def test_an_oversized_message_is_dropped_at_the_sender(self, monkeypatch):
        monkeypatch.setattr("repro.net.framing.MAX_FRAME_BYTES", 64)
        log = NetEventLog()
        with TcpTransport(event_log=log) as transport:
            transport.register("alice")
            transport.register("bob")
            assert transport.send(fact_message(value="x" * 100)) is False
            assert transport.stats.messages_dropped == 1
            assert not transport.has_in_flight()
            assert log.events("drop")[0]["reason"] == "oversized"


def test_a_connection_without_hello_is_dropped_as_malformed():
    log = NetEventLog()
    with TcpTransport(event_log=log) as transport:
        transport.register("alice")
        transport.register("bob")
        host, _, port = transport.address_of("bob").rpartition(":")

        async def stranger():
            reader, writer = await asyncio.open_connection(host, int(port))
            await write_frame(writer, fact_message().to_wire())
            assert await reader.read() == b""   # the server hangs up
            writer.close()
            await writer.wait_closed()

        transport._call(stranger)
        assert [event["reason"] for event in log.events("drop")] == ["malformed"]
        assert transport.receive("bob") == []
        exchange_one_message(transport)


def test_the_connection_cache_is_bounded(monkeypatch):
    """An evicted connection closes after its frames are read: none lost."""
    monkeypatch.setattr(tcp, "MAX_CACHED_CONNECTIONS", 1)
    with TcpTransport() as transport:
        for name in ("alice", "bob", "carol"):
            transport.register(name)
        for round_number in range(3):
            transport.send(fact_message("alice", "bob", str(round_number)))
            transport.send(fact_message("alice", "carol", str(round_number)))
            assert len(transport._outbound) == 1
        transport.advance_round()
        assert len(transport.receive("bob")) == 3
        assert len(transport.receive("carol")) == 3
        assert transport.stats.messages_dropped == 0
        assert not transport.has_in_flight()


def test_close_releases_the_loop_and_every_socket():
    transport = TcpTransport()
    transport.register("alice")
    transport.register("bob")
    exchange_one_message(transport)
    thread = transport._thread
    host, _, port = transport.address_of("bob").rpartition(":")
    transport.close()
    assert not thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection((host, int(port)), timeout=2).close()
    with pytest.raises(TransportError):
        transport.register("carol")
    transport.close()   # idempotent


def test_event_log_written_to_jsonl(tmp_path):
    path = tmp_path / "net.jsonl"
    with NetEventLog(path=path, keep_in_memory=False) as log:
        with TcpTransport(event_log=log) as transport:
            transport.register("alice")
            transport.register("bob")
            exchange_one_message(transport)
        assert len(log) == 0
    records = read_events(str(path))
    assert [record["action"] for record in records] == [
        "register", "register", "send", "deliver"]
    # stamped with the transport round, as the in-memory transport stamps
    assert [record["ts"] for record in records] == [0.0, 0.0, 0.0, 1.0]


def test_a_deployment_record_replays_and_holds_replication_events(tmp_path):
    """Over TCP the JSONL holds each message's wire form and the causal
    replication events of its peers."""
    path = tmp_path / "net.jsonl"
    with NetEventLog(path=path, keep_in_memory=False) as log:
        with two_peer_builder(event_log=log).build() as deployment:
            assert deployment.converge().converged
    records = read_events(str(path))
    carried = [record for record in records if "message" in record]
    assert {record["action"] for record in carried} == {"send", "deliver"}
    for record in carried:
        message = message_from_wire(record["message"])
        assert message.to_wire() == record["message"]
        assert message.message_id == record["message_id"]
    actions = {record["action"] for record in records}
    assert {"join", "ack"} <= actions


def test_one_log_serves_every_build_of_a_builder(tmp_path):
    """Closing a deployment leaves the caller's log open, so a second
    build of the same chain still writes to the file."""
    path = tmp_path / "net.jsonl"
    with NetEventLog(path=path, keep_in_memory=False) as log:
        builder = system().transport("tcp", event_log=log).peer("alice").done()
        for _ in range(2):
            with builder.build():
                pass
    registers = [event for event in read_events(str(path))
                 if event["action"] == "register"]
    assert [event["node"] for event in registers] == ["alice", "alice"]


def test_a_transport_without_a_log_keeps_no_records():
    with TcpTransport() as transport:
        transport.register("alice")
        transport.register("bob")
        exchange_one_message(transport)
        assert transport.event_log is None


def test_wepic_scenario_matches_inmemory_with_churn(settled_flags):
    """The acceptance scenario: 3 peers over real TCP, same snapshots as
    in-memory, with a peer joining and leaving mid-run; every converge ends
    on its first settled cycle."""

    def converge(deployment):
        settled_flags.clear()
        summary = deployment.converge()
        assert summary.converged
        assert len(settled_flags) == summary.round_count
        assert settled_flags[-1] and not settled_flags[-2]

    def run(transport):
        with two_peer_builder(transport).build() as deployment:
            converge(deployment)
            # mid-run join: a third peer subscribes to jules's pictures
            deployment.add_peer("patrick", program=(
                'collection extensional persistent album@patrick(pic);'))
            deployment.peer("jules").add_rule(
                'rule album@patrick($p) :- pictures@jules($p);')
            converge(deployment)
            assert deployment.snapshot()["patrick"]
            # mid-run leave, then more traffic
            deployment.remove_peer("patrick")
            deployment.peer("jules").insert('pictures@jules("p3")')
            converge(deployment)
            return deployment.snapshot()

    assert run(None) == run("tcp")


def test_tcp_deployment_delivers_in_the_next_cycle_like_inmemory():
    """A frame lands before its cycle ends, so a TCP deployment runs the
    cycles and messages of a causal in-memory one."""
    summaries = []
    for transport, options in (("tcp", {}), ("inmemory", {"reorder_window": 1})):
        with two_peer_builder(transport, **options).build() as deployment:
            summaries.append(deployment.converge())
    tcp_run, inmemory_run = summaries
    assert tcp_run.round_count == inmemory_run.round_count
    assert tcp_run.total_messages() == inmemory_run.total_messages()


def test_tcp_transport_with_aconverge():
    with two_peer_builder().build() as deployment:
        summary = asyncio.run(deployment.aconverge())
        assert summary.converged
        assert album(deployment) == {"p1", "p2"}


@pytest.mark.parametrize("option", [
    "latency",                                   # an in-memory knob
    "seed", "quiet_period", "gossip", "swim",    # retired with the overlay
    "events", "poll_interval", "tick_interval",
])
def test_builder_rejects_options_tcp_does_not_take(option):
    with pytest.raises(BuildError):
        system().transport("tcp", **{option: 2}).build()


def test_builder_rejects_unknown_transport_name():
    with pytest.raises(BuildError):
        system().transport("carrier-pigeon")
