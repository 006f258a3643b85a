"""Transport pluggability: the orchestrator only sees the protocol."""

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import (
    InMemoryTransport,
    RecordingTransport,
    Transport,
    system,
)
from repro.core.errors import TransportError
from repro.runtime.inmemory import NetworkStats
from repro.runtime.messages import Message

JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $n) :-
    selectedAttendee@Jules($a), pictures@$a($id, $n);
"""

EMILIEN = """
collection extensional persistent pictures@Emilien(id, name);
fact pictures@Emilien(1, "sea.jpg");
fact pictures@Emilien(2, "boat.jpg");
"""


def build_quickstart(transport=None):
    builder = system()
    if transport is not None:
        builder.transport(transport)
    return (builder
            .peer("Jules").program(JULES)
            .peer("Emilien").program(EMILIEN)
            .build())


class ZeroLatencyTransport:
    """A minimal from-scratch Transport written against the protocol only.

    Messages become visible at the recipient's next ``receive`` call (no
    round buffering at all) — a semantics *different* from the in-memory
    transport's, proving the orchestrator never assumes the implementation.
    """

    def __init__(self):
        self._registered: Dict[str, str] = {}
        self._queues: Dict[str, List[Message]] = defaultdict(list)
        self.stats = NetworkStats()
        self._round = 0

    def register(self, peer: str, address: Optional[str] = None) -> None:
        self._registered[peer] = address or peer

    def unregister(self, peer: str) -> None:
        self._registered.pop(peer, None)
        self._queues.pop(peer, None)

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registered))

    def is_registered(self, peer: str) -> bool:
        return peer in self._registered

    def send(self, message: Message) -> bool:
        if message.recipient not in self._registered:
            raise TransportError(f"unknown peer {message.recipient!r}")
        self.stats.messages_sent += 1
        self.stats.payload_items += message.payload_size()
        self._queues[message.recipient].append(message)
        return True

    def send_all(self, messages) -> int:
        return sum(1 for m in messages if self.send(m))

    def receive(self, peer: str) -> List[Message]:
        delivered = self._queues.pop(peer, [])
        self.stats.messages_delivered += len(delivered)
        return delivered

    def advance_round(self) -> int:
        self._round += 1
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        if peer is not None:
            return len(self._queues.get(peer, []))
        return sum(len(q) for q in self._queues.values())

    def has_in_flight(self) -> bool:
        return self.pending_count() > 0

    def reset_stats(self) -> NetworkStats:
        stats = self.stats
        self.stats = NetworkStats()
        return stats


class TestProtocol:
    def test_shipped_transports_satisfy_the_protocol(self):
        assert isinstance(InMemoryTransport(), Transport)
        assert isinstance(RecordingTransport(InMemoryTransport()), Transport)
        assert isinstance(ZeroLatencyTransport(), Transport)


class TestTransportSwap:
    def test_recording_transport_reaches_the_same_fixpoint(self):
        plain = build_quickstart()
        recorded = build_quickstart(RecordingTransport(InMemoryTransport()))
        summary_plain = plain.converge()
        summary_recorded = recorded.converge()
        assert summary_plain.converged and summary_recorded.converged
        assert summary_plain.round_count == summary_recorded.round_count
        assert plain.snapshot() == recorded.snapshot()
        assert plain.stats.messages_sent == recorded.stats.messages_sent

    def test_zero_latency_transport_reaches_the_same_fixpoint(self):
        plain = build_quickstart()
        fast = build_quickstart(ZeroLatencyTransport())
        plain.converge()
        fast.converge()
        assert plain.snapshot() == fast.snapshot()

    def test_recording_transport_logs_sends_and_deliveries(self):
        transport = RecordingTransport(InMemoryTransport())
        built = build_quickstart(transport)
        built.converge()
        sends = transport.events_of("send")
        delivers = transport.events_of("deliver")
        assert len(sends) == built.stats.messages_sent
        assert len(delivers) == built.stats.messages_delivered
        # Jules' delegation travelled to Émilien; the derived facts came back.
        assert any(e.peer == "Emilien" for e in sends)
        assert any(e.peer == "Jules" for e in delivers)

    def test_recording_transport_clear_events(self):
        transport = RecordingTransport(InMemoryTransport())
        built = build_quickstart(transport)
        built.converge()
        events = transport.clear_events()
        assert events and transport.events == []


class TestScenarioTransportInjection:
    def test_demo_scenario_accepts_a_transport(self):
        from repro.wepic.scenario import build_demo_scenario

        recording = RecordingTransport(InMemoryTransport())
        scenario = build_demo_scenario(pictures_per_attendee=1,
                                       transport=recording)
        scenario.run()
        assert scenario.api.transport is recording
        assert recording.events_of("send")
        # Same topology over the default transport converges identically.
        baseline = build_demo_scenario(pictures_per_attendee=1)
        baseline.run()
        assert baseline.system.snapshot() == scenario.system.snapshot()
