"""Transport pluggability: the orchestrator only sees the protocol."""

from repro.api import (
    InMemoryTransport,
    RecordingTransport,
    Transport,
    system,
)

from tests.fakes import ZeroLatencyTransport

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
