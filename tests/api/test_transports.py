"""Transport pluggability: the orchestrator only sees the protocol."""

import pytest

from repro.api import (
    InMemoryTransport,
    NetEventLog,
    Transport,
    read_events,
    system,
)
from repro.runtime.messages import message_from_wire

from tests.fakes import ZeroLatencyTransport

#: A clean transport (raw messages) and a lossy, duplicating one (causal).
NETWORKS = pytest.mark.parametrize("faults", [
    {}, dict(drop_probability=0.2, duplicate_probability=0.2, seed=3),
], ids=["clean", "lossy"])

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
        assert isinstance(InMemoryTransport(event_log=NetEventLog()), Transport)
        assert isinstance(ZeroLatencyTransport(), Transport)


class TestTransportSwap:
    def test_zero_latency_transport_reaches_the_same_fixpoint(self):
        plain = build_quickstart()
        fast = build_quickstart(ZeroLatencyTransport())
        plain.converge()
        fast.converge()
        assert plain.snapshot() == fast.snapshot()


class TestEventLog:
    @NETWORKS
    def test_an_event_log_changes_neither_fixpoint_nor_rounds_nor_stats(self, faults):
        plain = build_quickstart(InMemoryTransport(**faults))
        logged = build_quickstart(InMemoryTransport(event_log=NetEventLog(), **faults))
        summary_plain = plain.converge()
        summary_logged = logged.converge()
        assert summary_plain.converged and summary_logged.converged
        assert summary_plain.round_count == summary_logged.round_count
        assert plain.snapshot() == logged.snapshot()
        assert plain.stats.as_dict() == logged.stats.as_dict()

    @NETWORKS
    def test_an_event_log_counts_what_stats_counts(self, faults):
        log = NetEventLog()
        built = build_quickstart(InMemoryTransport(event_log=log, **faults))
        built.converge()
        sends, drops = log.events("send"), log.events("drop")
        delivers = log.events("deliver")
        stats = built.stats
        assert len(sends) + len(drops) == stats.messages_sent
        assert len(drops) == stats.messages_dropped
        assert len(delivers) == stats.messages_delivered
        # Jules' delegation travelled to Émilien; the derived facts came back.
        assert any(record["peer"] == "Emilien" for record in sends)
        assert any(record["node"] == "Jules" for record in delivers)
        if faults:
            assert drops

    @NETWORKS
    def test_the_jsonl_file_replays_every_message(self, tmp_path, faults):
        path = tmp_path / "events.jsonl"
        log = NetEventLog(path=path)
        build_quickstart(InMemoryTransport(event_log=log, **faults)).converge()
        log.close()
        written = [record for record in read_events(path) if "message" in record]
        kept = [record for record in log.events() if "message" in record]
        assert written and len(written) == len(kept)
        assert {record["action"] for record in kept} >= {"send", "deliver"}
        for line, record in zip(written, kept):
            assert line["action"] == record["action"]
            assert message_from_wire(line["message"]) == record["message"]


class TestScenarioTransportInjection:
    def test_demo_scenario_accepts_a_transport(self):
        from repro.wepic.scenario import build_demo_scenario

        log = NetEventLog()
        transport = InMemoryTransport(event_log=log)
        scenario = build_demo_scenario(pictures_per_attendee=1,
                                       transport=transport)
        scenario.api.converge(max_steps=60)
        assert scenario.api.transport is transport
        assert log.events("send")
        # Same topology over the default transport converges identically.
        baseline = build_demo_scenario(pictures_per_attendee=1)
        baseline.api.converge(max_steps=60)
        assert baseline.api.snapshot() == scenario.api.snapshot()
