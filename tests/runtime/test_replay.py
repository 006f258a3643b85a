"""A recorded lossy run replays from its event log alone.

:class:`tests.fakes.ReplayTransport` re-runs a deployment over the delivery
schedule an :class:`InMemoryTransport` wrote to its JSONL event log: the
same sends dropped, the same copies duplicated, the same deliveries in the
same order, with no random draw.  A failure found under loss, duplication
and reordering then shrinks to a log.
"""

import itertools

import pytest

import repro.core.rules as rules_module
from repro.api import InMemoryTransport, NetEventLog, system
from repro.core.facts import Fact

from tests.fakes import ReplayDivergence, ReplayTransport, wire_content

JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name, owner, data);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $name, $owner, $data) :-
    selectedAttendee@Jules($attendee),
    pictures@$attendee($id, $name, $owner, $data);
"""

EMILIEN = """
collection extensional persistent pictures@Emilien(id, name, owner, data);
fact pictures@Emilien(1, "sea.jpg",  "Emilien", "100110");
fact pictures@Emilien(2, "boat.jpg", "Emilien", "111000");
"""


def quickstart(transport, monkeypatch, picture=3):
    """The quickstart's delegation, a picture added and the attendee
    deselected, converged after each step.  Rule ids (and the delegation
    ids hashed over them) travel on the wire: pin their counter, so a
    replay numbers its rules as the recording did."""
    monkeypatch.setattr(rules_module, "_rule_counter", itertools.count(10 ** 6))
    deployment = (system().transport(transport)
                  .peer("Jules").program(JULES)
                  .peer("Emilien").program(EMILIEN)
                  .build())
    deployment.converge()
    deployment.peer("Emilien").insert(
        Fact("pictures", "Emilien", (picture, "cat.jpg", "Emilien", "0")))
    deployment.converge()
    during = deployment.snapshot()
    deployment.peer("Jules").delete('selectedAttendee@Jules("Emilien")')
    deployment.converge()
    return deployment, during


@pytest.fixture
def recorded(tmp_path, monkeypatch):
    """A lossy, duplicating, reordering run, its JSONL log and its results."""
    path = tmp_path / "run.jsonl"
    with NetEventLog(path) as log:
        transport = InMemoryTransport(drop_probability=0.25, duplicate_probability=0.25,
                                      reorder_window=2, latency_jitter=1, seed=11,
                                      event_log=log)
        deployment, during = quickstart(transport, monkeypatch)
    return path, deployment, during


def test_the_recording_exercises_every_fault(recorded):
    path, deployment, _ = recorded
    actions = {record["action"] for record in ReplayTransport(path).records}
    assert {"send", "drop", "dup", "deliver"} <= actions
    assert deployment.stats.messages_dropped > 0


def test_a_replay_reaches_the_same_snapshots_and_stats(recorded, monkeypatch):
    path, original, during = recorded
    replay = ReplayTransport(path)
    handed = []
    receive = replay.receive

    def receive_and_note(peer):
        messages = receive(peer)
        handed.extend((peer, wire_content(message)) for message in messages)
        return messages

    replay.receive = receive_and_note
    deployment, replayed_during = quickstart(replay, monkeypatch)
    replay.finish()
    # Each peer was handed the recorded deliveries, in the recorded order
    # (the rounds are enforced by the replay itself).
    assert handed == [(record["node"], wire_content(record["message"]))
                      for record in replay.records if record["action"] == "deliver"]
    assert replayed_during == during
    assert deployment.snapshot() == original.snapshot()
    assert deployment.stats.as_dict() == original.stats.as_dict()
    assert deployment.stats.messages_dropped > 0


def test_a_run_that_sends_something_else_names_the_record(recorded, monkeypatch):
    path, _, _ = recorded
    replay = ReplayTransport(path)
    # The first record that differs is the envelope carrying the picture.
    with pytest.raises(ReplayDivergence,
                       match=r"^record \d+ .*\[3, 'cat\.jpg'.*\[4, 'cat\.jpg'.* instead$"):
        quickstart(replay, monkeypatch, picture=4)


def test_a_record_never_reached_is_named(recorded, monkeypatch, tmp_path):
    path, _, _ = recorded
    lines = path.read_text().splitlines()
    extra = tmp_path / "extra.jsonl"
    # One more recorded send than the run makes.
    last_send = max(i for i, line in enumerate(lines) if '"action": "send"' in line)
    extra.write_text("\n".join(lines + [lines[last_send].replace('"ts": ', '"ts": 1')]) + "\n")
    replay = ReplayTransport(extra)
    quickstart(replay, monkeypatch)
    with pytest.raises(ReplayDivergence, match=r"was never replayed"):
        replay.finish()
