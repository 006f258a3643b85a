"""Confluence of causal replication under adversarial delivery.

The tentpole property of :mod:`repro.replication`: whatever seeded schedule
of message **drop, duplication, reordering and partition** the in-memory
transport injects, a deployment over it — causal, because a faulty transport
promises no exactly-once delivery — reaches the *byte-identical* fixpoint and
the identical ``explain()`` lineage of a raw-message run over a clean
transport.  The property is pinned on both storage backends and on both the
lockstep reference and the reactive driver, plus:

* hypothesis round-trips of the replication wire payloads
  (``DeltaEnvelopeMessage``, digests, pulls, acks);
* the duplicated-delegation-retraction regression (a twice-delivered
  retraction is a strict no-op the second time);
* JSONL event-log replayability of a failure schedule;
* causal crash recovery on the durable SQLite backend.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import system
from repro.core import codec
from repro.core.facts import Fact
from repro.net.events import NetEventLog, read_events
from repro.replication.dots import Op
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.transport import RecordingTransport
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
    message_from_wire,
)

from tests.fakes import UnpromisedTransport
from tests.reference_engine import lockstep

BACKENDS = ("memory", "sqlite")
DRIVERS = ("lockstep", "reactive")

PROGRAM_ALICE = '''
collection extensional persistent src@alice(item);
rule mid@bob($x) :- src@alice($x);
'''

PROGRAM_BOB = '''
collection extensional persistent mid@bob(item);
rule sink@carol($x) :- mid@bob($x);
'''

PROGRAM_CAROL = '''
collection intensional sink@carol(item);
'''

#: Mixed insert/delete script; every batch crosses the wire in its own
#: messages, so the adversary gets many independent deltas to mangle.
SCRIPT = (
    ("insert", "a"), ("insert", "b"), ("insert", "c"),
    ("delete", "b"), ("insert", "d"), ("insert", "e"),
    ("delete", "a"), ("insert", "b"), ("insert", "f"),
)


def build(transport, storage, driver, provenance=False):
    deployment = (system()
                  .transport(transport)
                  .storage(storage)
                  .provenance(provenance)
                  .peer("alice").program(PROGRAM_ALICE)
                  .peer("bob").program(PROGRAM_BOB)
                  .peer("carol").program(PROGRAM_CAROL)
                  .build())
    return lockstep(deployment) if driver == "lockstep" else deployment


def drive(deployment, script=SCRIPT, max_steps=800):
    for action, item in script:
        fact = f'src@alice("{item}")'
        if action == "insert":
            deployment.peer("alice").insert(fact)
        else:
            deployment.peer("alice").delete(fact)
        assert deployment.converge(max_steps=max_steps).converged
    return deployment


def snapshot_bytes(deployment):
    """A canonical byte string of every relation at every peer."""
    encoded = {
        peer: {relation: [codec.encode_fact(f) for f in sorted(facts, key=str)]
               for relation, facts in sorted(relations.items())}
        for peer, relations in deployment.snapshot().items()
    }
    return json.dumps(encoded, sort_keys=True).encode()


def lineage_story(deployment):
    """Normalised explain() output of every sink fact at carol."""
    stories = {}
    for fact in sorted(deployment.snapshot()["carol"].get("sink@carol", ()),
                       key=str):
        explanation = deployment.explain("carol", fact)
        stories[str(fact)] = {
            "derived": explanation.derived,
            "why": sorted(sorted(str(f) for f in alt)
                          for alt in explanation.why),
            "lineage": sorted(str(f) for f in explanation.lineage),
            "peers": sorted(explanation.peers),
        }
    return stories


@pytest.fixture(scope="module")
def reference():
    """Raw-message run over a clean transport: the confluence baseline."""
    deployment = drive(build(InMemoryTransport(), "memory", "lockstep"))
    return snapshot_bytes(deployment)


class TestConfluence:
    @pytest.mark.parametrize("storage", BACKENDS)
    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_drop_dup_reorder_reaches_reference_fixpoint(
            self, reference, storage, driver, seed):
        transport = InMemoryTransport(loss_probability=0.3,
                                      duplicate_probability=0.3,
                                      latency_jitter=2, reorder_window=4,
                                      seed=seed)
        deployment = drive(build(transport, storage, driver))
        assert snapshot_bytes(deployment) == reference
        assert transport.stats.messages_dropped > 0
        deployment.close()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_partition_heals_to_reference_fixpoint(self, reference, storage):
        # clean at first, so it must not promise exactly-once delivery
        transport = UnpromisedTransport(seed=5)
        deployment = build(transport, storage, "lockstep")
        for index, (action, item) in enumerate(SCRIPT):
            # total partition during the middle third of the script
            transport.drop_probability = 1.0 if 3 <= index < 6 else 0.0
            fact = f'src@alice("{item}")'
            if action == "insert":
                deployment.peer("alice").insert(fact)
            else:
                deployment.peer("alice").delete(fact)
            deployment.converge(max_steps=60)
        transport.drop_probability = 0.0
        assert deployment.converge(max_steps=800).converged
        assert snapshot_bytes(deployment) == reference
        deployment.close()

    def test_a_lossy_transport_gets_causal_replication_and_the_reference(self):
        """Raw messages over a lossy network cannot be built: the lossy
        transport gives every peer causal replication, and the deployment
        reaches the clean run's fixpoint."""
        lossy = build(InMemoryTransport(loss_probability=0.5, seed=17),
                      "memory", "lockstep")
        clean = build(InMemoryTransport(), "memory", "lockstep")
        assert all(peer.replication is not None
                   for peer in lossy.runtime.peers.values())
        assert all(peer.replication is None
                   for peer in clean.runtime.peers.values())
        assert snapshot_bytes(drive(lossy)) == snapshot_bytes(drive(clean))
        assert lossy.stats.messages_dropped > 0

    @pytest.mark.parametrize("seed", [7, 23])
    def test_explain_lineage_matches_the_clean_reference(self, seed):
        clean = drive(build(InMemoryTransport(), "memory", "lockstep",
                            provenance=True))
        lossy = drive(build(
            InMemoryTransport(loss_probability=0.3, duplicate_probability=0.3,
                              reorder_window=3, seed=seed),
            "memory", "lockstep", provenance=True))
        assert lineage_story(lossy) == lineage_story(clean)
        assert snapshot_bytes(lossy) == snapshot_bytes(clean)


class TestDuplicatedRetraction:
    def test_twice_delivered_retraction_is_a_noop(self):
        """Regression: a duplicated delegation-retraction delivery must not
        double-decrement anything — the second copy is a strict no-op, and a
        later re-selection re-installs and re-derives cleanly.

        A duplicating transport gets causal replication, which absorbs the
        copies before the engine sees them; to reach the raw-message path
        the test sends every delivered message a second time itself."""
        transport = RecordingTransport(InMemoryTransport())
        deployment = (system()
                      .transport(transport)
                      .provenance()
                      .peer("jules").program('''
                          collection extensional persistent selected@jules(who);
                          collection intensional wall@jules(id);
                          rule wall@jules($id) :-
                              selected@jules($a), pictures@$a($id);
                      ''')
                      .peer("emilien").program('''
                          collection extensional persistent pictures@emilien(id);
                          fact pictures@emilien(1);
                          fact pictures@emilien(2);
                      ''')
                      .build())
        emilien = deployment.runtime.peer("emilien")
        assert emilien.replication is None

        def converge_then_deliver_again():
            assert deployment.converge(max_steps=100).converged
            delivered = [event.message for event in transport.clear_events()
                         if event.action == "deliver"]
            assert delivered
            transport.send_all(delivered)
            assert deployment.converge(max_steps=100).converged

        deployment.peer("jules").insert('selected@jules("emilien")')
        converge_then_deliver_again()
        assert len(deployment.snapshot()["jules"]["wall@jules"]) == 2

        # every message is delivered twice — including the retraction
        deployment.peer("jules").delete('selected@jules("emilien")')
        converge_then_deliver_again()
        assert len(emilien.installed_delegations()) == 0
        assert deployment.snapshot()["jules"].get("wall@jules", ()) == ()

        # the state is not corrupted: re-selecting re-derives the wall
        deployment.peer("jules").insert('selected@jules("emilien")')
        assert deployment.converge(max_steps=100).converged
        assert len(deployment.snapshot()["jules"]["wall@jules"]) == 2

    def test_duplicated_undelegate_op_under_causal(self):
        """The same regression through the causal path: op-level duplicates
        are absorbed by the causal context before they reach the engine."""
        transport = InMemoryTransport(duplicate_probability=1.0, seed=2)
        deployment = (system()
                      .transport(transport)
                      .peer("jules").program('''
                          collection extensional persistent selected@jules(who);
                          collection intensional wall@jules(id);
                          rule wall@jules($id) :-
                              selected@jules($a), pictures@$a($id);
                      ''')
                      .peer("emilien").program('''
                          collection extensional persistent pictures@emilien(id);
                          fact pictures@emilien(1);
                      ''')
                      .build())
        deployment.peer("jules").insert('selected@jules("emilien")')
        assert deployment.converge(max_steps=200).converged
        deployment.peer("jules").delete('selected@jules("emilien")')
        assert deployment.converge(max_steps=200).converged
        emilien = deployment.runtime.peer("emilien")
        assert len(emilien.installed_delegations()) == 0
        deployment.peer("jules").insert('selected@jules("emilien")')
        assert deployment.converge(max_steps=200).converged
        assert len(deployment.snapshot()["jules"]["wall@jules"]) == 1


class TestEventLogReplay:
    def test_failure_schedule_replays_from_jsonl(self, tmp_path):
        """Two runs with the same seeds emit the same JSONL failure schedule
        (drop/dup/join and friends — down to the ack that closes a channel),
        so a recorded schedule is replayable."""
        def run(path):
            log = NetEventLog(path=path)
            transport = InMemoryTransport(loss_probability=0.4,
                                          duplicate_probability=0.4,
                                          seed=13, event_log=log)
            deployment = drive(build(transport, "memory", "lockstep"),
                               script=SCRIPT[:5])
            log.close()
            return deployment

        first = run(tmp_path / "first.jsonl")
        second = run(tmp_path / "second.jsonl")
        assert snapshot_bytes(first) == snapshot_bytes(second)

        def schedule(path):
            # Message ids come from a process-global counter, so they differ
            # in absolute value between runs; normalise by first appearance.
            dense = {}
            events = []
            for e in read_events(path):
                raw = e.get("message_id")
                if raw is not None and raw not in dense:
                    dense[raw] = len(dense)
                events.append((e["action"], e["node"], dense.get(raw),
                               e.get("kind"), e["ts"]))
            return events

        events = schedule(tmp_path / "first.jsonl")
        assert events == schedule(tmp_path / "second.jsonl")
        actions = {event[0] for event in events}
        assert {"send", "deliver", "drop", "dup", "join", "digest", "pull",
                "ack", "register"} <= actions


class TestCausalCrashRecovery:
    def test_sqlite_reopen_under_loss_matches_clean_reference(
            self, tmp_path, reference):
        """A durable causal deployment killed mid-script and reopened over
        the same databases still reaches the reference fixpoint, with the
        adversary active in both lives."""
        def durable(seed):
            return (system()
                    .transport(InMemoryTransport(loss_probability=0.3,
                                                 duplicate_probability=0.3,
                                                 seed=seed))
                    .storage("sqlite", path=str(tmp_path))
                    .peer("alice").program(PROGRAM_ALICE)
                    .peer("bob").program(PROGRAM_BOB)
                    .peer("carol").program(PROGRAM_CAROL)
                    .build())

        first_life = durable(seed=29)
        drive(first_life, script=SCRIPT[:5])
        first_life.close()

        second_life = durable(seed=31)
        drive(second_life, script=SCRIPT[5:])
        assert snapshot_bytes(second_life) == reference
        second_life.close()


# --------------------------------------------------------------------------- #
# hypothesis wire round-trips of the replication payloads
# --------------------------------------------------------------------------- #

identifiers = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                      max_size=8)

replicated_facts = st.builds(
    Fact,
    relation=identifiers, peer=identifiers,
    values=st.tuples(st.integers(min_value=-999, max_value=999),
                     st.text(max_size=6)),
)


@st.composite
def ops(draw):
    seq = draw(st.integers(min_value=1, max_value=10**6))
    kind = draw(st.sampled_from(("insert", "delete", "delegate",
                                 "undelegate")))
    if kind == "insert":
        return Op(seq=seq, kind=kind, fact=draw(replicated_facts))
    if kind == "delete":
        removed = tuple(sorted(draw(st.sets(
            st.integers(min_value=1, max_value=10**6), max_size=4))))
        return Op(seq=seq, kind=kind, fact=draw(replicated_facts),
                  removed=removed)
    return Op(seq=seq, kind=kind, delegation_id=draw(identifiers))


class TestWireRoundTrip:
    @given(st.lists(ops(), max_size=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=120, deadline=None)
    def test_delta_envelope_roundtrip(self, op_list, frontier):
        message = DeltaEnvelopeMessage(sender="alice", recipient="bob",
                                       ops=tuple(op_list), frontier=frontier)
        encoded = json.loads(json.dumps(message.to_wire()))
        decoded = message_from_wire(encoded)
        assert decoded == message
        assert decoded.payload_size() == len(op_list)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_digest_and_ack_roundtrip(self, value):
        digest = ReplicationDigestMessage(sender="a", recipient="b",
                                          frontier=value)
        ack = ReplicationAckMessage(sender="b", recipient="a", acked=value)
        for message in (digest, ack):
            assert message_from_wire(
                json.loads(json.dumps(message.to_wire()))) == message

    @given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_pull_roundtrip(self, want):
        message = ReplicationPullMessage(sender="b", recipient="a",
                                         want=tuple(want))
        decoded = message_from_wire(json.loads(json.dumps(message.to_wire())))
        assert decoded == message
        assert decoded.payload_size() == len(want)
