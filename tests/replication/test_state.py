"""Unit tests of ReplicationState: anti-entropy, persistence, event logging.

Two :class:`ReplicationState` instances are driven directly (no engine, no
transport) so every protocol exchange — envelope, digest, pull, ack — is
visible and individually droppable.  There is no scheduler here, so the test
is the clock: every ``flush`` and every delivery says which cycle it is.
"""

import json
import random

from repro.core.facts import Fact
from repro.net.events import NetEventLog
from repro.replication.state import ReplicationState
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
)
from repro.store.memory import MemoryBackend

F1 = Fact("r", "bob", (1,))
F2 = Fact("r", "bob", (2,))
F3 = Fact("r", "bob", (3,))


def fact_message(*inserted, deleted=()):
    return FactMessage(sender="alice", recipient="bob",
                       inserted=frozenset(inserted), deleted=frozenset(deleted))


def exchange(sender, receiver, messages, now=0):
    """Deliver protocol messages to their handler; returns engine effects."""
    effects = []
    for message in messages:
        if isinstance(message, DeltaEnvelopeMessage):
            target = receiver if message.recipient == receiver.peer else sender
            effects.extend(target.apply_envelope(message, now))
        elif isinstance(message, ReplicationDigestMessage):
            receiver.on_digest(message.sender, message.frontier, now)
        elif isinstance(message, ReplicationPullMessage):
            sender.on_pull(message.sender, message.want)
        elif isinstance(message, ReplicationAckMessage):
            sender.on_ack(message.sender, message.acked)
    return effects


class TestCleanPath:
    def test_envelope_then_ack_reaches_quiescence(self):
        alice = ReplicationState("alice")
        bob = ReplicationState("bob")
        alice.encode_outgoing([fact_message(F1, F2)])
        out = alice.flush(1)
        assert len(out) == 1 and isinstance(out[0], DeltaEnvelopeMessage)
        effects = exchange(alice, bob, out, now=2)
        assert set(effects) == {("insert", F1), ("insert", F2)}
        # bob queued an ack; his flush ships it; alice prunes
        assert bob.needs_attention(2)
        exchange(alice, bob, bob.flush(2), now=3)
        assert not alice.unsettled() and not alice.needs_attention(3)
        assert not bob.unsettled() and not bob.needs_attention(3)
        assert alice.outbox("bob").log == {}


class TestLossRepair:
    def test_lost_envelope_recovered_by_digest_and_pull(self):
        alice = ReplicationState("alice", digest_interval=2)
        bob = ReplicationState("bob")
        alice.encode_outgoing([fact_message(F1)])
        assert alice.needs_attention(1)  # an op to send
        lost = alice.flush(1)  # envelope DROPPED by the adversary
        assert len(lost) == 1
        # the unacked channel keeps alice from settling, but she only waits:
        # nothing to do until the digest falls due, two cycles on
        assert alice.unsettled()
        assert not alice.needs_attention(2) and alice.flush(2) == []
        assert alice.needs_attention(3)
        digests = alice.flush(3)
        assert isinstance(digests[0], ReplicationDigestMessage)
        exchange(alice, bob, digests, now=3)
        pulls = bob.flush(3)
        assert isinstance(pulls[0], ReplicationPullMessage)
        assert pulls[0].want == (1,)
        exchange(alice, bob, pulls, now=4)
        repair = alice.flush(4)
        assert exchange(alice, bob, repair, now=4) == [("insert", F1)]
        exchange(alice, bob, bob.flush(4), now=5)
        assert not alice.unsettled() and not bob.unsettled()
        assert not alice.needs_attention(5) and not bob.needs_attention(5)

    def test_lost_ack_recovered_by_digest_reack(self):
        alice = ReplicationState("alice", digest_interval=2)
        bob = ReplicationState("bob")
        alice.encode_outgoing([fact_message(F1)])
        exchange(alice, bob, alice.flush(1), now=2)
        bob.flush(2)  # ack DROPPED
        # bob owes nothing more; alice, unacknowledged, waits for her timer
        assert not bob.unsettled() and alice.unsettled()
        assert alice.flush(2) == []
        digests = alice.flush(3)
        assert isinstance(digests[0], ReplicationDigestMessage)
        exchange(alice, bob, digests, now=4)  # complete channel: re-ack
        exchange(alice, bob, bob.flush(4), now=5)
        assert alice.outbox("bob").acked == 1
        assert not alice.unsettled() and not alice.needs_attention(5)

    def test_duplicated_envelope_is_noop(self):
        alice = ReplicationState("alice")
        bob = ReplicationState("bob")
        alice.encode_outgoing([fact_message(F1)])
        envelope = alice.flush(1)[0]
        assert bob.apply_envelope(envelope, 2) == [("insert", F1)]
        assert bob.apply_envelope(envelope, 2) == []
        assert bob.counters["envelopes_applied"] == 2
        assert len(bob.inbox("alice").visible) == 1

    def test_reordered_envelopes_converge(self):
        alice = ReplicationState("alice")
        bob = ReplicationState("bob")
        alice.encode_outgoing([fact_message(F1)])
        first = alice.flush(1)[0]
        alice.encode_outgoing([fact_message(F3, deleted=(F1,))])
        second = alice.flush(2)[0]
        # the adversary delivers the later envelope first
        bob.apply_envelope(second, 3)
        bob.apply_envelope(first, 3)
        assert bob.inbox("alice").visible == {F3: {2}}


class TestPullPatience:
    def test_a_gap_is_pulled_again_only_after_the_patience_or_on_a_digest(self):
        alice = ReplicationState("alice")
        bob = ReplicationState("bob", pull_patience=2)
        envelopes = []
        for cycle, item in enumerate((F1, F2, F3), start=1):
            alice.encode_outgoing([fact_message(item)])
            envelopes.append(alice.flush(cycle)[0])
        lost, second, third = envelopes
        bob.apply_envelope(second, 4)  # a gap: pulled at once
        bob.apply_envelope(third, 5)   # same gap, one cycle on: be patient
        assert [m.want for m in bob.flush(5)] == [(1,)]
        bob.apply_envelope(third, 6)   # the patience has run out
        assert [m.want for m in bob.flush(6)] == [(1,)]
        bob.apply_envelope(third, 7)
        assert bob.flush(7) == []
        bob.on_digest("alice", 3, 7)   # a digest does not wait
        assert [m.want for m in bob.flush(7)] == [(1,)]
        assert bob.counters["pulls_sent"] == 3 and bob.unsettled()
        bob.apply_envelope(lost, 8)
        assert [m.acked for m in bob.flush(8)] == [3]
        assert not bob.unsettled()


class TestChannelLifecycle:
    def test_mark_unreachable_silences_channel(self):
        alice = ReplicationState("alice")
        alice.encode_outgoing([fact_message(F1)])
        alice.mark_unreachable("bob")
        assert alice.flush(1) == []
        assert not alice.unsettled() and not alice.needs_attention(99)

    def test_drop_channel_forgets_both_halves(self):
        alice = ReplicationState("alice")
        alice.encode_outgoing([fact_message(F1)])
        alice.inbox("bob")
        alice.drop_channel("bob")
        assert alice.outboxes == {} and alice.inboxes == {}
        assert not alice.unsettled() and not alice.needs_attention(99)


class TestPersistence:
    def test_persist_restore_roundtrip(self):
        backend = MemoryBackend()
        alice = ReplicationState("alice")
        alice.encode_outgoing([fact_message(F1, F2)])
        envelope = alice.flush(1)[0]
        alice.on_ack("bob", 1)
        alice.persist(backend)

        bob = ReplicationState("bob")
        bob.apply_envelope(envelope, 2)
        bob.persist(backend)

        alice2 = ReplicationState("alice")
        alice2.restore(backend)
        box = alice2.outbox("bob")
        assert box.seq == 2 and box.acked == 1
        # in-flight unacked ops retransmit after a crash
        assert box.last_sent == 1
        assert [op.seq for op in box.take_unsent()] == [2]
        assert sorted(box.live, key=str) == sorted((F1, F2), key=str)

        bob2 = ReplicationState("bob")
        bob2.restore(backend)
        inbox = bob2.inbox("alice")
        assert inbox.cc.base == 2
        assert inbox.visible == {F1: {1}, F2: {2}} or len(inbox.visible) == 2
        # the retransmitted duplicate is absorbed
        assert bob2.apply_envelope(envelope, 3) == []

    def test_dropped_channel_removed_from_backend(self):
        backend = MemoryBackend()
        alice = ReplicationState("alice")
        alice.encode_outgoing([fact_message(F1)])
        alice.flush(1)
        alice.persist(backend)
        assert backend.load_meta("replication")
        alice.drop_channel("bob")
        alice.persist(backend)
        assert backend.load_meta("replication") == []

    def test_persist_skips_clean_channels(self):
        backend = MemoryBackend()
        alice = ReplicationState("alice")
        alice.encode_outgoing([fact_message(F1)])
        alice.flush(1)
        alice.persist(backend)
        records = dict(backend.load_meta("replication"))
        assert json.loads(records["out:bob"]) == {"seq": 1, "acked": 0}
        for key in records:
            backend.save_meta("replication", key, "SENTINEL")
        alice.persist(backend)  # nothing dirty: must not overwrite a row
        assert set(dict(backend.load_meta("replication")).values()) == {"SENTINEL"}
        assert len(records) == 3  # sanity: header, log op, live dot


class TestEventLog:
    def test_joins_digests_pulls_and_acks_are_recorded_with_their_cycle(self):
        log = NetEventLog()
        alice = ReplicationState("alice", digest_interval=1, event_log=log)
        bob = ReplicationState("bob", event_log=log)
        alice.encode_outgoing([fact_message(F1)])
        alice.flush(1)  # envelope dropped
        exchange(alice, bob, alice.flush(2), now=3)  # digest arrives
        exchange(alice, bob, bob.flush(3), now=4)    # pull
        exchange(alice, bob, alice.flush(4), now=5)  # repair envelope
        events = log.events()
        # (alice digests every cycle here, so the repair travels with one)
        assert [(e["action"], e["node"], e["ts"]) for e in events] == [
            ("digest", "alice", 2.0), ("pull", "bob", 3.0),
            ("digest", "alice", 4.0), ("pull", "bob", 5.0),
            ("join", "bob", 5.0), ("ack", "bob", 5.0)]
        assert events[-1]["origin"] == "alice" and events[-1]["acked"] == 1


class TestLossyMeshWithChurn:
    def test_every_follower_converges_to_its_producers_live_sets(self):
        """40 producers each replicate 20 waves of inserts and deletes to
        three of 80 followers over a mesh that drops 15 % of all messages;
        halfway, ten followers depart and ten joiners are bootstrapped from
        a sponsor's live set.  Every survivor ends holding exactly what its
        producers hold."""
        rng = random.Random(7)
        producers = [f"prod{i:03d}" for i in range(40)]
        followers = [f"repl{i:03d}" for i in range(80)]
        followers_of = {name: rng.sample(followers, 3) for name in producers}
        live = {name: set() for name in producers}
        states = {name: ReplicationState(name, journal=False)
                  for name in producers + followers}
        mailboxes = {}
        loss = random.Random(7)
        cycle = 0

        def pump():
            nonlocal cycle
            cycle += 1
            for state in list(states.values()):
                for message in mailboxes.pop(state.peer, ()):
                    if isinstance(message, DeltaEnvelopeMessage):
                        state.apply_envelope(message, cycle)
                    elif isinstance(message, ReplicationDigestMessage):
                        state.on_digest(message.sender, message.frontier, cycle)
                    elif isinstance(message, ReplicationPullMessage):
                        state.on_pull(message.sender, message.want)
                    else:
                        state.on_ack(message.sender, message.acked)
                for message in state.flush(cycle):
                    if loss.random() >= 0.15:
                        mailboxes.setdefault(message.recipient, []).append(message)

        def ship(sender, recipient, inserted, deleted=()):
            states[sender].encode_outgoing([FactMessage(
                sender=sender, recipient=recipient,
                inserted=frozenset(inserted), deleted=frozenset(deleted))])

        departed = rng.sample(followers, 10)
        sponsors = rng.sample(producers, 10)
        for wave in range(20):
            for name in producers:
                gained = {Fact("replica", name, (name, wave * 8 + i)) for i in range(8)}
                lost = set(sorted(live[name], key=str)[:2])
                live[name] = (live[name] - lost) | gained
                for follower in followers_of[name]:
                    ship(name, follower, gained, lost)
            if wave == 10:
                for victim in departed:
                    del states[victim]
                    mailboxes.pop(victim, None)
                    for name in producers:
                        if victim in followers_of[name]:
                            followers_of[name].remove(victim)
                        states[name].drop_channel(victim)
                for index, sponsor in enumerate(sponsors):
                    joiner = f"join{index:03d}"
                    states[joiner] = ReplicationState(joiner, journal=False)
                    followers_of[sponsor].append(joiner)
                    ship(sponsor, joiner, live[sponsor])
            pump()
            pump()

        while cycle < 4000 and (any(mailboxes.values())
                                or any(s.unsettled() for s in states.values())):
            pump()
        assert not any(mailboxes.values())
        assert not any(state.unsettled() for state in states.values())
        expected = {}
        for name in producers:
            for follower in followers_of[name]:
                expected.setdefault(follower, set()).update(live[name])
        replicas = {name: set().union(*(box.visible for box in state.inboxes.values()))
                    for name, state in states.items() if name not in producers}
        assert {name: facts for name, facts in replicas.items() if facts} == expected

