"""A causal stage costs what changed: rows, ready sets and crash points.

:class:`~repro.replication.state.ReplicationState` persists a channel as the
**delta** since the last persistence point (one row per dot plus a header)
and answers the scheduler from **ready sets** its mutators keep.  Both are
bookkeeping beside the channels, so both are held to the channels here:

* a hypothesis state machine drives two states through every mutator —
  insert / delete / re-insert / delegate / undelegate / derivation ops,
  envelopes, digests, pulls and acks delivered out of order, duplicated or
  lost, partial and stale acks, ``drop_channel``, ``mark_unreachable`` — and
  after **every** step the ready sets, ``needs_attention``, ``unsettled`` and
  the next ``flush`` equal what a walk over the channels says (the way the
  state answered before it kept the sets); after every ``persist`` a fresh
  ``restore`` from the rows equals the live channels field by field.  It runs
  on a dict-backed store and on a *path-backed* SQLite store (the only
  backends a peer persists to: ``:memory:`` SQLite says ``persistent`` false);
* the cost is pinned by count, not clock: one more insert writes the same
  rows and bytes on a channel of 1 000 live facts as on one of 10, and an ack
  writes no fact at all;
* on durable SQLite an ``abort()`` between ``persist`` and ``commit`` reopens
  to the previous persistence point, facts and dots agreeing.
"""

import json
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import InMemoryTransport, system
from repro.core import codec
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.provenance.graph import Derivation
from repro.replication.state import META_KIND, ReplicationState
from repro.runtime import wire
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
)
from repro.store.backend import StoreError
from repro.store.memory import MemoryBackend
from repro.store.sqlite import SqliteBackend

from tests.fakes import UnpromisedTransport

PEERS = ("alice", "bob")
RULE = parse_rule("seen@bob($x) :- item@bob($x)")


def other(peer):
    return PEERS[1 - PEERS.index(peer)]


def fact(owner, value):
    return Fact("item", owner, (value,))


# --------------------------------------------------------------------------- #
# the reference: walk the channels, every time
# --------------------------------------------------------------------------- #


def channel_fields(state):
    """Every persisted field of every channel, in a comparable form (a
    channel nothing ever travelled on has no row and is left out)."""
    return {
        "out": {target: {"seq": box.seq, "acked": box.acked,
                         "log": {seq: wire.encode_op(op)
                                 for seq, op in box.log.items()},
                         "live": {str(f): set(dots)
                                  for f, dots in box.live.items()}}
                for target, box in state.outboxes.items() if box.seq},
        "in": {origin: {"cc": (box.cc.base, set(box.cc.extras)),
                        "visible": {str(f): set(dots)
                                    for f, dots in box.visible.items()},
                        "tombstoned": set(box.tombstoned),
                        "delegation_seq": dict(box.delegation_seq),
                        "advertised": box.advertised, "acked": box.acked}
               for origin, box in state.inboxes.items() if box.advertised},
    }


def expected_rows(state):
    """The keys the store must hold for ``state``'s channels — no orphans."""
    keys = set()
    for target, box in state.outboxes.items():
        if box.seq:
            keys.add(f"out:{target}")
            keys.update(f"op:{seq}:{target}" for seq in box.log)
            keys.update(f"live:{seq}:{target}"
                        for dots in box.live.values() for seq in dots)
    for origin, box in state.inboxes.items():
        if box.advertised:
            keys.add(f"in:{origin}")
            keys.update(f"vis:{seq}:{origin}"
                        for dots in box.visible.values() for seq in dots)
            keys.update(f"tomb:{seq}:{origin}" for seq in box.tombstoned)
            keys.update(f"dg:{seq}:{origin}"
                        for seq in box.delegation_seq.values())
    return keys


def rescan(state):
    """The ready sets as a walk over the channels finds them."""
    reachable = {target: box for target, box in state.outboxes.items()
                 if not box.unreachable}
    return {
        "unsent": {t for t, box in reachable.items() if box.last_sent < box.seq},
        "unacked": {t for t, box in reachable.items() if box.acked < box.seq},
        "incomplete": {o for o, box in state.inboxes.items()
                       if box.cc.base > box.acked or not box.is_complete()},
    }


def ready_sets(state):
    return {"unsent": set(state._unsent), "unacked": set(state._unacked),
            "incomplete": set(state._incomplete)}


def scanned_unsettled(state):
    found = rescan(state)
    return bool(state._queued or found["unsent"] or found["unacked"]
                or found["incomplete"])


def scanned_attention(state, now):
    """Something to send this cycle: queued control, an op never sent (or
    one an ack overtook — one flush clears the mark), a digest due."""
    return bool(state._queued) or any(
        box.last_sent < box.seq
        or (box.acked < box.seq and state._unacked[target] <= now)
        for target, box in state.outboxes.items() if not box.unreachable)


def scanned_flush(state, now):
    """What ``flush(now)`` must send, from a sorted walk over every outbox:
    ``(kind, recipient, seqs or frontier)`` per message, queued control last."""
    expected = []
    for target in sorted(state.outboxes):
        box = state.outboxes[target]
        if box.unreachable:
            continue
        unsent = [seq for seq in range(box.last_sent + 1, box.seq + 1)
                  if seq in box.log]
        if unsent:
            expected.append(("DeltaEnvelopeMessage", target, tuple(unsent)))
        elif box.acked < box.seq and state._unacked[target] <= now:
            expected.append(("ReplicationDigestMessage", target, box.frontier))
    return expected + [described(message) for message in state._queued]


def described(message):
    if isinstance(message, DeltaEnvelopeMessage):
        detail = tuple(op.seq for op in message.ops)
    elif isinstance(message, ReplicationDigestMessage):
        detail = message.frontier
    elif isinstance(message, ReplicationPullMessage):
        detail = message.want
    else:
        detail = message.acked
    return (message.kind(), message.recipient, detail)


# --------------------------------------------------------------------------- #
# stores
# --------------------------------------------------------------------------- #


class RecordingStore(MemoryBackend):
    """A dict-backed store that says it keeps what it is given, and counts."""

    persistent = True

    def __init__(self):
        super().__init__()
        self.written = []   # (key, payload) of every save since reset()
        self.deleted = []

    def save_meta(self, kind, key, payload):
        self.written.append((key, payload))
        super().save_meta(kind, key, payload)

    def delete_meta(self, kind, key):
        self.deleted.append(key)
        super().delete_meta(kind, key)

    def reset(self):
        self.written, self.deleted = [], []

    def bytes_written(self):
        return sum(len(payload) for _, payload in self.written)


# --------------------------------------------------------------------------- #
# the machine
# --------------------------------------------------------------------------- #


class ChannelMachine(RuleBasedStateMachine):
    """Two states, one adversary between them, a store under each."""

    def __init__(self):
        super().__init__()
        self.states = {name: ReplicationState(name, digest_interval=2)
                       for name in PEERS}
        self.stores = {name: self.open_store(name) for name in PEERS}
        self.in_flight = []
        self.now = 1

    def open_store(self, name):
        return RecordingStore()

    # -- ops ------------------------------------------------------------------ #

    @rule(sender=st.sampled_from(PEERS),
          inserted=st.sets(st.integers(0, 3), max_size=2),
          deleted=st.sets(st.integers(0, 3), max_size=2),
          explained=st.booleans())
    def emit(self, sender, inserted, deleted, explained):
        target = other(sender)
        gained = frozenset(fact(target, v) for v in inserted)
        derivations = tuple(
            Derivation(fact=f, rule_id="r", support=(fact(sender, 9),))
            for f in sorted(gained, key=str)) if explained else ()
        message = FactMessage(
            sender=sender, recipient=target, inserted=gained,
            deleted=frozenset(fact(target, v) for v in deleted - inserted),
            derivations=derivations)
        self.states[sender].encode_outgoing([message])

    @rule(sender=st.sampled_from(PEERS), which=st.integers(0, 1),
          install=st.booleans())
    def delegation(self, sender, which, install):
        if install:
            message = FactMessage(sender=sender, recipient=other(sender),
                                  installs=((f"d{which}", RULE, ()),))
        else:
            message = FactMessage(sender=sender, recipient=other(sender),
                                  retracts=(f"d{which}",))
        self.states[sender].encode_outgoing([message])

    # -- the wire ---------------------------------------------------------------- #

    @rule(sender=st.sampled_from(PEERS))
    def flush(self, sender):
        state = self.states[sender]
        expected = scanned_flush(state, self.now)
        sent = state.flush(self.now)
        assert [described(message) for message in sent] == expected
        self.in_flight.extend(sent)

    @rule(pick=st.integers(0, 50), duplicate=st.booleans())
    def deliver(self, pick, duplicate):
        if not self.in_flight:
            return
        index = pick % len(self.in_flight)
        message = (self.in_flight[index] if duplicate
                   else self.in_flight.pop(index))
        state = self.states[message.recipient]
        if isinstance(message, DeltaEnvelopeMessage):
            state.apply_envelope(message, self.now)
        elif isinstance(message, ReplicationDigestMessage):
            state.on_digest(message.sender, message.frontier, self.now)
        elif isinstance(message, ReplicationPullMessage):
            state.on_pull(message.sender, message.want)
        else:
            state.on_ack(message.sender, message.acked)

    @rule(pick=st.integers(0, 50))
    def lose(self, pick):
        if self.in_flight:
            self.in_flight.pop(pick % len(self.in_flight))

    @rule(sender=st.sampled_from(PEERS), acked=st.integers(0, 12))
    def ack_out_of_thin_air(self, sender, acked):
        """Partial, stale and beyond-the-frontier acks."""
        self.states[sender].on_ack(other(sender), acked)

    # -- lifecycle ------------------------------------------------------------------ #

    @rule(sender=st.sampled_from(PEERS))
    def drop_channel(self, sender):
        self.states[sender].drop_channel(other(sender))

    @rule(sender=st.sampled_from(PEERS))
    def mark_unreachable(self, sender):
        self.states[sender].mark_unreachable(other(sender))

    @rule()
    def tick(self):
        self.now += 1

    @rule(who=st.sampled_from(PEERS))
    def persist(self, who):
        state, store = self.states[who], self.stores[who]
        state.persist(store)
        self.assert_restores(state, store)
        assert all(not box.dirty and box.changes == {}
                   for boxes in (state.outboxes, state.inboxes)
                   for box in boxes.values())

    def assert_restores(self, state, store):
        restored = ReplicationState(state.peer, digest_interval=2)
        restored.restore(store)
        assert channel_fields(restored) == channel_fields(state)
        assert {key for key, _ in store.load_meta(META_KIND)} == expected_rows(state)
        # in-flight work died with the process: everything unacked goes again
        assert all(box.last_sent == box.acked
                   for box in restored.outboxes.values())
        assert ready_sets(restored) == rescan(restored)
        assert restored._touched == {}

    # -- after every step ------------------------------------------------------------- #

    @invariant()
    def ready_sets_equal_a_rescan(self):
        for state in self.states.values():
            assert ready_sets(state) == rescan(state)
            assert state.unsettled() == scanned_unsettled(state)
            assert state.needs_attention(self.now) == scanned_attention(
                state, self.now)
            if scanned_flush(state, self.now):
                assert state.needs_attention(self.now)

    def teardown(self):
        for who in PEERS:
            self.persist(who)


class DurableChannelMachine(ChannelMachine):
    """The same script over path-backed SQLite, reopened at the end."""

    def __init__(self):
        self.directory = tempfile.mkdtemp(prefix="repro-channels-")
        super().__init__()

    def open_store(self, name):
        return SqliteBackend(f"{self.directory}/{name}.db")

    def teardown(self):
        try:
            super().teardown()
            for who, store in self.stores.items():
                store.close()
                reopened = SqliteBackend(store.path)
                self.assert_restores(self.states[who], reopened)
                reopened.close()
        finally:
            for store in self.stores.values():
                store.close()
            shutil.rmtree(self.directory, ignore_errors=True)


TestChannelRowsOnADict = ChannelMachine.TestCase
TestChannelRowsOnADict.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestChannelRowsOnSqlite = DurableChannelMachine.TestCase
TestChannelRowsOnSqlite.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None)


def emit(sender, inserted=(), deleted=()):
    return ("emit", dict(sender=sender, inserted=set(inserted),
                         deleted=set(deleted), explained=False))


def step(name, **arguments):
    return (name, arguments)


#: Scripts every run replays, one per row kind that is written in one stage
#: and removed in another: ``(rule, arguments)`` steps, or a check of the
#: state the script is there to reach.
SCRIPTED = {
    "a delete overtakes its insert and leaves a tombstone, for a while": (
        emit("alice", inserted=[1]), step("flush", sender="alice"),
        emit("alice", deleted=[1]), step("flush", sender="alice"),
        step("deliver", pick=1, duplicate=False), step("persist", who="bob"),
        lambda m: m.states["bob"].inbox("alice").tombstoned == {1},
        step("deliver", pick=0, duplicate=False), step("persist", who="bob"),
        lambda m: m.states["bob"].inbox("alice").tombstoned == set(),
    ),
    "a delegation retracted and installed again moves its watermark row": (
        step("delegation", sender="alice", which=0, install=True),
        step("flush", sender="alice"), step("deliver", pick=0, duplicate=False),
        step("persist", who="bob"),
        step("delegation", sender="alice", which=0, install=False),
        step("delegation", sender="alice", which=0, install=True),
        step("flush", sender="alice"), step("deliver", pick=0, duplicate=True),
        step("persist", who="bob"),
        lambda m: m.states["bob"].inbox("alice").delegation_seq == {"d0": 3},
    ),
    "a fact deleted and inserted again between two acks": (
        emit("alice", inserted=[1, 2]), step("flush", sender="alice"),
        step("persist", who="alice"),
        emit("alice", deleted=[1]), emit("alice", inserted=[1]),
        step("ack_out_of_thin_air", sender="alice", acked=2),
        step("persist", who="alice"),
        lambda m: m.states["alice"].outbox("bob").live == {
            fact("bob", 2): {2}, fact("bob", 1): {4}},
        step("ack_out_of_thin_air", sender="alice", acked=1),  # stale
        step("ack_out_of_thin_air", sender="alice", acked=9),  # past the frontier
        step("persist", who="alice"),
        lambda m: m.states["alice"].outbox("bob").log == {},
    ),
    "a channel dropped with unpersisted changes, then used again": (
        emit("alice", inserted=[1, 2]), step("flush", sender="alice"),
        step("deliver", pick=0, duplicate=True), step("persist", who="alice"),
        step("persist", who="bob"), emit("alice", deleted=[2]),
        step("drop_channel", sender="alice"), step("drop_channel", sender="bob"),
        emit("alice", inserted=[3]), step("flush", sender="alice"),
        step("deliver", pick=1, duplicate=False),
        step("persist", who="alice"), step("persist", who="bob"),
        lambda m: m.states["alice"].outbox("bob").seq == 1,
    ),
}


@pytest.mark.parametrize("script", sorted(SCRIPTED))
@pytest.mark.parametrize("machine", ["ChannelMachine", "DurableChannelMachine"])
def test_scripted_channel_histories(machine, script):
    running = globals()[machine]()
    try:
        for entry in SCRIPTED[script]:
            if callable(entry):
                assert entry(running)
                continue
            name, arguments = entry
            getattr(running, name)(**arguments)
            running.ready_sets_equal_a_rescan()
    finally:
        running.teardown()


# --------------------------------------------------------------------------- #
# the cost, by count
# --------------------------------------------------------------------------- #


def loaded_channel(live_facts):
    """alice -> bob holding ``live_facts`` acknowledged live facts, persisted."""
    alice, store = ReplicationState("alice"), RecordingStore()
    alice.encode_outgoing([FactMessage(
        sender="alice", recipient="bob",
        inserted=frozenset(fact("bob", v) for v in range(live_facts)))])
    alice.flush(1)
    alice.on_ack("bob", live_facts)
    alice.persist(store)
    store.reset()
    return alice, store


class TestAStageWritesWhatChanged:
    def test_one_more_insert_costs_the_same_on_a_large_channel(self):
        costs = {}
        for size in (10, 1000):
            alice, store = loaded_channel(size)
            alice.encode_outgoing([FactMessage(
                sender="alice", recipient="bob",
                inserted=frozenset([fact("bob", 4242)]))])
            alice.flush(2)
            alice.persist(store)
            header = dict(store.written)["out:bob"]
            costs[size] = (sorted(key.split(":")[0] for key, _ in store.written),
                           store.bytes_written() - len(header), store.deleted)
        # the header row, the log op, the live dot — whatever the channel holds
        assert costs[10][0] == ["live", "op", "out"]
        assert costs[1000][0] == costs[10][0]
        # ... and the same bytes, but for the digits of the op row's seq
        assert costs[1000][1] == costs[10][1] + len("1001") - len("11")
        assert costs[1000][2] == costs[10][2] == []

    def test_an_ack_writes_no_fact(self):
        alice, store = ReplicationState("alice"), RecordingStore()
        alice.encode_outgoing([FactMessage(
            sender="alice", recipient="bob",
            inserted=frozenset(fact("bob", v) for v in range(50)))])
        alice.flush(1)
        alice.persist(store)
        assert len(store.written) == 1 + 50 + 50
        store.reset()
        alice.on_ack("bob", 30)
        alice.persist(store)
        assert store.written == [("out:bob", json.dumps({"seq": 50, "acked": 30}))]
        assert sorted(store.deleted) == sorted(f"op:{s}:bob" for s in range(1, 31))
        assert len(alice.outbox("bob").log) == 20

    def test_a_quiet_stage_writes_nothing(self):
        alice, store = loaded_channel(10)
        alice.flush(2)
        alice.on_ack("bob", 3)  # stale
        alice.persist(store)
        assert store.written == [] and store.deleted == []

    def test_a_receiver_writes_one_row_per_dot(self):
        alice, bob, store = ReplicationState("alice"), ReplicationState("bob"), RecordingStore()
        alice.encode_outgoing([FactMessage(
            sender="alice", recipient="bob",
            inserted=frozenset(fact("bob", v) for v in range(200)))])
        bob.apply_envelope(alice.flush(1)[0], 2)
        bob.persist(store)
        store.reset()
        alice.encode_outgoing([FactMessage(
            sender="alice", recipient="bob",
            inserted=frozenset([fact("bob", 4242)]),
            deleted=frozenset([fact("bob", 7)]))])
        bob.apply_envelope(alice.flush(3)[0], 4)
        bob.persist(store)
        assert sorted(key for key, _ in store.written) == ["in:alice", "vis:201:alice"]
        assert store.deleted == [f"vis:{alice.outbox('bob').log[202].removed[0]}:alice"]

    def test_dropping_a_channel_deletes_every_row_of_it(self):
        alice, store = loaded_channel(20)
        alice.encode_outgoing([FactMessage(
            sender="alice", recipient="bob", deleted=frozenset([fact("bob", 3)]))])
        alice.drop_channel("bob")  # before the deletion was ever persisted
        alice.persist(store)
        assert store.load_meta(META_KIND) == []

    def test_a_peer_on_a_store_that_keeps_nothing_keeps_no_books(self):
        deployment = (system().transport(UnpromisedTransport()).storage("memory")
                      .peer("a").program("collection ext persistent item@a(x);\n"
                                         "rule item@b($x) :- item@a($x);")
                      .peer("b").program("collection ext persistent item@b(x);")
                      .build())
        deployment.peer("a").insert(Fact("item", "a", (1,)))
        assert deployment.converge().converged
        for name in ("a", "b"):
            peer = deployment.runtime.peer(name)
            state = peer.replication
            assert not state.journal and state._touched == {}
            assert state._dropped_keys == []
            assert all(box.changes is None
                       for boxes in (state.outboxes, state.inboxes)
                       for box in boxes.values())
            assert peer.engine.state.backend.load_meta(META_KIND) == []
        assert deployment.runtime.peer("a").replication.outbox("b").seq == 1

    def test_a_whole_channel_blob_of_an_older_version_is_refused(self):
        store = RecordingStore()
        store.save_meta(META_KIND, "out:bob", json.dumps(
            {"seq": 1, "acked": 0, "live": [],
             "log": [{"seq": 1, "kind": "insert",
                      "fact": codec.encode_fact(fact("bob", 1))}]}))
        with pytest.raises(StoreError, match="no migration"):
            ReplicationState("alice").restore(store)


# --------------------------------------------------------------------------- #
# a crash between persist and commit
# --------------------------------------------------------------------------- #

CHAIN = {
    "alice": "collection extensional persistent src@alice(item);\n"
             "rule mid@bob($x) :- src@alice($x);",
    "bob": "collection extensional persistent mid@bob(item);\n"
           "rule sink@carol($x) :- mid@bob($x);",
    "carol": "collection intensional sink@carol(item);",
}


class Crash(Exception):
    pass


def durable_chain(path, seed):
    builder = (system().storage("sqlite", path=str(path))
               .transport(InMemoryTransport(loss_probability=0.2,
                                            duplicate_probability=0.2, seed=seed)))
    for name, program in CHAIN.items():
        builder.peer(name).program(program)
    return builder.build()


def facts_and_dots(deployment):
    """What a reopened peer must agree with itself on: the facts its store
    holds for a fed relation are the facts its inbox's dots say are visible
    (and, ``mid`` being extensional, those the sender withdrew), and the
    channel fields are what they are."""
    bob = deployment.runtime.peer("bob")
    return {
        "channels": {name: channel_fields(deployment.runtime.peer(name).replication)
                     for name in CHAIN},
        "mid@bob": {str(f) for f in bob.query("mid")},
        "visible at bob": {str(f) for f in bob.replication.inbox("alice").visible},
    }


class TestCrashBetweenPersistAndCommit:
    @pytest.mark.parametrize("crash_at", [1, 2, 3])
    def test_reopens_to_the_previous_persistence_point(self, tmp_path, crash_at):
        def until_the_crash(deployment):
            for item in "abc":
                deployment.peer("alice").insert(f'src@alice("{item}")')
                assert deployment.converge(max_steps=400).converged
            deployment.peer("alice").delete('src@alice("b")')
            deployment.peer("alice").insert('src@alice("d")')
            return deployment

        reference = until_the_crash(durable_chain(tmp_path / "reference", seed=5))
        assert reference.converge(max_steps=400).converged
        uninterrupted = reference.snapshot()
        reference.close()

        deployment = until_the_crash(durable_chain(tmp_path, seed=5))

        # bob dies the crash_at-th time he has written his rows but not yet
        # committed them; what he held when his last stage committed is what
        # must come back
        bob = deployment.runtime.peer("bob")
        persist, committed, stages = bob.replication.persist, [], []
        committed.append(facts_and_dots(deployment))
        deployment.runtime.add_stage_observer(
            lambda name, _report: name == "bob"
            and committed.append(facts_and_dots(deployment)))

        def persist_then_die(backend):
            persist(backend)
            stages.append(facts_and_dots(deployment))
            if len(stages) == crash_at:
                backend.abort()
                raise Crash

        bob.replication.persist = persist_then_die
        with pytest.raises(Crash):
            deployment.converge(max_steps=400)
        before, lost = committed[-1], stages[-1]
        # stage 1 joined alice's envelope and shipped to carol, stage 2 took
        # carol's ack, stage 3 only absorbed a duplicate
        assert (lost["channels"]["bob"] != before["channels"]["bob"]) == (crash_at < 3)
        for name in ("alice", "carol"):
            deployment.runtime.peer(name).close()

        reopened = durable_chain(tmp_path, seed=6)
        after = facts_and_dots(reopened)
        assert after["channels"]["bob"] == before["channels"]["bob"]
        # alice withdrew b, which bob's extensional mid keeps once it arrives
        withdrawn = {'mid@bob("b")'}
        assert after["mid@bob"] - withdrawn == after["visible at bob"] - withdrawn
        assert after["mid@bob"] == before["mid@bob"]
        # ... and anti-entropy repairs what the crash lost in flight
        assert reopened.converge(max_steps=400).converged
        repaired = facts_and_dots(reopened)
        assert repaired["mid@bob"] == repaired["visible at bob"] | withdrawn
        assert reopened.snapshot() == uninterrupted
        reopened.close()
