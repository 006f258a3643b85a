"""Differential equivalence of the indexed membership table and a scanning one.

``MembershipTable`` keeps ready what its callers used to recompute — the
routable list, the suspects, the status mirror, each member's ordinal — and
the node merges a frame's updates from their wire form, samples gossip
targets over a ``range`` and sends its view without building the objects in
between.  None of that may be visible from outside: a seeded simulation is
one *chosen* delivery order, and an optimisation that picks another cannot be
told from a protocol change.

So a **reference** lives here, under ``tests/`` only: the table that answers
every question by scanning and sorting ``members`` and rebuilds its queue per
call, and the node that decodes every update of every frame into an object,
writes the candidate list out before sampling it, and sends its view as
``MemberUpdate`` objects.  A reference network and an indexed one are driven
through the same script, step by step, and must agree on every ``(dest,
address, frame)`` handed to ``_transmit``, every event, and every roster —
over loss 0 / 0.02 / 0.1 and ``suspect_timeout`` 1 s / 5 s, with a crash, a
graceful leave, a joiner with explicit seeds, a name re-added after it left,
a tombstone for a never-seen peer, a stale update that teaches an address, a
self-suspicion refuted and two suspects expiring in one tick.

Envelope ids come from a process-global counter, so two networks in one
process number differently: ids are canonicalised by first appearance.

A hypothesis state machine then drives the table alone: after any sequence of
``apply`` / ``suspect`` / ``declare_dead`` / ``expire_suspects`` / ``leave``
every index equals a rescan of ``members``.  And seeded mutants — an index
that misses an address learned, a tombstone or a refutation, exclusion holes
off by one, expiry in suspicion order — must be caught.
"""

import json
import random
import re
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.net.node as node_module
import repro.net.sim as sim_module
from repro.core.facts import Fact
from repro.net.events import NetEventLog
from repro.net.frames import DigestFrame, MemberUpdate, frame_from_wire
from repro.net.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    MembershipTable,
    SwimConfig,
    _supersedes,
)
from repro.net.node import GossipNode
from repro.net.sim import SimulatedGossipNetwork
from repro.runtime.messages import FactMessage

# --------------------------------------------------------------------------- #
# the reference: scan, sort and decode everything, every time
# --------------------------------------------------------------------------- #


class ScanningTable(MembershipTable):
    """Answers from ``members`` alone, the way the table did before it kept
    indexes (it inherits ``apply``, so the indexes exist — nothing here reads
    them)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = []

    def routable_peers(self):
        return sorted(
            name for name, member in self.members.items()
            if name != self.self_name and member.is_routable()
        )

    def peer_statuses(self):
        return {member.name: member.status for member in self.members.values()
                if member.name != self.self_name}

    def expire_suspects(self, now):
        expired = [
            name for name, member in self.members.items()
            if member.status == SUSPECT
            and now - member.changed_at >= self.config.suspect_timeout
        ]
        for name in expired:
            self.declare_dead(name, now)
        return expired

    def _enqueue(self, update):
        self._queue = [entry for entry in self._queue
                       if entry[0].peer != update.peer]
        self._queue.append([update, self.config.retransmit])

    def piggyback(self, limit=None):
        limit = self.config.piggyback_limit if limit is None else limit
        selected = []
        for entry in self._queue[:limit]:
            selected.append(entry[0])
            entry[1] -= 1
        self._queue = [entry for entry in self._queue if entry[1] > 0]
        return tuple(selected)


class ScanningNode(GossipNode):
    """Decodes every update, writes every candidate list out."""

    def __init__(self, *args, **kwargs):
        with mock.patch.object(node_module, "MembershipTable", ScanningTable):
            super().__init__(*args, **kwargs)

    def handle_frame(self, wire_frame, now):
        frame = frame_from_wire(wire_frame)  # eager: every update an object
        for update in getattr(frame, "updates", ()):
            transition = self.membership.apply(update, now)
            if transition and transition != ALIVE:
                self.events.emit(transition, self.name, now, peer=update.peer)
        bare = {key: value for key, value in wire_frame.items()
                if key != "updates"}
        return super().handle_frame(bare, now)

    def _digest_with_view(self):
        return DigestFrame(peer=self.name, ids=self.buffer.digest(),
                           updates=self.membership.full_view()).to_wire()

    def _next_probe_target(self):
        routable = set(self.membership.routable_peers())
        self._probe_ring = [p for p in self._probe_ring if p in routable]
        if not self._probe_ring:
            ring = sorted(routable)
            self._rng.shuffle(ring)
            self._probe_ring = ring
        return self._probe_ring.pop() if self._probe_ring else None

    def _sample_targets(self, count, exclude=None):
        excluded = exclude or set()
        candidates = [
            (peer, self.membership.address_of(peer))
            for peer in self.membership.routable_peers()
            if peer not in excluded
        ]
        candidates = [(p, a) for p, a in candidates if a]
        if len(candidates) <= count:
            return candidates
        return self._rng.sample(candidates, count)


def scanned_converged(net):
    """``converged()`` as nodes x nodes probes of ``members``."""
    live = set(net.nodes)
    return all(node.membership.knows(other)
               for name, node in net.nodes.items() for other in live - {name})


# --------------------------------------------------------------------------- #
# two networks, one script
# --------------------------------------------------------------------------- #


class Canon:
    """A record as JSON, its envelope ids (``origin#n``) renumbered by first
    appearance."""

    def __init__(self):
        self.seen = {}

    def __call__(self, record):
        return re.sub(
            r"#\d+",
            lambda match: self.seen.setdefault(match.group(), f"#{len(self.seen)}"),
            json.dumps(record, sort_keys=True))


class RecordedNetwork(SimulatedGossipNetwork):
    """Keeps every triple handed to ``_transmit`` (the frame as canonical
    JSON, taken on the spot); builds ``node_class`` nodes."""

    def __init__(self, node_class, **kwargs):
        super().__init__(events=NetEventLog(), **kwargs)
        self.node_class = node_class
        self.canon = Canon()
        self.transmitted = []
        self.events_compared = 0

    def add_node(self, name, seeds=None):
        with mock.patch.object(sim_module, "GossipNode", self.node_class):
            return super().add_node(name, seeds=seeds)

    def _transmit(self, outputs):
        self.transmitted.extend(
            (dest, address, self.canon(frame)) for dest, address, frame in outputs)
        super()._transmit(outputs)

    def inject(self, dest, frame):
        """``dest`` receives ``frame`` now, whatever the links lose."""
        self._transmit(self.nodes[dest].handle_frame(frame, self.now))

    def new_events(self):
        fresh = self.events.events()[self.events_compared:]
        self.events_compared += len(fresh)
        return [self.canon(event) for event in fresh]


def rosters(net):
    return {name: [(m.name, m.status, m.incarnation, m.address, m.changed_at)
                   for m in node.membership.members.values()]
            for name, node in net.nodes.items()}


def rescan(table):
    """What each index must equal, read off ``members``."""
    others = [m for m in table.members.values() if m.name != table.self_name]
    return {
        "routable": sorted(m.name for m in others if m.is_routable()),
        "suspects": {m.name for m in others if m.status == SUSPECT},
        "peer_status": [(m.name, m.status) for m in others],
        "ordinals": list(range(len(table.members))),
    }


def indexes(table):
    return {
        "routable": list(table.routable),
        "suspects": set(table._suspects),
        "peer_status": list(table._peer_status.items()),
        "ordinals": [m.ordinal for m in table.members.values()],
    }


def message(origin, recipient, tag):
    return FactMessage(sender=origin, recipient=recipient, message_id=tag,
                       inserted=frozenset({Fact("r", recipient, (tag,))}))


def updates_frame(origin, *updates):
    """A ping whose only job is to carry ``updates`` (dicts, wire form)."""
    return {"type": "ping", "origin": origin, "seq": 0,
            "updates": [MemberUpdate(*u).to_wire() for u in updates]}


NODES = [f"p{i:02d}" for i in range(12)]


def script(suspect_timeout):
    """Every way a member comes, changes and goes; see the module docstring."""
    long_enough = suspect_timeout + 4.0
    yield from (("join", name, None) for name in NODES)
    yield ("run", 2.0)
    yield from (("submit", NODES[i], NODES[(i * 5 + 3) % 12], f"a{i}")
                for i in range(4))
    yield ("run", 0.5)
    # a crash, a graceful leave and a joiner that names its seeds
    yield ("crash", "p05")
    yield ("leave", "p06")
    yield ("join", "late", ["p01", "p02", "p03"])
    yield ("run", 1.0)
    yield from (("submit", NODES[i], "late", f"b{i}") for i in (0, 7, 9))
    # tombstones for peers nobody ever saw
    yield ("inject", "p00", updates_frame("p01", ("ghost", DEAD, 3)))
    yield ("inject", "p02", updates_frame("p01", ("phantom", LEFT, 1, "sim://phantom")))
    # a suspect nobody has an address for ... which a stale alive then teaches
    yield ("inject", "p03", updates_frame("p01", ("mute", SUSPECT, 5)))
    yield ("run", 0.2)
    yield ("inject", "p03", updates_frame("p01", ("mute", ALIVE, 2, "sim://mute")))
    # a live node is suspected at p07, hears of it, refutes it, and p07
    # hears the refutation
    yield ("inject", "p07", updates_frame("p01", ("p04", SUSPECT, 7, "sim://p04")))
    yield ("run", 0.1)
    yield ("inject", "p04", updates_frame("p01", ("p04", SUSPECT, 7)))
    yield ("inject", "p07", updates_frame("p01", ("p04", ALIVE, 8, "sim://p04")))
    yield ("run", 1.0)
    # the name that left comes back (its old tombstone outranks it)
    yield ("join", "p06", ["p00"])
    # A joiner's table starts with its seeds, in order: p08 before p09.  Both
    # crash and are suspected there in one frame, p09 first — they expire in
    # one tick, and the verdicts must go out in insertion order.
    yield ("join", "late2", ["p08", "p09", "p00"])
    yield ("run", 0.5)
    yield ("crash", "p08")
    yield ("crash", "p09")
    yield ("inject", "late2", updates_frame(
        "p01", ("p09", SUSPECT, 9, "sim://p09"), ("p08", SUSPECT, 9, "sim://p08")))
    yield ("run", long_enough)
    yield from (("submit", NODES[i], NODES[(i + 1) % 4], f"c{i}")
                for i in range(4))
    yield ("run", 1.0)


def perform(net, step):
    kind = step[0]
    if kind == "join":
        net.add_node(step[1], seeds=step[2])
    elif kind == "run":
        net.run(step[1])
    elif kind == "submit":
        net.submit(step[1], message(*step[1:]))
    elif kind == "crash":
        net.remove_node(step[1], graceful=False)
    elif kind == "leave":
        net.remove_node(step[1], graceful=True)
    elif kind == "inject":
        net.inject(step[1], step[2])


def run_pair(loss, suspect_timeout, seed=5, node_class=GossipNode):
    """Drive a reference and a ``node_class`` network through the script;
    ``AssertionError`` at the first step after which they can be told apart."""
    def build(cls):
        return RecordedNetwork(cls, latency=0.005, latency_jitter=0.005,
                               drop_probability=loss, seed=seed,
                               swim=SwimConfig(suspect_timeout=suspect_timeout))

    reference, candidate = build(ScanningNode), build(node_class)
    frames = 0
    for step in script(suspect_timeout):
        perform(reference, step)
        perform(candidate, step)
        assert candidate.transmitted[frames:] == reference.transmitted[frames:], \
            f"frames differ after {step}"
        frames = len(reference.transmitted)
        assert candidate.new_events() == reference.new_events(), \
            f"events differ after {step}"
        assert rosters(candidate) == rosters(reference), f"rosters differ after {step}"
        assert (candidate.frames_sent, candidate.frames_dropped) == (
            reference.frames_sent, reference.frames_dropped)
        for name, node in candidate.nodes.items():
            table = node.membership
            assert indexes(table) == rescan(table), f"{name}'s indexes after {step}"
            assert candidate.membership_view(name) == reference.membership_view(name)
            assert table.wire_view() == [u.to_wire() for u in table.full_view()]
        assert candidate.converged() == scanned_converged(reference)
    return frames, candidate


@pytest.mark.parametrize("suspect_timeout", [1.0, 5.0])
@pytest.mark.parametrize("loss", [0.0, 0.02, 0.1])
def test_indexed_network_is_indistinguishable_from_the_scanning_one(
        loss, suspect_timeout):
    frames, net = run_pair(loss, suspect_timeout)
    assert frames > 1500
    # the script did what it says: everything it staged really happened
    actions = {(e["node"], e["action"], e.get("peer")) for e in net.events.events()}
    assert ("p00", "dead", "ghost") in actions
    assert ("p02", "left", "phantom") in actions
    assert ("p04", "refuted", "p04") in actions
    assert ("p07", "suspect", "p04") in actions
    assert net.nodes["p07"].membership.member("p04").incarnation >= 8
    dead_at_late2 = [e["peer"] for e in net.events.events("dead", "late2")
                     if e["peer"] in ("p08", "p09")]
    assert dead_at_late2 == ["p08", "p09"]
    p03 = net.nodes["p03"].membership
    assert p03.address_of("mute") == "sim://mute" and p03.status_of("mute") == DEAD
    assert net.nodes["p00"].membership.status_of("p06") == LEFT


# --------------------------------------------------------------------------- #
# the table alone: every index equals a rescan, whatever happened
# --------------------------------------------------------------------------- #

PEERS = ("self", "a", "b", "c", "d")


class TableMachine(RuleBasedStateMachine):
    """An indexed table and a scanning one, fed the same calls."""

    def __init__(self):
        super().__init__()
        config = SwimConfig(suspect_timeout=1.0, retransmit=2, piggyback_limit=2)
        self.table = MembershipTable("self", "addr:self", config)
        self.reference = ScanningTable("self", "addr:self", config)
        self.now = 0.0

    def both(self, call):
        got, expected = call(self.table), call(self.reference)
        assert got == expected
        return got

    @rule(peer=st.sampled_from(PEERS),
          status=st.sampled_from((ALIVE, SUSPECT, DEAD, LEFT)),
          incarnation=st.integers(0, 3), has_address=st.booleans(),
          wire=st.booleans())
    def apply(self, peer, status, incarnation, has_address, wire):
        update = MemberUpdate(peer, status, incarnation,
                              f"addr:{peer}" if has_address else "")
        expected = self.reference.apply(update, self.now)
        if wire:
            got = self.table.merge_wire([update.to_wire()], self.now)
            assert got == ([(peer, expected)] if expected else [])
        else:
            assert self.table.apply(update, self.now) == expected

    @rule(peer=st.sampled_from(PEERS))
    def suspect(self, peer):
        self.both(lambda table: table.suspect(peer, self.now))

    @rule(peer=st.sampled_from(PEERS))
    def declare_dead(self, peer):
        self.both(lambda table: table.declare_dead(peer, self.now))

    @rule(elapsed=st.sampled_from((0.0, 0.5, 1.0)))
    def expire_suspects(self, elapsed):
        self.now += elapsed
        self.both(lambda table: table.expire_suspects(self.now))

    @rule()
    def leave(self):
        self.both(lambda table: table.leave(self.now))

    @rule()
    def piggyback(self):
        self.both(lambda table: table.piggyback())

    @invariant()
    def indexes_equal_a_rescan(self):
        assert indexes(self.table) == rescan(self.table)

    @invariant()
    def answers_equal_the_reference(self):
        self.both(lambda table: table.routable_peers())
        self.both(lambda table: table.alive_peers())
        self.both(lambda table: table.peer_statuses())
        self.both(lambda table: list(table.peer_statuses()))
        self.both(lambda table: table.full_view())
        self.both(lambda table: table.pending_updates())
        self.both(lambda table: [vars(m) for m in table.members.values()])
        assert self.table.wire_view() == [
            u.to_wire() for u in self.reference.full_view()]


TestTableIndexes = TableMachine.TestCase
TestTableIndexes.settings = settings(max_examples=60, stateful_step_count=40,
                                     deadline=None)


# --------------------------------------------------------------------------- #
# mutants: each way of getting it wrong is seen
# --------------------------------------------------------------------------- #


class ForgetsLearnedAddress(MembershipTable):
    """The stale-update-teaches-address branch does not tell the index."""

    def apply(self, update, now):
        current = self.members.get(update.peer)
        if (current is not None and update.peer != self.self_name
                and not _supersedes(update.incarnation, update.status, current)
                and update.address and not current.address):
            current.address = update.address
            return None
        return super().apply(update, now)


class ForgetsTombstones(MembershipTable):
    """A dead or left peer never seen before does not reach the index."""

    def _reindex(self, member):
        if member.status in (DEAD, LEFT) and member.name not in self._peer_status:
            return
        super()._reindex(member)


class ForgetsRefutations(MembershipTable):
    """A suspect that turns alive again stays among the suspects."""

    def _reindex(self, member):
        suspected = member.name in self._suspects
        super()._reindex(member)
        if suspected and member.status == ALIVE:
            self._suspects.add(member.name)


class ExpiresInSuspicionOrder(MembershipTable):
    """Verdicts in the order the suspicions arose, not insertion order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._suspects = _OrderedSet()

    def expire_suspects(self, now):
        expired = [name for name in self._suspects
                   if now - self.members[name].changed_at
                   >= self.config.suspect_timeout]
        for name in expired:
            self.declare_dead(name, now)
        return expired


class _OrderedSet(dict):
    def add(self, name):
        self[name] = None

    def discard(self, name):
        self.pop(name, None)


class HolesOffByOne(GossipNode):
    """``_sample_targets`` with the hole test one position late."""

    def _sample_targets(self, count, exclude=None):
        routable = self.membership.routable
        holes = sorted(routable.index(name) for name in exclude or ()
                       if name in routable)
        candidates = len(routable) - len(holes)
        picks = (range(candidates) if candidates <= count
                 else self._rng.sample(range(candidates), count))
        targets = []
        for index in picks:
            for hole in holes:
                if hole >= index:  # the seeded fault: should be ``>``
                    break
                index += 1
            targets.append((routable[index],
                            self.membership.address_of(routable[index])))
        return targets


def node_with(table_class):
    class Mutant(GossipNode):
        def __init__(self, *args, **kwargs):
            with mock.patch.object(node_module, "MembershipTable", table_class):
                super().__init__(*args, **kwargs)
    return Mutant


@pytest.mark.parametrize("mutant", [
    node_with(ForgetsLearnedAddress), node_with(ForgetsTombstones),
    node_with(ForgetsRefutations), node_with(ExpiresInSuspicionOrder),
    HolesOffByOne,
], ids=["address-learned", "tombstone", "refutation", "suspicion-order",
        "holes-off-by-one"])
def test_seeded_mutants_are_caught(mutant):
    with pytest.raises(AssertionError):
        run_pair(0.02, 1.0, node_class=mutant)


def test_the_unmutated_subclass_hook_passes():
    """The mutant harness itself is sound: a no-op subclass is not 'caught'."""
    run_pair(0.02, 1.0, node_class=node_with(MembershipTable))


def test_range_sampling_consumes_the_generator_like_list_sampling():
    """The stdlib property ``_sample_targets`` rests on, on this interpreter."""
    for size in (3, 4, 21, 22, 100, 1000):
        for count in (1, 2, 3):
            first, second = random.Random(size), random.Random(size)
            population = [f"n{i}" for i in range(size)]
            picked = first.sample(population, count)
            assert [population[i] for i in second.sample(range(size), count)] == picked
            assert first.random() == second.random()
