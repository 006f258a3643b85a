"""The sans-io gossip/membership node.

:class:`GossipNode` is the protocol brain of the push-gossip overlay.  The
virtual-clock simulator (:mod:`repro.net.sim`) drives it; a deployment does
not (``transport("tcp")`` sends each message straight to its recipient, see
:mod:`repro.net.tcp`).  Being sans-io, the protocol is unit-testable without
ever opening a socket.

The node never performs I/O.  Every entry point takes the current time and
returns the frames to transmit as ``(peer_name, address, wire_dict)``
triples; the caller owns delivery:

* :meth:`start` — announce this node to its seed contacts;
* :meth:`handle_frame` — process one incoming frame;
* :meth:`tick` — advance the periodic machinery (SWIM probes, suspect
  expiry, anti-entropy digests);
* :meth:`submit` — inject one application
  :class:`~repro.runtime.messages.Message` into the gossip mesh;
* :meth:`leave` — announce graceful departure.

Messages addressed to this node surface in :meth:`drain_inbox`, decoded and
deduplicated; everything the node does is reported to its
:class:`~repro.net.events.NetEventLog`.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.events import NetEventLog
from repro.net.frames import (
    AckFrame,
    DigestFrame,
    EnvelopeFrame,
    JoinFrame,
    LeaveFrame,
    MemberUpdate,
    PingFrame,
    PingReqFrame,
    PullFrame,
    frame_from_wire,
)
from repro.net.gossip import GossipBuffer, GossipConfig, next_envelope_id
from repro.net.membership import (
    ALIVE,
    LEFT,
    MembershipTable,
    SwimConfig,
)
from repro.runtime.messages import Message, message_from_wire

#: One outgoing transmission: (destination peer, destination address, frame
#: wire dictionary).
Output = Tuple[str, str, dict]


@dataclass
class _Probe:
    """One outstanding SWIM probe awaiting its ack."""

    target: str
    sent_at: float
    indirect_at: Optional[float] = None


class GossipNode:
    """One peer's protocol state: membership + gossip + failure detection."""

    def __init__(self, name: str, address: str, *,
                 gossip: Optional[GossipConfig] = None,
                 swim: Optional[SwimConfig] = None,
                 seeds: Sequence[Tuple[str, str]] = (),
                 events: Optional[NetEventLog] = None,
                 rng_seed: Optional[int] = None,
                 now: float = 0.0):
        self.name = name
        self.address = address
        self.gossip = gossip or GossipConfig()
        self.swim = swim or SwimConfig()
        self.events = events if events is not None else NetEventLog()
        self.membership = MembershipTable(name, address, self.swim, now=now)
        self.buffer = GossipBuffer(self.gossip)
        self._rng = random.Random(rng_seed if rng_seed is not None
                                  else hash(name) & 0xFFFFFFFF)
        self._seeds = tuple(seeds)
        # Seeds are provisional contacts, recorded as alive so frames can be
        # addressed to them before any protocol exchange confirms them.
        for seed_name, seed_address in self._seeds:
            if seed_name != name:
                self.membership.apply(
                    MemberUpdate(seed_name, ALIVE, 0, seed_address), now)
        self._inbox: List[Message] = []
        self._seq = 0
        self._probes: Dict[int, _Probe] = {}
        # seq of the ping we sent on behalf of someone -> (requester, their seq)
        self._relaying: Dict[int, Tuple[str, int]] = {}
        self._probe_ring: List[str] = []
        jitter = self._rng.random()
        self._next_probe_at = now + self.swim.ping_interval * (0.5 + jitter)
        self._next_anti_entropy_at = now + self.gossip.anti_entropy_interval * (
            0.5 + self._rng.random())
        self.left = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self, now: float) -> List[Output]:
        """Announce this node to its seed contacts."""
        self.events.emit("join", self.name, now, address=self.address)
        outputs: List[Output] = []
        for seed_name, seed_address in self._seeds:
            if seed_name == self.name:
                continue
            outputs.append((seed_name, seed_address, JoinFrame(
                peer=self.name, address=self.address,
                incarnation=self.membership.incarnation,
                updates=self.membership.piggyback(),
            ).to_wire()))
        return outputs

    def leave(self, now: float) -> List[Output]:
        """Announce graceful departure to a fanout of live peers."""
        update = self.membership.leave(now)
        self.left = True
        self.events.emit("leave", self.name, now)
        frame = LeaveFrame(peer=self.name,
                           incarnation=update.incarnation).to_wire()
        return [(peer, address, frame)
                for peer, address in self._sample_targets(self.gossip.fanout)]

    # ------------------------------------------------------------------ #
    # application traffic
    # ------------------------------------------------------------------ #

    def submit(self, message: Message, now: float) -> List[Output]:
        """Wrap one runtime message in an envelope and push-gossip it."""
        envelope = EnvelopeFrame(
            envelope_id=next_envelope_id(self.name),
            origin=self.name,
            recipient=message.recipient,
            hops=0,
            message=message.to_wire(),
        )
        self.events.emit("send", self.name, now,
                         envelope=envelope.envelope_id,
                         message_id=message.message_id,
                         kind=message.kind(), recipient=message.recipient)
        return self._accept_envelope(envelope, now, received_from=None)

    def drain_inbox(self) -> List[Message]:
        """Messages addressed to this node, decoded, exactly once each."""
        delivered = self._inbox
        self._inbox = []
        return delivered

    def inbox_size(self) -> int:
        return len(self._inbox)

    # ------------------------------------------------------------------ #
    # frame handling
    # ------------------------------------------------------------------ #

    def handle_frame(self, wire_frame: dict, now: float) -> List[Output]:
        """Process one incoming frame; returns the frames to send back out."""
        encoded_updates = wire_frame.get("updates")
        if encoded_updates:
            # The frame is decoded without its updates: they are merged
            # from their wire form, where most are rejected as stale
            # without ever becoming objects.
            frame = frame_from_wire({**wire_frame, "updates": ()})
            self._merge_updates(encoded_updates, now)
        else:
            frame = frame_from_wire(wire_frame)
        if isinstance(frame, JoinFrame):
            return self._on_join(frame, now)
        if isinstance(frame, LeaveFrame):
            transition = self.membership.apply(
                MemberUpdate(frame.peer, LEFT, frame.incarnation), now)
            if transition:
                self.events.emit("left", self.name, now, peer=frame.peer)
            return []
        if isinstance(frame, PingFrame):
            return self._on_ping(frame, now)
        if isinstance(frame, PingReqFrame):
            return self._on_ping_req(frame, now)
        if isinstance(frame, AckFrame):
            return self._on_ack(frame, now)
        if isinstance(frame, EnvelopeFrame):
            return self._accept_envelope(frame, now,
                                         received_from=frame.origin)
        if isinstance(frame, DigestFrame):
            return self._on_digest(frame, now)
        if isinstance(frame, PullFrame):
            return self._on_pull(frame, now)
        raise TypeError(f"unhandled frame {frame!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # periodic machinery
    # ------------------------------------------------------------------ #

    def tick(self, now: float) -> List[Output]:
        """Advance probing, suspicion expiry and anti-entropy."""
        if self.left:
            return []
        outputs: List[Output] = []
        outputs.extend(self._check_probes(now))
        for name in self.membership.expire_suspects(now):
            self.events.emit("dead", self.name, now, peer=name)
        if now >= self._next_probe_at:
            self._next_probe_at = now + self.swim.ping_interval
            outputs.extend(self._send_probe(now))
        if now >= self._next_anti_entropy_at:
            self._next_anti_entropy_at = now + self.gossip.anti_entropy_interval
            outputs.extend(self._send_digest(now))
        return outputs

    # ------------------------------------------------------------------ #
    # membership internals
    # ------------------------------------------------------------------ #

    def _merge_updates(self, encoded_updates: Sequence[dict],
                       now: float) -> None:
        for peer, transition in self.membership.merge_wire(encoded_updates,
                                                           now):
            if transition != ALIVE:
                self.events.emit(transition, self.name, now, peer=peer)

    def _on_join(self, frame: JoinFrame, now: float) -> List[Output]:
        transition = self.membership.apply(
            MemberUpdate(frame.peer, ALIVE, frame.incarnation, frame.address),
            now)
        if transition:
            self.events.emit("member-joined", self.name, now, peer=frame.peer)
        # Welcome the joiner with our whole membership view and our digest,
        # so it can pull the envelopes it missed before existing.
        return [(frame.peer, frame.address, self._digest_with_view())]

    def _send_probe(self, now: float) -> List[Output]:
        target = self._next_probe_target()
        if target is None:
            return []
        address = self.membership.address_of(target)
        if address is None:
            return []
        self._seq += 1
        self._probes[self._seq] = _Probe(target=target, sent_at=now)
        frame = PingFrame(origin=self.name, seq=self._seq,
                          updates=self.membership.piggyback()).to_wire()
        return [(target, address, frame)]

    def _next_probe_target(self) -> Optional[str]:
        # SWIM's round-robin over a shuffled ring: every member is probed
        # within one traversal, in an order fresh each cycle.
        knows = self.membership.knows
        self._probe_ring = [p for p in self._probe_ring if knows(p)]
        if not self._probe_ring:
            ring = self.membership.routable_peers()
            self._rng.shuffle(ring)
            self._probe_ring = ring
        return self._probe_ring.pop() if self._probe_ring else None

    def _check_probes(self, now: float) -> List[Output]:
        outputs: List[Output] = []
        for seq in list(self._probes):
            probe = self._probes[seq]
            status = self.membership.status_of(probe.target)
            if status not in (ALIVE,):
                del self._probes[seq]
                continue
            if probe.indirect_at is None:
                if now - probe.sent_at >= self.swim.ping_timeout:
                    probe.indirect_at = now
                    helpers = self._sample_targets(
                        self.swim.ping_req_fanout, exclude={probe.target})
                    if not helpers:
                        self._declare_suspect(probe.target, now)
                        del self._probes[seq]
                        continue
                    frame = PingReqFrame(origin=self.name,
                                         target=probe.target,
                                         seq=seq).to_wire()
                    outputs.extend((peer, address, frame)
                                   for peer, address in helpers)
            elif now - probe.indirect_at >= self.swim.ping_req_timeout:
                self._declare_suspect(probe.target, now)
                del self._probes[seq]
        return outputs

    def _declare_suspect(self, target: str, now: float) -> None:
        if self.membership.suspect(target, now):
            self.events.emit("suspect", self.name, now, peer=target)

    def _on_ping(self, frame: PingFrame, now: float) -> List[Output]:
        address = self.membership.address_of(frame.origin)
        if address is None:
            return []
        ack = AckFrame(origin=self.name, seq=frame.seq,
                       updates=self.membership.piggyback()).to_wire()
        return [(frame.origin, address, ack)]

    def _on_ping_req(self, frame: PingReqFrame, now: float) -> List[Output]:
        address = self.membership.address_of(frame.target)
        if address is None:
            return []
        self._seq += 1
        self._relaying[self._seq] = (frame.origin, frame.seq)
        ping = PingFrame(origin=self.name, seq=self._seq,
                         updates=self.membership.piggyback()).to_wire()
        return [(frame.target, address, ping)]

    def _on_ack(self, frame: AckFrame, now: float) -> List[Output]:
        acked = frame.on_behalf_of or frame.origin
        probe = self._probes.pop(frame.seq, None)
        if probe is not None:
            # The probed member answered (directly or indirectly): assert
            # aliveness so any circulating suspicion is cancelled.
            member = self.membership.member(acked)
            if member is not None and member.status != ALIVE:
                self.membership.apply(
                    MemberUpdate(acked, ALIVE, member.incarnation + 1,
                                 member.address), now)
            return []
        relay = self._relaying.pop(frame.seq, None)
        if relay is not None:
            requester, their_seq = relay
            address = self.membership.address_of(requester)
            if address is None:
                return []
            ack = AckFrame(origin=self.name, seq=their_seq,
                           on_behalf_of=frame.origin,
                           updates=self.membership.piggyback()).to_wire()
            return [(requester, address, ack)]
        return []

    # ------------------------------------------------------------------ #
    # gossip internals
    # ------------------------------------------------------------------ #

    def _accept_envelope(self, envelope: EnvelopeFrame, now: float,
                         received_from: Optional[str]) -> List[Output]:
        if not self.buffer.observe(envelope):
            self.events.emit("drop", self.name, now, reason="duplicate",
                             envelope=envelope.envelope_id)
            return []
        if envelope.recipient == self.name:
            message = message_from_wire(envelope.message)
            self._inbox.append(message)
            self.events.emit("deliver", self.name, now,
                             envelope=envelope.envelope_id,
                             message_id=message.message_id,
                             origin=envelope.origin, hops=envelope.hops)
            return []
        if envelope.hops >= self.gossip.max_hops:
            self.events.emit("drop", self.name, now, reason="ttl",
                             envelope=envelope.envelope_id)
            return []
        return self._spray(envelope, now, received_from)

    def _spray(self, envelope: EnvelopeFrame, now: float,
               received_from: Optional[str]) -> List[Output]:
        """Forward an envelope: always towards its recipient when the
        address is known, plus ``fanout`` random routable peers."""
        exclude = {self.name, envelope.origin}
        if received_from:
            exclude.add(received_from)
        targets: List[Tuple[str, str]] = []
        recipient_address = self.membership.address_of(envelope.recipient)
        if recipient_address is not None \
                and self.membership.knows(envelope.recipient):
            targets.append((envelope.recipient, recipient_address))
            exclude.add(envelope.recipient)
        targets.extend(self._sample_targets(self.gossip.fanout,
                                            exclude=exclude))
        if not targets:
            return []
        forwarded = EnvelopeFrame(
            envelope_id=envelope.envelope_id, origin=envelope.origin,
            recipient=envelope.recipient, hops=envelope.hops + 1,
            message=envelope.message,
            updates=self.membership.piggyback(),
        ).to_wire()
        self.events.emit("forward", self.name, now,
                         envelope=envelope.envelope_id,
                         targets=[peer for peer, _ in targets])
        return [(peer, address, forwarded) for peer, address in targets]

    def _send_digest(self, now: float) -> List[Output]:
        targets = self._sample_targets(1)
        if not targets:
            return []
        peer, address = targets[0]
        self.events.emit("digest", self.name, now, peer=peer,
                         ids=len(self.buffer))
        # Anti-entropy carries the full membership view, not just the
        # piggyback queue: once retransmit budgets are exhausted, this is
        # the channel that repairs membership knowledge gaps (a node the
        # flood never told about some peer learns of it here).
        return [(peer, address, self._digest_with_view())]

    def _digest_with_view(self) -> dict:
        """A digest of the buffer carrying the whole membership view."""
        frame = DigestFrame(peer=self.name, ids=self.buffer.digest()).to_wire()
        # Encoded by the table, straight from its members: a view is a
        # hundred records at a hundred peers, sent every interval.
        frame["updates"] = self.membership.wire_view()
        return frame

    def _on_digest(self, frame: DigestFrame, now: float) -> List[Output]:
        address = self.membership.address_of(frame.peer)
        if address is None:
            return []
        outputs: List[Output] = []
        # Push what the offerer lacks...
        for envelope in self.buffer.not_in(frame.ids):
            outputs.append((frame.peer, address, EnvelopeFrame(
                envelope_id=envelope.envelope_id, origin=envelope.origin,
                recipient=envelope.recipient, hops=envelope.hops,
                message=envelope.message,
            ).to_wire()))
        # ...and pull what we lack ourselves.
        want = self.buffer.missing(frame.ids)
        if want:
            self.events.emit("pull", self.name, now, peer=frame.peer,
                             count=len(want))
            outputs.append((frame.peer, address,
                            PullFrame(peer=self.name, want=want).to_wire()))
        return outputs

    def _on_pull(self, frame: PullFrame, now: float) -> List[Output]:
        address = self.membership.address_of(frame.peer)
        if address is None:
            return []
        return [
            (frame.peer, address, EnvelopeFrame(
                envelope_id=envelope.envelope_id, origin=envelope.origin,
                recipient=envelope.recipient, hops=envelope.hops,
                message=envelope.message,
            ).to_wire())
            for envelope in self.buffer.take(frame.want)
        ]

    # ------------------------------------------------------------------ #
    # target selection
    # ------------------------------------------------------------------ #

    def _sample_targets(self, count: int,
                        exclude: Optional[set] = None
                        ) -> List[Tuple[str, str]]:
        """Up to ``count`` random routable (peer, address) pairs.

        The candidates are the table's routable list minus ``exclude``, in
        name order.  They are never written out: the excluded names that
        are routable at all become *holes* (positions in the list), the
        sample is drawn over ``range(candidates)`` and each drawn index is
        shifted past the holes at or below it.  ``random.sample`` looks at
        its population only through ``len()`` and indexing, so it draws the
        same numbers from the node's generator, and picks the same
        positions, for a ``range`` as for a list of that length — the
        choice, and every later one, is what sampling the written-out
        candidates would have made.
        """
        routable = self.membership.routable
        holes = []
        for name in exclude or ():
            position = bisect_left(routable, name)
            if position < len(routable) and routable[position] == name:
                holes.append(position)
        holes.sort()
        candidates = len(routable) - len(holes)
        if candidates <= count:
            picks = range(candidates)
        else:
            picks = self._rng.sample(range(candidates), count)
        address_of = self.membership.address_of
        targets = []
        for index in picks:
            for hole in holes:
                if hole > index:
                    break
                index += 1
            peer = routable[index]
            targets.append((peer, address_of(peer)))
        return targets
