"""Per-peer replication state: channels, anti-entropy, persistence.

:class:`ReplicationState` is what a causal-mode peer owns.  It sits between
the peer's engine and the transport:

* **outbound** — the fact/delegation/provenance messages a stage produces are
  converted into dotted ops on per-target :class:`ChannelOutbox`\\ es
  (:meth:`encode_outgoing`), and :meth:`flush` turns the unsent ops into
  :class:`~repro.runtime.messages.DeltaEnvelopeMessage`\\ s — plus the
  anti-entropy control traffic: a digest when a channel stays unacknowledged,
  answers to pulls, and the acks/pulls queued by the inbound side;
* **inbound** — envelopes are joined through per-origin
  :class:`ChannelInbox`\\ es (:meth:`apply_envelope`); the resulting
  visibility transitions are returned for the peer to feed into the engine's
  ordinary input paths.  Gaps trigger a pull (with backoff — the op may still
  be in flight), completeness triggers an ack so the producer can prune.

The protocol terminates: once every channel is acknowledged up to its
frontier nobody sends anything, so the schedulers' quiescence detection (and
``converge()``) keeps working — a causal system simply refuses to settle
while any channel still has unacknowledged ops.

State is persisted at stage boundaries through the storage backend's meta
API (kind ``"replication"``, keys ``out:<target>`` / ``in:<origin>``) inside
the same transaction as the engine's stage commit, so a crashed peer reopens
with its dots intact: it neither reuses sequence numbers nor re-applies ops
it already joined, and whatever the crash lost in flight is repaired by
anti-entropy.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import codec
from repro.core.facts import Fact
from repro.replication.channel import ChannelInbox, ChannelOutbox, Effect
from repro.replication.dots import CausalContext
from repro.runtime import wire
from repro.runtime.messages import (
    DelegationInstallMessage,
    DelegationRetractMessage,
    DeltaEnvelopeMessage,
    FactMessage,
    Message,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
)

#: Meta kind under which channel state is persisted (see ``repro.store``).
META_KIND = "replication"

#: Stages between digests of an unacknowledged channel.
DEFAULT_DIGEST_INTERVAL = 4

#: Stages to wait before re-pulling the same gap (the op may be in flight).
DEFAULT_PULL_PATIENCE = 2


class ReplicationState:
    """The causal-replication side of one peer."""

    def __init__(self, peer: str,
                 digest_interval: int = DEFAULT_DIGEST_INTERVAL,
                 pull_patience: int = DEFAULT_PULL_PATIENCE,
                 event_log=None):
        self.peer = peer
        self.digest_interval = digest_interval
        self.pull_patience = pull_patience
        #: Optional :class:`repro.net.events.NetEventLog`-compatible sink
        #: (anything with ``emit(action, node, ts, **fields)``): joins,
        #: digests, pulls and acks are recorded for replayable schedules.
        self.event_log = event_log
        self.outboxes: Dict[str, ChannelOutbox] = {}
        self.inboxes: Dict[str, ChannelInbox] = {}
        #: Control messages (acks, pulls, pull answers) queued for the next flush.
        self._queued: List[Message] = []
        #: Replication ticks: one per local stage (drives digests and backoff).
        self.tick = 0
        self._last_digest: Dict[str, int] = {}
        self._pull_after: Dict[str, int] = {}
        #: Persisted channel keys to delete at the next persistence point.
        self._dropped_keys: List[str] = []
        self.counters: Dict[str, int] = {
            "envelopes_sent": 0,
            "envelopes_applied": 0,
            "ops_sent": 0,
            "ops_applied": 0,
            "digests_sent": 0,
            "pulls_sent": 0,
            "acks_sent": 0,
        }

    # ------------------------------------------------------------------ #
    # channel accessors
    # ------------------------------------------------------------------ #

    def outbox(self, target: str) -> ChannelOutbox:
        """The outbox of the channel to ``target`` (created on first use)."""
        box = self.outboxes.get(target)
        if box is None:
            box = self.outboxes[target] = ChannelOutbox(target)
        return box

    def inbox(self, origin: str) -> ChannelInbox:
        """The inbox of the channel from ``origin`` (created on first use)."""
        box = self.inboxes.get(origin)
        if box is None:
            box = self.inboxes[origin] = ChannelInbox(origin)
        return box

    def drop_channel(self, peer: str) -> None:
        """Forget both channel halves shared with a removed peer."""
        if self.outboxes.pop(peer, None) is not None:
            self._dropped_keys.append(f"out:{peer}")
        if self.inboxes.pop(peer, None) is not None:
            self._dropped_keys.append(f"in:{peer}")
        self._last_digest.pop(peer, None)
        self._pull_after.pop(peer, None)
        self._queued = [m for m in self._queued if m.recipient != peer]

    def mark_unreachable(self, target: str) -> None:
        """Stop replicating to a target the transport cannot deliver to.

        Mirrors the reliable-mode behaviour for wrapper-only pseudo-peers
        (their messages are counted but silently undeliverable): without
        this, an outbox to such a target would stay unacknowledged forever
        and the peer would never look quiescent.
        """
        box = self.outboxes.get(target)
        if box is not None:
            box.unreachable = True
        self._queued = [m for m in self._queued if m.recipient != target]

    # ------------------------------------------------------------------ #
    # outbound: stage outputs -> ops -> envelopes
    # ------------------------------------------------------------------ #

    def encode_outgoing(self, messages: Iterable[Message]) -> List[Message]:
        """Absorb a stage's messages into channel ops.

        Fact updates, delegation installs and retractions become dotted ops
        on the target's outbox (shipped by the next :meth:`flush`); message
        kinds replication does not manage (e.g. peer-join announcements) are
        returned for direct transmission.
        """
        passthrough: List[Message] = []
        for message in messages:
            if isinstance(message, FactMessage):
                box = self.outbox(message.recipient)
                for fact in sorted(message.inserted, key=str):
                    box.insert(fact)
                for fact in sorted(message.deleted, key=str):
                    box.delete(fact)
                for derivation in message.derivations:
                    box.derivation(derivation,
                                   anchor=derivation.fact in message.inserted)
            elif isinstance(message, DelegationInstallMessage):
                self.outbox(message.recipient).delegate(
                    message.delegation_id, message.rule, message.schemas)
            elif isinstance(message, DelegationRetractMessage):
                self.outbox(message.recipient).undelegate(message.delegation_id)
            else:
                passthrough.append(message)
        return passthrough

    def flush(self) -> List[Message]:
        """One replication tick: envelopes for new ops, digests, queued control."""
        self.tick += 1
        outgoing: List[Message] = []
        for target in sorted(self.outboxes):
            box = self.outboxes[target]
            if box.unreachable:
                continue
            ops = box.take_unsent()
            if ops:
                outgoing.append(DeltaEnvelopeMessage(
                    sender=self.peer, recipient=target,
                    ops=tuple(ops), frontier=box.frontier,
                ))
                # An envelope advertises the frontier, so it paces as a digest.
                self._last_digest[target] = self.tick
                self.counters["envelopes_sent"] += 1
                self.counters["ops_sent"] += len(ops)
            elif box.unacked and (self.tick - self._last_digest.get(target, 0)
                                  >= self.digest_interval):
                outgoing.append(ReplicationDigestMessage(
                    sender=self.peer, recipient=target, frontier=box.frontier,
                ))
                self._last_digest[target] = self.tick
                self.counters["digests_sent"] += 1
                self._emit("digest", target=target, frontier=box.frontier)
        outgoing.extend(self._queued)
        self._queued = []
        return outgoing

    # ------------------------------------------------------------------ #
    # inbound: envelopes, digests, pulls, acks
    # ------------------------------------------------------------------ #

    def apply_envelope(self, message: DeltaEnvelopeMessage) -> List[Effect]:
        """Join an envelope; returns the engine effects of new ops."""
        box = self.inbox(message.sender)
        top = max([message.frontier] + [op.seq for op in message.ops])
        box.observe_frontier(top)
        effects = box.apply_all(message.ops)
        self.counters["envelopes_applied"] += 1
        self.counters["ops_applied"] += len(message.ops)
        self._emit("join", origin=message.sender, ops=len(message.ops),
                   effects=len(effects))
        self._ack_or_pull(message.sender, box, force_pull=False)
        return effects

    def on_digest(self, origin: str, frontier: int) -> None:
        """Handle a producer digest: pull the gaps or (re-)ack completeness."""
        box = self.inbox(origin)
        box.observe_frontier(frontier)
        self._ack_or_pull(origin, box, force_pull=True, force_ack=True)

    def on_pull(self, requester: str, want: Tuple[int, ...]) -> None:
        """Answer a consumer pull from the op log (queued for the next flush)."""
        box = self.outboxes.get(requester)
        if box is None:
            return
        ops = box.ops_for(want)
        if ops:
            self._queued.append(DeltaEnvelopeMessage(
                sender=self.peer, recipient=requester,
                ops=tuple(ops), frontier=box.frontier,
            ))
            self.counters["envelopes_sent"] += 1
            self.counters["ops_sent"] += len(ops)

    def on_ack(self, origin: str, acked: int) -> None:
        """Record a consumer ack: the outbox prunes its log."""
        box = self.outboxes.get(origin)
        if box is not None:
            box.ack(acked)

    def _ack_or_pull(self, origin: str, box: ChannelInbox,
                     force_pull: bool, force_ack: bool = False) -> None:
        if box.is_complete():
            # Ack when the contiguous frontier advanced — or unconditionally
            # on a digest, because the producer digesting a complete channel
            # means the previous ack was lost.
            if box.cc.base > box.acked or (force_ack and box.cc.base > 0):
                box.acked = box.cc.base
                self._queued.append(ReplicationAckMessage(
                    sender=self.peer, recipient=origin, acked=box.cc.base,
                ))
                self.counters["acks_sent"] += 1
            return
        if force_pull or self.tick >= self._pull_after.get(origin, 0):
            want = tuple(box.missing())
            self._queued.append(ReplicationPullMessage(
                sender=self.peer, recipient=origin, want=want,
            ))
            self._pull_after[origin] = self.tick + self.pull_patience
            self.counters["pulls_sent"] += 1
            self._emit("pull", origin=origin, want=len(want))

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def needs_attention(self) -> bool:
        """``True`` while replication still has work for the next stage.

        Event-driven schedulers fold this into the peer's ``needs_stage``:
        unsent ops, unacknowledged channels (digests due), queued control
        messages and incomplete inboxes all keep the peer active, which is
        what forces the anti-entropy protocol to run to completion before
        the system can look converged.
        """
        if self._queued:
            return True
        # Asked of every peer every cycle: a quiet channel answers from its
        # counters, without a call.
        for box in self.outboxes.values():
            if not box.unreachable and (box.last_sent < box.seq
                                        or box.acked < box.seq):
                return True
        for box in self.inboxes.values():
            base = box.cc.base
            if base > box.acked or (base < box.advertised
                                    and not box.is_complete()):
                return True
        return False

    # ------------------------------------------------------------------ #
    # persistence (stage-boundary meta records)
    # ------------------------------------------------------------------ #

    def persist(self, backend) -> None:
        """Write dirty channel state through the backend's meta API.

        Called by the peer *before* the engine's stage commit, so the dots
        and the facts they delivered become durable in one transaction.
        """
        for key in self._dropped_keys:
            backend.delete_meta(META_KIND, key)
        self._dropped_keys = []
        for target, box in self.outboxes.items():
            if box.dirty:
                backend.save_meta(META_KIND, f"out:{target}", _encode_outbox(box))
                box.dirty = False
        for origin, box in self.inboxes.items():
            if box.dirty:
                backend.save_meta(META_KIND, f"in:{origin}", _encode_inbox(box))
                box.dirty = False

    def restore(self, backend) -> None:
        """Rebuild channels from persisted meta records (crash recovery).

        Restored outboxes reset their sent watermark to the acknowledged
        frontier: whatever was in flight at the crash may be lost, so every
        unacknowledged op is retransmitted — the receivers' causal contexts
        absorb the duplicates.
        """
        for key, payload in backend.load_meta(META_KIND):
            if key.startswith("out:"):
                self.outboxes[key[4:]] = _decode_outbox(key[4:], payload)
            elif key.startswith("in:"):
                self.inboxes[key[3:]] = _decode_inbox(key[3:], payload)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _emit(self, action: str, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(action, self.peer, float(self.tick), **fields)


# --------------------------------------------------------------------------- #
# channel serialisation (JSON-compatible, via the shared codec)
# --------------------------------------------------------------------------- #

def _encode_outbox(box: ChannelOutbox) -> str:
    return json.dumps({
        "seq": box.seq,
        "acked": box.acked,
        "log": [wire.encode_op(box.log[s]) for s in sorted(box.log)],
        "live": [[codec.encode_fact(fact), sorted(seqs)]
                 for fact, seqs in sorted(box.live.items(), key=lambda e: str(e[0]))],
    })


def _decode_outbox(target: str, encoded: str) -> ChannelOutbox:
    payload = json.loads(encoded)
    box = ChannelOutbox(target)
    box.seq = int(payload.get("seq", 0))
    box.acked = int(payload.get("acked", 0))
    for encoded in payload.get("log", []):
        op = wire.decode_op(encoded)
        box.log[op.seq] = op
    for encoded_fact, seqs in payload.get("live", []):
        box.live[codec.decode_fact(encoded_fact)] = set(int(s) for s in seqs)
    # Everything unacknowledged retransmits: in-flight messages died with us.
    box.last_sent = box.acked
    return box


def _encode_inbox(box: ChannelInbox) -> str:
    return json.dumps({
        "cc": box.cc.encode(),
        "visible": [[codec.encode_fact(fact), sorted(seqs)]
                    for fact, seqs in sorted(box.visible.items(),
                                             key=lambda e: str(e[0]))],
        "tombstoned": sorted(box.tombstoned),
        "delegation_seq": dict(box.delegation_seq),
        "advertised": box.advertised,
        "acked": box.acked,
    })


def _decode_inbox(origin: str, encoded: str) -> ChannelInbox:
    payload = json.loads(encoded)
    box = ChannelInbox(origin)
    box.cc = CausalContext.decode(payload.get("cc", {}))
    for encoded_fact, seqs in payload.get("visible", []):
        box.visible[codec.decode_fact(encoded_fact)] = set(int(s) for s in seqs)
    box.tombstoned = set(int(s) for s in payload.get("tombstoned", []))
    box.delegation_seq = {str(k): int(v)
                          for k, v in payload.get("delegation_seq", {}).items()}
    box.advertised = int(payload.get("advertised", 0))
    box.acked = int(payload.get("acked", 0))
    return box
