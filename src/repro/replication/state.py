"""Per-peer replication state: channels, anti-entropy, persistence.

:class:`ReplicationState` is what a causal-mode peer owns.  It sits between
the peer's engine and the transport:

* **outbound** — the update a stage produces for each recipient (facts,
  provenance, delegations) is converted into dotted ops on per-target
  :class:`ChannelOutbox`\\ es (:meth:`encode_outgoing`), and :meth:`flush`
  turns the unsent ops into
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
while any channel still has unacknowledged ops (:meth:`unsettled`).

**Time** is the scheduler's cycle count
(:attr:`repro.runtime.system.WebdamLogSystem.current_round`), handed in as
``now`` by whoever drives the state; there is no clock in here.  A peer that
is only waiting — for an ack, or for a gap to be filled — has nothing to do
until a digest falls due, and :meth:`needs_attention` says so: it answers
from small ready sets the mutators keep, not from a walk over the channels.

State is persisted at stage boundaries through the storage backend's meta
API (kind ``"replication"``) inside the same transaction as the engine's
stage commit, so a crashed peer reopens with its dots intact: it neither
reuses sequence numbers nor re-applies ops it already joined, and whatever
the crash lost in flight is repaired by anti-entropy.  What is written is the
**delta**: one small row per dot that appeared or went, plus one header row
per channel that moved (:meth:`persist` documents the keys).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core import codec
from repro.core.metrics import Metrics
from repro.replication.channel import ChannelInbox, ChannelOutbox, Effect
from repro.replication.dots import CausalContext
from repro.runtime import wire
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
    Message,
    ReplicationAckMessage,
    ReplicationDigestMessage,
    ReplicationPullMessage,
)
from repro.store.backend import StoreError

#: Meta kind under which channel state is persisted (see ``repro.store``).
META_KIND = "replication"

#: Scheduler cycles between digests of an unacknowledged channel.
DEFAULT_DIGEST_INTERVAL = 4

#: Scheduler cycles to wait before re-pulling the same gap (the op may be in
#: flight).
DEFAULT_PULL_PATIENCE = 2


class ReplicationState:
    """The causal-replication side of one peer."""

    def __init__(self, peer: str,
                 digest_interval: int = DEFAULT_DIGEST_INTERVAL,
                 pull_patience: int = DEFAULT_PULL_PATIENCE,
                 event_log=None, journal: bool = True,
                 metrics: Optional[Metrics] = None):
        self.peer = peer
        #: The registry this side counts its traffic on (see
        #: :mod:`repro.core.metrics`): the peer hands in its engine's.
        self.metrics: Metrics = metrics if metrics is not None else Counter()
        self.digest_interval = digest_interval
        self.pull_patience = pull_patience
        #: Optional :class:`repro.net.events.NetEventLog`-compatible sink
        #: (anything with ``emit(action, node, ts, **fields)``): joins,
        #: digests, pulls and acks are recorded for replayable schedules,
        #: stamped with the cycle they happened in.
        self.event_log = event_log
        #: Whether channels journal their changes for :meth:`persist`.  The
        #: owner turns it off over a backend that keeps nothing
        #: (``backend.persistent`` false): such a peer always restores from
        #: an empty store, so it neither persists nor keeps bookkeeping.
        self.journal = journal
        self.outboxes: Dict[str, ChannelOutbox] = {}
        self.inboxes: Dict[str, ChannelInbox] = {}
        #: Control messages (acks, pulls, pull answers) queued for the next flush.
        self._queued: List[Message] = []
        # The ready sets, kept by the mutators below (through ``_refile_*``)
        # so that no answer walks the channels: targets with ops awaiting
        # first transmission; unacknowledged targets and the cycle their next
        # digest falls due; origins whose inbox has a gap or owes an ack.
        self._unsent: Set[str] = set()
        self._unacked: Dict[str, int] = {}
        self._incomplete: Set[str] = set()
        #: Cycle before which a gap toward an origin is not pulled again.
        self._pull_after: Dict[str, int] = {}
        #: Channels touched since the last persistence point, by
        #: ``("out" | "in", other peer)``.
        self._touched: Dict[Tuple[str, str],
                            Union[ChannelOutbox, ChannelInbox]] = {}
        #: Persisted rows to delete at the next persistence point.
        self._dropped_keys: List[str] = []

    @property
    def counters(self) -> Counter:
        """This side's ``"replication"`` counts by name, read off the registry."""
        return Counter({name: value for (layer, name), value in self.metrics.items()
                        if layer == "replication"})

    # ------------------------------------------------------------------ #
    # channel accessors
    # ------------------------------------------------------------------ #

    def outbox(self, target: str) -> ChannelOutbox:
        """The outbox of the channel to ``target`` (created on first use)."""
        box = self.outboxes.get(target)
        if box is None:
            box = self.outboxes[target] = ChannelOutbox(target, self.journal)
        return box

    def inbox(self, origin: str) -> ChannelInbox:
        """The inbox of the channel from ``origin`` (created on first use)."""
        box = self.inboxes.get(origin)
        if box is None:
            box = self.inboxes[origin] = ChannelInbox(origin, self.journal)
        return box

    def drop_channel(self, peer: str) -> None:
        """Forget both channel halves shared with a removed peer."""
        for side, boxes in (("out", self.outboxes), ("in", self.inboxes)):
            box = boxes.pop(peer, None)
            if box is None:
                continue
            self._touched.pop((side, peer), None)
            if self.journal:
                self._dropped_keys.append(f"{side}:{peer}")
                # What the channel holds, and what it journaled away since
                # the last persistence point: the store may have either.
                self._dropped_keys.extend(
                    f"{kind}:{seq}:{peer}"
                    for kind, seq in box.rows().union(box.changes))
        self._unsent.discard(peer)
        self._unacked.pop(peer, None)
        self._incomplete.discard(peer)
        self._pull_after.pop(peer, None)
        self._queued = [m for m in self._queued if m.recipient != peer]

    def mark_unreachable(self, target: str) -> None:
        """Stop replicating to a target the transport cannot deliver to.

        Mirrors raw messages, which such a failure loses, for wrapper-only
        pseudo-peers (their messages are counted but undeliverable): without
        this, an outbox to such a target would stay unacknowledged forever
        and the peer would never look quiescent.
        """
        box = self.outboxes.get(target)
        if box is not None:
            box.unreachable = True
            self._refile_outbox(box)
        self._queued = [m for m in self._queued if m.recipient != target]

    # ------------------------------------------------------------------ #
    # outbound: stage outputs -> ops -> envelopes
    # ------------------------------------------------------------------ #

    def encode_outgoing(self, messages: Iterable[FactMessage]) -> None:
        """Absorb a stage's messages into channel ops.

        Each message's fact updates (inserts, deletes, withdrawals),
        derivations, templates, bindings and retractions become dotted ops
        on the recipient's outbox, in that order, shipped by the next
        :meth:`flush`.
        """
        for message in messages:
            box = self.outbox(message.recipient)
            for fact in sorted(message.inserted, key=str):
                box.insert(fact)
            for fact in sorted(message.deleted, key=str):
                box.delete(fact)
            for fact in sorted(message.withdrawn, key=str):
                box.delete(fact, kind="withdraw")
            for derivation in message.derivations:
                box.derivation(derivation,
                               anchor=derivation.fact in message.inserted)
            for delegation_id, rule, schemas in message.installs:
                box.delegate(delegation_id, rule, schemas)
            for binding in message.bound:
                box.insert(binding, kind="bind")
            for binding in message.unbound:
                box.delete(binding, kind="unbind")
            for delegation_id in message.retracts:
                box.undelegate(delegation_id)
            self._refile_outbox(box)

    def flush(self, now: int) -> List[Message]:
        """What this peer sends in cycle ``now``: envelopes for new ops,
        digests that fell due, queued control.

        Only the channels with something unsent or a digest due are looked
        at, in target order.
        """
        outgoing: List[Message] = []
        due = {target for target, at in self._unacked.items() if at <= now}
        for target in sorted(self._unsent | due):
            box = self.outboxes[target]
            ops = box.take_unsent()
            if ops:
                outgoing.append(DeltaEnvelopeMessage(
                    sender=self.peer, recipient=target,
                    ops=tuple(ops), frontier=box.frontier,
                ))
                self.metrics["replication", "envelopes_sent"] += 1
                self.metrics["replication", "ops_sent"] += len(ops)
            elif target in due:
                outgoing.append(ReplicationDigestMessage(
                    sender=self.peer, recipient=target, frontier=box.frontier,
                ))
                self.metrics["replication", "digests_sent"] += 1
                self._emit("digest", now, target=target, frontier=box.frontier)
            else:
                continue
            # An envelope advertises the frontier, so it paces as a digest.
            self._unacked[target] = now + self.digest_interval
        self._unsent.clear()
        outgoing.extend(self._queued)
        self._queued = []
        return outgoing

    # ------------------------------------------------------------------ #
    # inbound: envelopes, digests, pulls, acks
    # ------------------------------------------------------------------ #

    def apply_envelope(self, message: DeltaEnvelopeMessage,
                       now: int) -> List[Effect]:
        """Join an envelope; returns the engine effects of new ops."""
        box = self.inbox(message.sender)
        top = max([message.frontier] + [op.seq for op in message.ops])
        box.observe_frontier(top)
        effects = box.apply_all(message.ops)
        self.metrics["replication", "envelopes_applied"] += 1
        self.metrics["replication", "ops_applied"] += len(message.ops)
        self._emit("join", now, origin=message.sender, ops=len(message.ops),
                   effects=len(effects))
        self._ack_or_pull(box, now, force_pull=False)
        return effects

    def on_digest(self, origin: str, frontier: int, now: int) -> None:
        """Handle a producer digest: pull the gaps or (re-)ack completeness."""
        box = self.inbox(origin)
        box.observe_frontier(frontier)
        self._ack_or_pull(box, now, force_pull=True, force_ack=True)

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
            self.metrics["replication", "envelopes_sent"] += 1
            self.metrics["replication", "ops_sent"] += len(ops)

    def on_ack(self, origin: str, acked: int) -> None:
        """Record a consumer ack: the outbox prunes its log."""
        box = self.outboxes.get(origin)
        if box is not None:
            box.ack(acked)
            self._refile_outbox(box)

    def _ack_or_pull(self, box: ChannelInbox, now: int,
                     force_pull: bool, force_ack: bool = False) -> None:
        origin, base = box.origin, box.cc.base
        if box.is_complete():
            # Ack when the contiguous frontier advanced — or unconditionally
            # on a digest, because the producer digesting a complete channel
            # means the previous ack was lost.
            if base > box.acked or (force_ack and base > 0):
                box.acked = base
                self._queued.append(ReplicationAckMessage(
                    sender=self.peer, recipient=origin, acked=base,
                ))
                self.metrics["replication", "acks_sent"] += 1
                self._emit("ack", now, origin=origin, acked=base)
        elif force_pull or now >= self._pull_after.get(origin, 0):
            want = tuple(box.missing())
            self._queued.append(ReplicationPullMessage(
                sender=self.peer, recipient=origin, want=want,
            ))
            self._pull_after[origin] = now + self.pull_patience
            self.metrics["replication", "pulls_sent"] += 1
            self._emit("pull", now, origin=origin, want=len(want))
        self._refile_inbox(box)

    def _refile_inbox(self, box: ChannelInbox) -> None:
        """Put ``box`` where its counters say it belongs in the ready sets."""
        if box.cc.base > box.acked or not box.is_complete():
            self._incomplete.add(box.origin)
        else:
            self._incomplete.discard(box.origin)
        if self.journal:
            self._touched["in", box.origin] = box

    def _refile_outbox(self, box: ChannelOutbox) -> None:
        target = box.target
        if box.last_sent < box.seq and not box.unreachable:
            self._unsent.add(target)
        else:
            self._unsent.discard(target)
        if box.unacked:
            # No timer yet: the flush that ships the new ops starts one.
            self._unacked.setdefault(target, 0)
        else:
            self._unacked.pop(target, None)
        if self.journal:
            self._touched["out", target] = box

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def needs_attention(self, now: int) -> bool:
        """``True`` when a stage in cycle ``now`` would send something.

        Event-driven schedulers fold this into the peer's ``needs_stage``:
        queued control, ops awaiting their first transmission, or a digest
        that falls due this cycle.  A peer that is merely *waiting* — for an
        ack, or for a gap to be filled — answers ``False`` and runs no stage
        until its digest is due; that it has not settled is :meth:`unsettled`.
        """
        if self._queued or self._unsent:
            return True
        for due in self._unacked.values():
            if due <= now:
                return True
        return False

    def unsettled(self) -> bool:
        """``True`` while any channel is short of its frontier.

        Unsent ops, unacknowledged outboxes, inboxes with a gap or an ack
        owed, queued control: the anti-entropy protocol must run to
        completion before the system may look converged, however long the
        peer spends waiting in between.
        """
        return bool(self._queued or self._unsent or self._unacked
                    or self._incomplete)

    # ------------------------------------------------------------------ #
    # persistence (stage-boundary meta records)
    # ------------------------------------------------------------------ #

    def persist(self, backend) -> None:
        """Write what changed since the last persistence point.

        Called by the peer *before* the engine's stage commit, so the dots
        and the facts they delivered become durable in one transaction.
        Rows (meta kind ``"replication"``), all keyed with the channel's
        other peer last so a peer name may hold any character:

        * ``out:<target>`` — header, ``{"seq", "acked"}``;
        * ``op:<seq>:<target>`` — one unacknowledged op of the log (its wire
          encoding), deleted when the ack that covers it arrives;
        * ``live:<seq>:<target>`` — one live insert dot (its fact), deleted
          by the deletion that observed it;
        * ``in:<origin>`` — header, ``{"cc", "advertised", "acked"}``;
        * ``vis:<seq>:<origin>`` — one surviving dot of a visible fact;
        * ``tomb:<seq>:<origin>`` — one dot deleted ahead of its insert;
        * ``dg:<seq>:<origin>`` — one delegation's watermark (the id, under
          the seq of the op that won).

        A header also holds its channel's rule dictionary, once it has one.

        A stage writes the rows its ops and acks touched plus the header of
        each channel that moved; a channel that did not move costs nothing.
        """
        if not self.journal:
            return
        for key in self._dropped_keys:
            backend.delete_meta(META_KIND, key)
        self._dropped_keys = []
        for (side, peer), box in self._touched.items():
            if not box.dirty:
                continue
            for (kind, seq), value in box.changes.items():
                key = f"{kind}:{seq}:{peer}"
                if value is None:
                    backend.delete_meta(META_KIND, key)
                else:
                    backend.save_meta(META_KIND, key, _encode_row(kind, value))
            box.changes.clear()
            backend.save_meta(META_KIND, f"{side}:{peer}",
                              json.dumps(box.header()))
            box.dirty = False
        self._touched.clear()

    def restore(self, backend) -> None:
        """Rebuild channels from their persisted rows (crash recovery).

        Restored outboxes reset their sent watermark to the acknowledged
        frontier: whatever was in flight at the crash may be lost, so every
        unacknowledged op is retransmitted — the receivers' causal contexts
        absorb the duplicates.  Rows are read in any order.  There is no
        reader for the whole-channel blobs older versions stored under the
        header keys: such a store is refused, not migrated.
        """
        for key, payload in backend.load_meta(META_KIND):
            kind, _, rest = key.partition(":")
            if kind in ("out", "in"):
                header = json.loads(payload)
                if "log" in header or "visible" in header:
                    raise StoreError(
                        f"replication record {key!r} is a whole-channel blob "
                        "of an older version; there is no migration to the "
                        "row format")
                if kind == "out":
                    box = self.outbox(rest)
                    box.seq, box.acked = int(header["seq"]), int(header["acked"])
                    box.rules = {rule_id: (index, named_at)
                                 for index, rule_id, named_at in header.get("rules", ())}
                else:
                    box = self.inbox(rest)
                    box.cc = CausalContext.decode(header["cc"])
                    box.advertised = int(header["advertised"])
                    box.acked = int(header["acked"])
                    box.rules = {index: rule_id
                                 for index, rule_id in header.get("rules", ())}
                continue
            seq, _, peer = rest.partition(":")
            seq = int(seq)
            if kind == "op":
                self.outbox(peer).log[seq] = wire.decode_op(json.loads(payload))
            elif kind == "live":
                fact = codec.decode_fact(json.loads(payload))
                self.outbox(peer).live.setdefault(fact, set()).add(seq)
            elif kind == "vis":
                fact = codec.decode_fact(json.loads(payload))
                self.inbox(peer).visible.setdefault(fact, set()).add(seq)
            elif kind == "tomb":
                self.inbox(peer).tombstoned.add(seq)
            elif kind == "dg":
                self.inbox(peer).delegation_seq[payload] = seq
            else:
                raise StoreError(f"unknown replication record {key!r}")
        for box in self.outboxes.values():
            # Everything unacknowledged retransmits: in-flight messages died
            # with us.
            box.last_sent = box.acked
            self._refile_outbox(box)
        for box in self.inboxes.values():
            self._refile_inbox(box)
        self._touched.clear()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _emit(self, action: str, now: int, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(action, self.peer, float(now), **fields)


# --------------------------------------------------------------------------- #
# row serialisation (JSON, via the shared codecs)
# --------------------------------------------------------------------------- #

def _encode_row(kind: str, value) -> str:
    """The payload of one journaled row (see :data:`channel.Journal`)."""
    if kind == "op":
        return json.dumps(wire.encode_op(value))
    if kind in ("live", "vis"):
        return json.dumps(codec.encode_fact(value))
    return value if kind == "dg" else ""  # a tombstone is all key
