"""The deterministic in-memory transport.

Messages sent during a round are queued and become visible to their recipient
``latency`` rounds later (default: the next round).  The transport keeps
detailed accounting — number of messages, payload items, per-kind and
per-link counters — which the benchmark harness reads to reproduce the
paper's qualitative claims (how much data moves, and between whom).

An optional drop probability (with a seeded random generator) supports the
failure-injection tests; a transport built with no fault promises
exactly-once, in-order delivery, so its peers ship raw messages.

:class:`InMemoryTransport` is the reference implementation of the
:class:`~repro.runtime.transport.Transport` protocol.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import TransportError
from repro.runtime.messages import Message

#: The settings that break exactly-once, in-order delivery when non-zero.
_FAULT_FIELDS = frozenset(("drop_probability", "duplicate_probability",
                           "latency_jitter", "reorder_window"))


@dataclass
class NetworkStats:
    """Counters accumulated by the network since creation (or the last reset)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    payload_items: int = 0
    by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_link: Dict[Tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view used by the benchmark reports."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "payload_items": self.payload_items,
            "by_kind": dict(self.by_kind),
            "by_link": {f"{s}->{r}": count for (s, r), count in self.by_link.items()},
        }


class InMemoryTransport:
    """A simulated network with per-round delivery.

    Parameters
    ----------
    latency:
        Number of rounds between sending and delivery.  ``1`` (default) means
        a message sent during round *t* is readable at round *t + 1*, which
        matches the stage semantics of the paper (step 3 of one stage feeds
        step 1 of the recipient's next stage).
    drop_probability:
        Probability that a message is silently dropped, for failure-injection
        tests.  ``0.0`` by default.
    seed:
        Seed of the random generator used for drops (and duplicates/jitter).
    duplicate_probability:
        Probability that a queued message is delivered *twice* (an extra
        copy is queued), modelling at-least-once networks.  ``0.0`` by
        default.
    latency_jitter:
        Maximum extra delivery latency, in rounds: each queued message waits
        ``latency + uniform(0..latency_jitter)`` rounds, so messages can
        overtake each other.  ``0`` by default.
    shuffle_seed:
        When not ``None``, each :meth:`receive` batch is returned in a
        seeded-random order instead of send order — the adversarial
        reordering knob of the confluence tests.
    loss_probability:
        Alias of ``drop_probability`` (the replication literature's name for
        the same knob).  At most one of the two may be given.
    reorder_window:
        Bounded in-batch reordering: each :meth:`receive` batch is sorted by
        ``index + uniform(0, reorder_window)``, so a message can be displaced
        by at most ``reorder_window`` positions.  Unlike ``shuffle_seed``
        (unbounded permutation) this models real-network reordering where
        displacement is limited.  ``0`` (off) by default.
    event_log:
        An optional :class:`~repro.net.events.NetEventLog` (or anything with
        its ``emit`` signature).  Every ``send``/``drop``/``dup``/``deliver``
        and ``register``/``unregister`` decision is recorded; the ``send``,
        ``drop`` and ``deliver`` records carry the :class:`Message` itself
        (``message``, written to a JSONL file as its ``to_wire()`` form), so
        a run can be replayed, audited or diffed against another from its
        record.  Timestamps are virtual (the transport round).

    The delivery promise is fixed at construction: setting a fault field of
    a transport that made it raises ``ValueError`` (its peers ship raw
    messages, which the fault would lose).
    """

    _exactly_once = False  # until the constructor decides

    def __init__(self, latency: int = 1, drop_probability: float = 0.0,
                 seed: Optional[int] = 0,
                 duplicate_probability: float = 0.0,
                 latency_jitter: int = 0,
                 shuffle_seed: Optional[int] = None,
                 loss_probability: Optional[float] = None,
                 reorder_window: int = 0,
                 event_log=None):
        if loss_probability is not None:
            if drop_probability:
                raise ValueError(
                    "pass drop_probability or loss_probability, not both"
                )
            drop_probability = loss_probability
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be within [0, 1]")
        if latency_jitter < 0:
            raise ValueError("latency_jitter must be >= 0")
        if reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")
        self.latency = latency
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.latency_jitter = latency_jitter
        self.reorder_window = reorder_window
        self.event_log = event_log
        self._random = random.Random(seed)
        self._shuffle = (random.Random(shuffle_seed)
                         if shuffle_seed is not None else None)
        self._round = 0
        self._registered: Dict[str, str] = {}
        # recipient -> list of (deliver_at_round, message)
        self._in_flight: Dict[str, List[Tuple[int, Message]]] = defaultdict(list)
        self.stats = NetworkStats()
        self._exactly_once = not (drop_probability or duplicate_probability
                                  or latency_jitter or reorder_window
                                  or shuffle_seed is not None)

    @property
    def exactly_once_in_order(self) -> bool:
        """``True`` when built with no loss, duplication, jitter or reordering."""
        return self._exactly_once

    def __setattr__(self, name, value):
        if value and name in _FAULT_FIELDS and self.exactly_once_in_order:
            raise ValueError(f"this transport promised exactly-once, in-order "
                             f"delivery; build it with {name}={value!r} instead")
        object.__setattr__(self, name, value)

    def _emit(self, action: str, node: str, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(action, node, float(self._round), **fields)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, peer: str, address: Optional[str] = None) -> None:
        """Register a peer so that messages can be addressed to it."""
        self._registered[peer] = address or peer
        self._emit("register", peer)

    def unregister(self, peer: str) -> None:
        """Remove a peer; undelivered messages to it are dropped."""
        self._registered.pop(peer, None)
        dropped = self._in_flight.pop(peer, [])
        self.stats.messages_dropped += len(dropped)
        self._emit("unregister", peer, undelivered=len(dropped))

    def peers(self) -> Tuple[str, ...]:
        """Registered peer names, sorted."""
        return tuple(sorted(self._registered))

    def is_registered(self, peer: str) -> bool:
        """``True`` when ``peer`` is registered."""
        return peer in self._registered

    def address_of(self, peer: str) -> Optional[str]:
        """The registered address of ``peer`` (or ``None``)."""
        return self._registered.get(peer)

    # ------------------------------------------------------------------ #
    # sending and receiving
    # ------------------------------------------------------------------ #

    @property
    def current_round(self) -> int:
        """The current round number (starts at 0, advanced by :meth:`advance_round`)."""
        return self._round

    def send(self, message: Message) -> bool:
        """Queue a message for delivery.

        Returns ``True`` if the message was queued, ``False`` if it was
        dropped by the loss model.  Raises :class:`TransportError` when the
        recipient is unknown.
        """
        if message.recipient not in self._registered:
            raise TransportError(
                f"cannot deliver message from {message.sender}: unknown peer "
                f"{message.recipient!r}"
            )
        self.stats.messages_sent += 1
        self.stats.by_kind[message.kind()] += 1
        self.stats.by_link[(message.sender, message.recipient)] += 1
        self.stats.payload_items += message.payload_size()
        if self.drop_probability and self._random.random() < self.drop_probability:
            self.stats.messages_dropped += 1
            self._emit("drop", message.sender, message_id=message.message_id,
                       kind=message.kind(), peer=message.recipient,
                       message=message)
            return False
        copies = 1
        if (self.duplicate_probability
                and self._random.random() < self.duplicate_probability):
            copies = 2
            self._emit("dup", message.sender, message_id=message.message_id,
                       kind=message.kind(), peer=message.recipient)
        self._emit("send", message.sender, message_id=message.message_id,
                   kind=message.kind(), peer=message.recipient,
                   payload=message.payload_size(), message=message)
        for _ in range(copies):
            deliver_at = self._round + self.latency
            if self.latency_jitter:
                deliver_at += self._random.randint(0, self.latency_jitter)
            self._in_flight[message.recipient].append((deliver_at, message))
        return True

    def send_all(self, messages: Iterable[Message]) -> int:
        """Send a batch of messages; returns how many were queued (not dropped)."""
        queued = 0
        for message in messages:
            if self.send(message):
                queued += 1
        return queued

    def receive(self, peer: str) -> List[Message]:
        """Remove and return the messages deliverable to ``peer`` at the current round."""
        pending = self._in_flight.get(peer, [])
        deliverable = [m for deliver_at, m in pending if deliver_at <= self._round]
        remaining = [(deliver_at, m) for deliver_at, m in pending if deliver_at > self._round]
        self._in_flight[peer] = remaining
        if self._shuffle is not None:
            self._shuffle.shuffle(deliverable)
        elif self.reorder_window and len(deliverable) > 1:
            # Bounded displacement: each message drifts forward by at most
            # ``reorder_window`` positions (stable sort on a jittered index).
            jittered = [(i + self._random.uniform(0, self.reorder_window), m)
                        for i, m in enumerate(deliverable)]
            jittered.sort(key=lambda pair: pair[0])
            deliverable = [m for _, m in jittered]
        self.stats.messages_delivered += len(deliverable)
        for m in deliverable:
            self._emit("deliver", peer, message_id=m.message_id,
                       kind=m.kind(), peer_from=m.sender, message=m)
        return deliverable

    def advance_round(self) -> int:
        """Move to the next round and return its number."""
        self._round += 1
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        """Number of messages still in flight (optionally for one recipient)."""
        if peer is not None:
            return len(self._in_flight.get(peer, []))
        return sum(len(queue) for queue in self._in_flight.values())

    def due_count(self, peer: str) -> int:
        """Messages deliverable to ``peer`` at the current round.

        Unlike :meth:`pending_count`, messages still riding out their latency
        are not counted — event-driven schedulers use this to avoid waking a
        peer before its messages are actually deliverable.
        """
        pending = self._in_flight.get(peer)
        if not pending:
            return 0
        return sum(1 for deliver_at, _ in pending if deliver_at <= self._round)

    def has_in_flight(self) -> bool:
        """``True`` when at least one message has not been delivered yet."""
        return any(self._in_flight.values())

    def reset_stats(self) -> NetworkStats:
        """Return the current statistics and start fresh counters."""
        stats = self.stats
        self.stats = NetworkStats()
        return stats
