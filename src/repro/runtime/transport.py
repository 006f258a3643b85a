"""The transport seam of the runtime.

:class:`Transport` is the structural protocol that
:class:`~repro.runtime.system.WebdamLogSystem` (and anything else that moves
:class:`~repro.runtime.messages.Message` objects between peers) programs
against.  It captures the three responsibilities of a round-based transport:

* **deliver** — accept messages addressed to registered peers (:meth:`send` /
  :meth:`send_all`), honouring whatever latency or loss model the
  implementation provides;
* **collect** — hand a peer the messages due to it at the current round
  (:meth:`receive`), with :meth:`advance_round` marking round boundaries;
* **stats** — expose the accounting (:class:`NetworkStats`) that benchmarks
  and tests read.

:class:`~repro.runtime.inmemory.InMemoryTransport` is the deterministic
reference implementation; :class:`RecordingTransport` decorates any transport
with a structured event log (useful for debugging, tests and replay).  The
protocol is intentionally synchronous and round-based; the asyncio TCP
transport (:class:`~repro.net.tcp.TcpTransport`) adapts its sockets to it at
the round boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Tuple, runtime_checkable

from repro.runtime.inmemory import NetworkStats
from repro.runtime.messages import Message


@runtime_checkable
class Transport(Protocol):
    """What the system orchestrator requires from a message transport.

    Optional read-only attribute: ``exactly_once_in_order``, ``True`` when
    every message arrives exactly once and in send order.  Peers ship raw
    messages only over such a transport; any other, or one that does not
    declare it, gets causal replication (:mod:`repro.replication`).
    """

    #: Accumulated counters (messages sent/delivered/dropped, payload items).
    stats: NetworkStats

    # -- registration -------------------------------------------------- #

    def register(self, peer: str, address: Optional[str] = None) -> None:
        """Make ``peer`` addressable."""

    def unregister(self, peer: str) -> None:
        """Remove ``peer``; undelivered messages to it are dropped."""

    def peers(self) -> Tuple[str, ...]:
        """Registered peer names, sorted."""

    def is_registered(self, peer: str) -> bool:
        """``True`` when ``peer`` is registered."""

    # -- deliver ------------------------------------------------------- #

    def send(self, message: Message) -> bool:
        """Queue a message; ``False`` when the loss model dropped it."""

    def send_all(self, messages: Iterable[Message]) -> int:
        """Queue a batch; returns how many were accepted."""

    # -- collect ------------------------------------------------------- #

    def receive(self, peer: str) -> List[Message]:
        """Remove and return the messages due to ``peer`` at this round."""

    def advance_round(self) -> int:
        """Mark the end of a round; returns the new round number."""

    def pending_count(self, peer: Optional[str] = None) -> int:
        """Messages still in flight (optionally for one recipient)."""

    def has_in_flight(self) -> bool:
        """``True`` while at least one message is undelivered.

        Optional extension: transports that model latency may additionally
        expose ``due_count(peer) -> int`` — the messages deliverable *now* —
        which event-driven schedulers use for exact peer activation.  It is
        not part of the protocol so minimal transports stay conformant; the
        schedulers fall back to :meth:`pending_count`.
        """

    # -- stats --------------------------------------------------------- #

    def reset_stats(self) -> NetworkStats:
        """Return the counters accumulated so far and start fresh ones."""


@dataclass(frozen=True)
class TransportEvent:
    """One entry of a :class:`RecordingTransport` log."""

    round_number: int
    action: str  # "send", "drop", "deliver", "register", "unregister"
    peer: str
    message: Optional[Message] = None


class RecordingTransport:
    """A decorator that logs every operation of an inner transport.

    The wrapped transport's semantics are unchanged — same delivery order,
    same latency, same loss model, same delivery promise — so a system
    driven through a ``RecordingTransport(InMemoryTransport())`` reaches
    exactly the same fixpoint as one driven through the bare transport.  The
    ``events`` list holds :class:`TransportEvent` records in the order they
    happened.

    ``log_path`` additionally streams every event to a JSONL file in the
    shared network-event format of :class:`repro.net.events.NetEventLog`
    (one object per line: ``ts`` is the round number, ``node`` the peer,
    ``action`` the event kind) — the same sink the TCP transport and the
    gossip simulator write, so one tool chain reads all three.
    """

    def __init__(self, inner: Transport, log_path: Optional[str] = None):
        self.inner = inner
        self.events: List[TransportEvent] = []
        self._round = 0
        self._event_log = None
        if log_path is not None:
            # Imported lazily: repro.runtime must stay importable without
            # repro.net (and net imports runtime, so a module-level import
            # here would cycle during package initialisation).
            from repro.net.events import NetEventLog
            self._event_log = NetEventLog(path=log_path, keep_in_memory=False)

    # -- registration -------------------------------------------------- #

    def register(self, peer: str, address: Optional[str] = None) -> None:
        self.inner.register(peer, address)
        self._log("register", peer)

    def unregister(self, peer: str) -> None:
        self.inner.unregister(peer)
        self._log("unregister", peer)

    def peers(self) -> Tuple[str, ...]:
        return self.inner.peers()

    def is_registered(self, peer: str) -> bool:
        return self.inner.is_registered(peer)

    # -- deliver ------------------------------------------------------- #

    def send(self, message: Message) -> bool:
        queued = self.inner.send(message)
        self._log("send" if queued else "drop", message.recipient, message)
        return queued

    def send_all(self, messages: Iterable[Message]) -> int:
        return sum(1 for message in messages if self.send(message))

    # -- collect ------------------------------------------------------- #

    def receive(self, peer: str) -> List[Message]:
        delivered = self.inner.receive(peer)
        for message in delivered:
            self._log("deliver", peer, message)
        return delivered

    def advance_round(self) -> int:
        self._round = self.inner.advance_round()
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        return self.inner.pending_count(peer)

    def due_count(self, peer: str) -> int:
        inner_due = getattr(self.inner, "due_count", None)
        if inner_due is not None:
            return inner_due(peer)
        return self.inner.pending_count(peer)

    def has_in_flight(self) -> bool:
        return self.inner.has_in_flight()

    # -- stats --------------------------------------------------------- #

    @property
    def exactly_once_in_order(self) -> bool:
        return getattr(self.inner, "exactly_once_in_order", False)

    @property
    def stats(self) -> NetworkStats:
        return self.inner.stats

    def reset_stats(self) -> NetworkStats:
        return self.inner.reset_stats()

    # -- log access ---------------------------------------------------- #

    def events_of(self, action: str) -> List[TransportEvent]:
        """The recorded events of one kind (``"send"``, ``"deliver"``, ...)."""
        return [event for event in self.events if event.action == action]

    def clear_events(self) -> List[TransportEvent]:
        """Return the log recorded so far and start a fresh one."""
        events = self.events
        self.events = []
        return events

    def close(self) -> None:
        """Close the JSONL sink (and the inner transport, when it has one)."""
        if self._event_log is not None:
            self._event_log.close()
        inner_close = getattr(self.inner, "close", None)
        if callable(inner_close):
            inner_close()

    def _log(self, action: str, peer: str, message: Optional[Message] = None) -> None:
        self.events.append(TransportEvent(
            round_number=self._round, action=action, peer=peer, message=message,
        ))
        if self._event_log is not None:
            fields = {}
            if message is not None:
                fields = {"message_id": message.message_id,
                          "kind": message.kind(), "sender": message.sender,
                          "recipient": message.recipient}
            self._event_log.emit(action, peer, float(self._round), **fields)
