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
reference implementation; built with ``event_log=NetEventLog()`` it records
every send, drop and deliver together with the message, for debugging, tests
and replay.  The protocol is intentionally synchronous and round-based; the
asyncio TCP transport (:class:`~repro.net.tcp.TcpTransport`) adapts its
sockets to it at the round boundary.
"""

from __future__ import annotations

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
