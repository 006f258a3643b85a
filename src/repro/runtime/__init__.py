"""The distributed runtime: transports, peers and the system orchestrator.

The paper's demonstration runs three peers — two laptops and a cloud-hosted
``sigmod`` peer — exchanging facts and delegations over a network.  This
package reproduces that setting behind the
:class:`~repro.runtime.transport.Transport` protocol (deliver / collect /
stats), with interchangeable implementations:

* :class:`~repro.runtime.inmemory.InMemoryTransport` — a deterministic
  simulated network (per-round delivery, configurable latency and loss) that
  makes rounds and message counts measurable, used by the benchmarks;
* :class:`~repro.runtime.transport.RecordingTransport` — a decorator that
  logs every send/deliver event of an inner transport.

:class:`~repro.runtime.peer.Peer` wraps a :class:`~repro.core.engine.WebdamLogEngine`
together with its delegation controller and wrappers;
:class:`~repro.runtime.system.WebdamLogSystem` builds and drives a whole
network of peers.
"""

from repro.runtime.messages import (
    FactMessage,
    DelegationInstallMessage,
    DelegationRetractMessage,
    PeerJoinMessage,
    Message,
)
from repro.runtime.inmemory import InMemoryTransport, NetworkStats
from repro.runtime.transport import RecordingTransport, Transport, TransportEvent
from repro.runtime.peer import Peer
from repro.runtime.scheduler import ReactiveScheduler, RoundReport, RunSummary
from repro.runtime.system import WebdamLogSystem

__all__ = [
    "Message",
    "FactMessage",
    "DelegationInstallMessage",
    "DelegationRetractMessage",
    "PeerJoinMessage",
    "InMemoryTransport",
    "NetworkStats",
    "RecordingTransport",
    "Transport",
    "TransportEvent",
    "Peer",
    "ReactiveScheduler",
    "RoundReport",
    "RunSummary",
    "WebdamLogSystem",
]
