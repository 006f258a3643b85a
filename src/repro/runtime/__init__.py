"""The distributed runtime: transports, peers and the system orchestrator.

The paper's demonstration runs three peers — two laptops and a cloud-hosted
``sigmod`` peer — exchanging facts and delegations over a network.  This
package reproduces that setting behind the
:class:`~repro.runtime.transport.Transport` protocol (deliver / collect /
stats), with interchangeable implementations:

* :class:`~repro.runtime.inmemory.InMemoryTransport` — a deterministic
  simulated network (per-round delivery, configurable latency and loss) that
  makes rounds and message counts measurable, used by the benchmarks; built
  with ``event_log=NetEventLog()`` it records every send, drop and deliver
  with its message;
* :class:`~repro.net.tcp.TcpTransport` — real sockets, in :mod:`repro.net`:
  each message is one frame on a connection to its recipient, counted in
  flight as exactly as the in-memory transport counts its queue.

:class:`~repro.runtime.peer.Peer` wraps a :class:`~repro.core.engine.WebdamLogEngine`
together with its delegation controller and wrappers;
:class:`~repro.runtime.system.WebdamLogSystem` builds and drives a whole
network of peers.
"""

from repro.runtime.messages import (
    FactMessage,
    DelegationInstallMessage,
    DelegationRetractMessage,
    Message,
)
from repro.runtime.inmemory import InMemoryTransport, NetworkStats
from repro.runtime.transport import Transport
from repro.runtime.peer import Peer
from repro.runtime.scheduler import ReactiveScheduler, RoundReport, RunSummary
from repro.runtime.system import WebdamLogSystem

__all__ = [
    "Message",
    "FactMessage",
    "DelegationInstallMessage",
    "DelegationRetractMessage",
    "InMemoryTransport",
    "NetworkStats",
    "Transport",
    "Peer",
    "ReactiveScheduler",
    "RoundReport",
    "RunSummary",
    "WebdamLogSystem",
]
