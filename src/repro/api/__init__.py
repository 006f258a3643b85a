"""``repro.api`` — the one way to construct and drive a WebdamLog deployment.

The paper's runtime pieces (peers, trust stores, wrappers, programs,
transports) used to be assembled by hand in every example and benchmark.
This package is the public facade over all of them:

* :func:`system` / :class:`SystemBuilder` — a fluent builder::

      deployment = (system()
                    .peer("alice").trusts("bob").program("...")
                    .peer("bob").wrapper(FacebookUserWrapper(...))
                    .build())

* :class:`System` / :class:`PeerHandle` — the built deployment:
  ``converge()`` / ``step()`` / ``await aconverge()`` (a cycle runs only
  the peers with work; ``aconverge`` yields to the event loop after every
  stage — see :mod:`repro.runtime.scheduler`),
  ``query()``, ``subscribe()``, stats and totals, per-peer operations.
* :class:`Transport` — the protocol the runtime moves messages through, with
  :class:`InMemoryTransport` (deterministic rounds; ``event_log=NetEventLog()``
  records every message it sends, drops and delivers) shipped here; pass
  any implementation — or a name — to ``system().transport(...)``:
  ``transport("tcp")`` builds the asyncio TCP transport
  (:class:`TcpTransport`), where every peer listens on a real socket and
  each message is one frame on a connection to its recipient (see
  :mod:`repro.net` and ``docs/net-protocol.md``).
* :class:`LiveView` — the answer to a declarative query
  (``deployment.query(at, "p@alice($x,$y), not q@alice($x)")``): compiled
  into an incrementally-maintained view relation inside the owning peer's
  engine, readable, streamable, observable (``on_change``), explainable and
  ACL-filterable through one handle (see :mod:`repro.api.views`).
* :class:`Subscription` — watch derivations without touching engine
  internals.

Direct construction of :class:`~repro.runtime.peer.Peer` and
:class:`~repro.runtime.system.WebdamLogSystem` keeps working (the runtime's
own tests use it), but applications should start from :func:`system`.
"""

from repro.runtime.inmemory import InMemoryTransport, NetworkStats
from repro.runtime.scheduler import RoundReport, RunSummary
from repro.provenance.graph import Explanation
from repro.net.events import NetEventLog, read_events
from repro.net.tcp import TcpTransport
from repro.runtime.transport import Transport
from repro.api.builder import BuildError, PeerBuilder, SystemBuilder, system
from repro.api.errors import ReproApiError
from repro.api.facade import PeerHandle, System
from repro.api.query import FactCallback, Subscription
from repro.api.views import CompiledView, LiveView, compile_query

__all__ = [
    "ReproApiError",
    "LiveView",
    "CompiledView",
    "compile_query",
    "system",
    "SystemBuilder",
    "PeerBuilder",
    "BuildError",
    "System",
    "PeerHandle",
    "Transport",
    "InMemoryTransport",
    "TcpTransport",
    "NetEventLog",
    "read_events",
    "NetworkStats",
    "RoundReport",
    "RunSummary",
    "Subscription",
    "FactCallback",
    "Explanation",
]
