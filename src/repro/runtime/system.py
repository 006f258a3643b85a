"""The system orchestrator: a network of WebdamLog peers plus a scheduler.

The orchestrator owns the topology (peers, trust defaults, the transport)
and exposes the **primitives** an execution driver composes:

* :meth:`WebdamLogSystem.begin_round` / :meth:`finish_round` bracket one
  scheduling cycle (the transport clock advances at ``finish_round``);
* :meth:`WebdamLogSystem.activate_peer` runs one peer's stage — deliver the
  due messages, run one computation stage, hand the outgoing messages to the
  transport — and notifies the stage observers with the stage's deltas.

*Which* peers are activated, and when, is the driver's decision: every
deployment runs :class:`~repro.runtime.scheduler.ReactiveScheduler`, which
activates only the peers with work (see :mod:`repro.runtime.scheduler`).
Drive the system with :meth:`converge` / :meth:`step` (or ``await``
:meth:`aconverge`).
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.acl.trust import TrustStore
from repro.core.errors import TransportError
from repro.core.facts import Fact
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.peer import Peer, PeerStageReport
from repro.runtime.scheduler import (
    ReactiveScheduler,
    RoundReport,
    RunSummary,
    Scheduler,
    cycles,
)

if TYPE_CHECKING:
    from repro.runtime.transport import Transport

__all__ = ["WebdamLogSystem", "RoundReport", "RunSummary"]


class WebdamLogSystem:
    """A set of peers connected by a transport, run by the reactive driver.

    The orchestrator depends only on the
    :class:`~repro.runtime.transport.Transport` protocol; pass any conforming
    ``transport`` to swap the backend.  When none is given a deterministic
    :class:`~repro.runtime.inmemory.InMemoryTransport` with its default
    settings (one round of latency, lossless) is used.

    Parameters
    ----------
    default_trusted:
        Peers that every newly added peer trusts by default.  The demo
        configuration trusts only the ``sigmod`` peer; pass
        ``default_trusted=("sigmod",)`` to reproduce it.
    auto_accept_delegations:
        When ``True`` (default) every new peer trusts every delegator, so any
        incoming delegation installs immediately; set to ``False`` to enable
        the pending-queue control of delegation for the delegators a peer
        does not trust.
    transport:
        An explicit :class:`~repro.runtime.transport.Transport`.  Unless it
        promises ``exactly_once_in_order`` delivery, every peer gets causal
        replication (:mod:`repro.replication`) instead of raw messages.
    provenance:
        When ``True`` every peer gets a
        :class:`~repro.provenance.graph.ProvenanceTracker` whose graph is
        incrementally maintained by the engine; fact updates then ship their
        derivations, so why/lineage queries (``peer.explain(fact)``) and
        lineage-based access control work across peer boundaries.
    """

    def __init__(self, default_trusted: Sequence[str] = (),
                 auto_accept_delegations: bool = True,
                 transport: Optional["Transport"] = None,
                 provenance: bool = False,
                 storage=None, storage_options: Optional[Dict] = None):
        self.transport = (transport if transport is not None
                          else InMemoryTransport())
        #: The execution driver: a cycle runs only the peers with work.
        self.scheduler: Scheduler = ReactiveScheduler()
        self.peers: Dict[str, Peer] = {}
        self.default_trusted = tuple(default_trusted)
        self.auto_accept_delegations = auto_accept_delegations
        self.provenance = provenance
        # Storage backend specification applied to every peer ("memory",
        # "sqlite", or None to consult REPRO_STORE_BACKEND); each peer
        # resolves its own backend instance (one database file per peer).
        self.storage = storage
        self.storage_options = dict(storage_options or {})
        self._round = 0
        # Messages handed to the transport so far: the last one's number.
        self._sent = 0
        # (name, peer) pairs in name order — the order every driver activates
        # in; rebuilt after add_peer/remove_peer.
        self._ordered: Optional[Tuple[Tuple[str, Peer], ...]] = None
        self._stage_observers: List[Callable[[str, PeerStageReport], None]] = []

    # ------------------------------------------------------------------ #
    # observers
    # ------------------------------------------------------------------ #

    def add_stage_observer(self, observer: Callable[[str, PeerStageReport], None]) -> None:
        """Call ``observer(peer_name, report)`` after every executed peer stage.

        This is the hook the :mod:`repro.api` subscription machinery uses:
        after each stage it drains the change feeds the stores filled at
        that peer, so observers see derivations as stages complete — no
        relation re-scanning, no waiting for a round boundary.
        """
        self._stage_observers.append(observer)

    def remove_stage_observer(self, observer: Callable[[str, PeerStageReport], None]) -> None:
        """Stop calling a previously added stage observer (no-op when unknown)."""
        try:
            self._stage_observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # topology management
    # ------------------------------------------------------------------ #

    def add_peer(self, name: str, program: Optional[str] = None,
                 trusted: Sequence[str] = (), trust_all: bool = False) -> Peer:
        """Create and register a new peer.

        ``program`` is an optional WebdamLog program text loaded immediately.
        The peer trusts ``trusted`` plus the system's ``default_trusted``;
        it trusts every delegator when ``trust_all`` is set or the system
        auto-accepts delegations.  A delegation from a peer it does not
        trust waits in its controller's pending queue.
        """
        if name in self.peers:
            raise ValueError(f"peer {name!r} already exists")
        trust = TrustStore(name, trusted=tuple(trusted) + self.default_trusted,
                           trust_all=trust_all or self.auto_accept_delegations)
        # Raw messages are correct only where each arrives exactly once and
        # in order; one transport, so every peer of a deployment agrees.
        peer = Peer(name, trust=trust,
                    provenance=self.provenance,
                    storage=self.storage,
                    storage_options=dict(self.storage_options),
                    replication=not getattr(self.transport,
                                            "exactly_once_in_order", False))
        if peer.replication is not None:
            # Causal joins/digests/pulls/acks land in the transport's event
            # stream, stamped with the same cycle clock as its send/drop
            # records.
            peer.replication.event_log = getattr(self.transport, "event_log", None)
        self.peers[name] = peer
        self._ordered = None
        self.transport.register(name)
        if program:
            peer.load_program(program)
        return peer

    def remove_peer(self, name: str) -> Optional[Peer]:
        """Remove a peer from the system and close it.

        Its undelivered messages are dropped; its backend is committed and
        released here, since :meth:`close` only reaches registered peers.
        """
        peer = self.peers.pop(name, None)
        if peer is not None:
            self._ordered = None
            self.transport.unregister(name)
            for other in self.peers.values():
                # Causal-mode peers would otherwise retransmit to the dead
                # peer forever (its channel can never be acknowledged).
                other.drop_replication_channel(name)
            peer.close()
        return peer

    def close(self) -> None:
        """Commit and release every peer's storage backend.

        Durable (SQLite) peers can later be rebuilt over the same storage
        path and will restore their facts, rules and installed delegations.
        """
        for peer in self.peers.values():
            peer.close()

    def peer(self, name: str) -> Peer:
        """Look up a peer by name."""
        try:
            return self.peers[name]
        except KeyError as exc:
            raise KeyError(f"unknown peer {name!r}") from exc

    def peer_names(self) -> Tuple[str, ...]:
        """Sorted names of the registered peers."""
        return tuple(name for name, _ in self.ordered_peers())

    def ordered_peers(self) -> Tuple[Tuple[str, Peer], ...]:
        """The registered ``(name, peer)`` pairs in name order.

        Kept between topology changes, so a driver's per-cycle scan does not
        sort the names again.
        """
        if self._ordered is None:
            self._ordered = tuple(sorted(self.peers.items()))
        return self._ordered

    def __contains__(self, name: str) -> bool:
        return name in self.peers

    def __len__(self) -> int:
        return len(self.peers)

    # ------------------------------------------------------------------ #
    # scheduling primitives (composed by the drivers in runtime.scheduler)
    # ------------------------------------------------------------------ #

    @property
    def current_round(self) -> int:
        """Number of scheduling cycles begun so far.

        The one clock of a deployment: :meth:`activate_peer` hands it to the
        peer, and causal replication measures its digest interval and pull
        patience in it (not in stages, which a peer with nothing to do does
        not run).
        """
        return self._round

    def begin_round(self) -> RoundReport:
        """Open a new scheduling cycle and return its (empty) report."""
        self._round += 1
        return RoundReport(round_number=self._round)

    def activate_peer(self, name: str,
                      report: Optional[RoundReport] = None) -> PeerStageReport:
        """Run one stage at ``name``: deliver due messages, compute, send.

        The resulting :class:`~repro.runtime.peer.PeerStageReport` is folded
        into ``report`` (when given) and pushed to the stage observers.
        """
        peer = self.peers[name]
        incoming = self.transport.receive(name)
        delivered = peer.deliver_all(incoming, self._round)
        stage_result, outgoing = peer.run_stage(self._round)
        sent = 0
        for message in outgoing:
            # Numbered as sent: ids follow the deployment's sends, not the
            # messages the process built before (frozen, so stamped in place).
            self._sent += 1
            object.__setattr__(message, "message_id", f"msg-{self._sent}")
            try:
                if self.transport.send(message):
                    sent += 1
            except TransportError:
                # Destination unknown to the network (e.g. a wrapper-only
                # pseudo-peer): the message is counted but not delivered.
                # Causal peers mark the channel unreachable so the never-
                # acknowledgeable ops stop demanding anti-entropy attention.
                peer.notify_send_failed(message)
        stage_report = PeerStageReport(
            peer=name,
            stage_result=stage_result,
            delivered_messages=delivered,
            sent_messages=sent,
        )
        if report is not None:
            report.peer_reports[name] = stage_report
            report.messages_sent += sent
            report.messages_delivered += delivered
        for observer in tuple(self._stage_observers):
            observer(name, stage_report)
        return stage_report

    def finish_round(self, report: RoundReport) -> RoundReport:
        """Close a scheduling cycle: advance the transport clock."""
        self.transport.advance_round()
        return report

    def pending_engine_input(self) -> bool:
        """``True`` while any engine holds unconsumed input."""
        return any(peer.engine.has_pending_input() for peer in self.peers.values())

    def replication_unsettled(self) -> bool:
        """``True`` while any causal channel is short of its frontier.

        An adversarial transport can drop a digest, leaving nothing in
        flight while an outbox is still unacknowledged — and the peer that
        owns it runs no stage while it waits for the next digest to fall
        due.  The in-flight check and the stage reports alone would then let
        ``converge()`` settle with the loss unrepaired.  Folding this into
        :func:`repro.runtime.scheduler.settled` is what makes the state
        module's contract hold: a causal system refuses to settle while any
        channel has unacknowledged ops.
        """
        return any(peer.replication is not None
                   and peer.replication.unsettled()
                   for peer in self.peers.values())

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def converge(self, max_steps: Optional[int] = None,
                 extra_rounds: int = 0) -> RunSummary:
        """Drive the system to a fixpoint.

        Convergence means: a cycle in which every executed stage was
        quiescent, no message remains in flight, no engine holds pending
        input and no causal channel is short of its frontier.
        ``max_steps`` bounds the scheduling cycles (default 100);
        ``extra_rounds`` additional cycles are run afterwards (useful when a
        test wants to check stability).
        """
        return self.scheduler.converge(self, max_steps=max_steps,
                                       extra_rounds=extra_rounds)

    def step(self) -> RoundReport:
        """Execute one scheduling cycle."""
        return self.scheduler.step(self)

    async def aconverge(self, max_steps: Optional[int] = None,
                        extra_rounds: int = 0) -> RunSummary:
        """:meth:`converge` from asyncio: the same cycles, yielding to the
        event loop after every stage and at the end of every cycle.

        Stages are synchronous, so they interleave with the application's
        other tasks rather than run in parallel; the result is the one
        :meth:`converge` would have returned.
        """
        summary = RunSummary(scheduler=self.scheduler.name)
        for _ in cycles(self.scheduler, self, summary, max_steps, extra_rounds):
            await asyncio.sleep(0)
        return summary

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def metrics(self, peer: Optional[str] = None) -> Counter:
        """Every registered peer's work counts (:mod:`repro.core.metrics`)
        summed, or ``peer``'s alone, with their gauges (stored and derived
        facts, installed and pending delegations) computed now; the
        deployment-wide read adds the rounds, the peer count and the
        transport's counters under ``"transport"``.  Keyed ``(layer, name)``.
        """
        peers = (self.peer(peer),) if peer is not None else tuple(self.peers.values())
        result: Counter = Counter()
        for one in peers:
            state = one.engine.state
            result.update(one.engine.metrics)
            result.update({
                ("store", "extensional_facts"): state.store.total_facts(),
                ("store", "derived_facts"): state.derived.total_facts(),
                ("core", "installed_delegations"): len(state.delegations_in),
                ("acl", "pending_delegations"): len(one.pending_delegations()),
            })
        if peer is None:
            result["runtime", "rounds"] = self._round
            result["runtime", "peers"] = len(self.peers)
            result.update({("transport", name): value
                           for name, value in self.transport.stats.as_dict().items()
                           if isinstance(value, (int, float))})
        return result

    def snapshot(self) -> Dict[str, Dict[str, Tuple[Fact, ...]]]:
        """Per-peer snapshot of every visible relation."""
        return {name: peer.engine.snapshot() for name, peer in self.ordered_peers()}
