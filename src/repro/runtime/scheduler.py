"""Execution drivers: *when* peers run their computation stages.

The WebdamLog model is defined over **autonomous** peers — each peer runs a
local computation stage when inputs arrive, with no global coordination.  A
round therefore costs who has work, not how many peers are deployed.  The
driving policy is an injectable seam of
:class:`~repro.runtime.system.WebdamLogSystem`:

* :class:`Scheduler` — the protocol every driver implements: ``step`` runs
  one scheduling cycle, ``converge`` cycles until the system reaches a
  fixpoint.
* :class:`ReactiveScheduler` — **the default**, event-driven: a cycle
  activates only the peers that can make progress (due transport messages,
  pending engine inputs, dirty local state, causal replication with
  something to send this cycle, or an attached wrapper that asks for a poll
  through ``wants_stage`` — see :mod:`repro.wrappers.base`).
  Cycles with no eligible peer still advance the transport clock, so
  in-flight messages with ``latency > 1`` are never forgotten: quiescence is
  only reported when nothing is runnable *and* nothing is in flight.
* :class:`AsyncScheduler` — an asyncio driver with one mailbox and one
  worker task per peer, for embedding a deployment in an asynchronous
  application (``await system.aconverge()``).  Eligibility is the reactive
  policy; stages within a cycle are dispatched through the per-peer
  mailboxes and interleave at await points.
* :class:`LockstepScheduler` — every peer runs a stage every cycle, in
  deterministic name order.  Selectable by name as the *reference*: the
  equivalence tests and the sparse-activation benchmark compare the other
  two against it round for round.

All three drivers reach the same fixpoints in the same number of cycles with
the same messages: a peer whose program is unchanged, whose stores saw no
writes, which has no pending input and whose wrappers have nothing to poll is
guaranteed to run a quiescent stage, so skipping it cannot lose derivations
(see :meth:`repro.core.engine.WebdamLogEngine.needs_stage`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.runtime.peer import PeerStageReport

if TYPE_CHECKING:
    from repro.runtime.system import WebdamLogSystem

#: Default bound on scheduling cycles used by every ``converge`` driver.
DEFAULT_MAX_STEPS = 100


@dataclass
class RoundReport:
    """What happened during one scheduling cycle.

    Only the activated peers appear in ``peer_reports`` — under the default
    driver possibly none, when the cycle merely advanced the transport clock
    past in-flight latency; under the lockstep reference driver a cycle is
    exactly one historical *round* and every peer appears.
    """

    round_number: int
    peer_reports: Dict[str, PeerStageReport] = field(default_factory=dict)
    messages_sent: int = 0
    messages_delivered: int = 0

    @property
    def stages_executed(self) -> int:
        """Number of peer stages executed during this cycle."""
        return len(self.peer_reports)

    def is_quiescent(self) -> bool:
        """``True`` when every activated peer was quiescent this cycle."""
        return all(report.is_quiescent() for report in self.peer_reports.values())

    def total_derived(self) -> int:
        """Total intensional facts derived across peers this cycle."""
        return sum(r.stage_result.derived_intensional for r in self.peer_reports.values())

    def total_delegations_installed(self) -> int:
        """Total delegation-install messages emitted this cycle."""
        return sum(len(r.stage_result.delegations_to_install)
                   for r in self.peer_reports.values())

    def total_substitutions(self) -> int:
        """Total substitutions explored by the fixpoints run this cycle."""
        return sum(r.stage_result.substitutions_explored
                   for r in self.peer_reports.values())


@dataclass
class RunSummary:
    """Summary of one ``converge`` execution."""

    rounds: List[RoundReport] = field(default_factory=list)
    converged: bool = False
    scheduler: str = "reactive"

    @property
    def round_count(self) -> int:
        """Number of scheduling cycles executed."""
        return len(self.rounds)

    @property
    def rounds_to_convergence(self) -> int:
        """Number of cycles in which real work happened (delivery or derivation).

        This is the index (1-based) of the last non-quiescent cycle; trailing
        quiescent cycles needed only to *detect* convergence are not counted.
        """
        last_active = 0
        for index, report in enumerate(self.rounds, start=1):
            if not report.is_quiescent():
                last_active = index
        return last_active

    def total_messages(self) -> int:
        """Total messages sent across all cycles."""
        return sum(report.messages_sent for report in self.rounds)

    def total_derived(self) -> int:
        """Total intensional derivations across all cycles and peers."""
        return sum(report.total_derived() for report in self.rounds)

    def total_stages(self) -> int:
        """Total peer stage executions across all cycles.

        The headline number of the event-driven drivers: lockstep executes
        ``peers × cycles`` stages, a reactive run only as many as activations
        were warranted.
        """
        return sum(report.stages_executed for report in self.rounds)

    def total_substitutions(self) -> int:
        """Total substitutions explored across all cycles and peers.

        The headline number of the incremental engine: the naive
        clear-and-recompute fixpoint re-explores every derivation at every
        stage, the seminaive engine only what the input deltas reach.
        """
        return sum(report.total_substitutions() for report in self.rounds)


@runtime_checkable
class Scheduler(Protocol):
    """What :class:`~repro.runtime.system.WebdamLogSystem` requires of a driver."""

    #: Short identifier (``"lockstep"``, ``"reactive"``, ``"async"``, ...).
    name: str

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        """Run one scheduling cycle and return its report."""

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0,
                 quiet_period: Optional[int] = None) -> RunSummary:
        """Cycle until the system reaches a fixpoint (or ``max_steps`` is hit)."""


def resolve_quiet_period(system: "WebdamLogSystem",
                         quiet_period: Optional[int]) -> int:
    """How many *consecutive* settled cycles convergence requires.

    ``1`` (the in-memory default) preserves the historical behaviour: one
    settled cycle proves the fixpoint, because the in-memory transport has a
    perfect in-flight oracle.  Networked transports have a blind spot —
    frames inside socket buffers are invisible to :func:`settled` — so they
    advertise a larger ``convergence_quiet_period`` and the drivers demand
    that many quiet cycles in a row before declaring convergence.  An
    explicit ``quiet_period`` argument overrides the transport's default.
    """
    if quiet_period is not None:
        return max(1, int(quiet_period))
    return max(1, int(getattr(system.transport, "convergence_quiet_period", 1)))


def settled(system: "WebdamLogSystem", report: RoundReport) -> bool:
    """``True`` when ``report`` shows a converged system.

    Convergence means: every stage executed this cycle was quiescent, no
    message remains in flight on the transport (crucial for ``latency > 1``,
    where a message can be undeliverable for several cycles), no engine
    holds unconsumed input, and no causal replication channel is short of
    its frontier (a dropped digest leaves nothing in flight while an outbox
    is still unacknowledged — the in-flight check alone cannot see it).
    """
    return (report.is_quiescent()
            and not system.transport.has_in_flight()
            and not system.pending_engine_input()
            and not system.replication_unsettled())


def drive(system: "WebdamLogSystem",
          max_steps: Optional[int] = None,
          quiet_period: Optional[int] = None) -> "Iterator[RoundReport]":
    """Step the system's *configured* scheduler until it settles, yielding
    each cycle's report.

    This is the incremental-consumption counterpart of ``converge()``: a
    caller (e.g. the streaming query machinery in :mod:`repro.api`) can react
    between cycles — observers have already run for every stage of the
    yielded report.  Works under any scheduler, including the asyncio driver
    (whose ``step`` wraps one cycle in ``asyncio.run``).  Like the converge
    drivers it honours the transport's bounded quiet period (see
    :func:`resolve_quiet_period`).
    """
    limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    required_quiet = resolve_quiet_period(system, quiet_period)
    quiet = 0
    for _ in range(limit):
        report = system.step()
        yield report
        quiet = quiet + 1 if settled(system, report) else 0
        if quiet >= required_quiet:
            break


def _drive_to_fixpoint(driver: "Scheduler", system: "WebdamLogSystem",
                       max_steps: Optional[int],
                       extra_rounds: int,
                       quiet_period: Optional[int] = None,
                       is_settled=settled) -> RunSummary:
    """The shared ``converge`` loop: step until ``is_settled`` held for the
    required number of consecutive cycles (or the step limit is hit)."""
    limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    required_quiet = resolve_quiet_period(system, quiet_period)
    summary = RunSummary(scheduler=driver.name)
    quiet = 0
    for _ in range(limit):
        report = driver.step(system)
        summary.rounds.append(report)
        quiet = quiet + 1 if is_settled(system, report) else 0
        if quiet >= required_quiet:
            summary.converged = True
            break
    for _ in range(extra_rounds):
        summary.rounds.append(driver.step(system))
    return summary


def reactive_eligible(system: "WebdamLogSystem") -> List[str]:
    """The peers a work-driven cycle must activate, in deterministic order.

    One pass over the peers in name order.  A peer is eligible when
    transport messages are due to it or when a stage there could change
    something (:meth:`repro.runtime.peer.Peer.needs_stage`): unconsumed
    engine input, dirty rules, store writes or housekeeping deletions since
    the last stage, causal replication with something to send this cycle, or
    a wrapper that asks for a poll.  A causal peer that is only waiting for
    an ack is not eligible until its digest falls due — the cycle count
    (:attr:`WebdamLogSystem.current_round`) is the clock the timer reads.  A
    wrapper is *not* polled merely for being attached:
    ``wants_stage(peer)`` says when the wrapped service may have changed, and
    only a wrapper without that method is polled every cycle, exactly as the
    lockstep driver polls it every round.

    Transports that track latency expose an exact ``due_count``; for any
    other the (conservative) pending count is used, which may activate a
    peer early but never starves one.
    """
    transport = system.transport
    due = getattr(transport, "due_count", None) or transport.pending_count
    now = system.current_round
    return [name for name, peer in system.ordered_peers()
            if peer.needs_stage(now) or due(name)]


def _settled_after(system: "WebdamLogSystem", report: RoundReport) -> bool:
    """:func:`settled` for a work-driven cycle, skipping what is implied.

    A peer that holds engine input is always eligible, so a cycle that
    activated *nobody* was planned from a scan that found none — and with no
    stage run nothing but the transport clock moved since.  Two checks are
    left: nothing in flight, and no causal peer *waiting* — one whose channel
    is unacknowledged is not eligible until its digest falls due, and the
    deployment has not settled while it waits.
    """
    if not report.peer_reports:
        return (not system.transport.has_in_flight()
                and not system.replication_unsettled())
    return settled(system, report)


class LockstepScheduler:
    """The reference driver: every peer runs one stage every cycle.

    A cycle costs one stage execution per registered peer regardless of
    activity, which is why it is no longer the default.  It stays selectable
    (``scheduler("lockstep")``, ``run_round()``) as the cadence the other
    drivers are checked against: they must reach its fixpoints in its number
    of cycles with its messages, only without its idle stages.
    """

    name = "lockstep"

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        report = system.begin_round()
        for name in system.peer_names():
            system.activate_peer(name, report)
        return system.finish_round(report)

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0,
                 quiet_period: Optional[int] = None) -> RunSummary:
        return _drive_to_fixpoint(self, system, max_steps, extra_rounds,
                                  quiet_period)


class ReactiveScheduler:
    """The default driver: activate only peers with something to do.

    Each cycle runs one stage per eligible peer (see
    :func:`reactive_eligible`) and advances the transport clock.  A cycle
    that activates nobody while messages are in flight simply lets the clock
    tick — this is what makes quiescence detection sound for
    ``latency > 1``: convergence is never reported while the transport still
    holds undelivered messages.

    ``converge`` scans the peers once per cycle; after a cycle that ran
    nobody and left nothing in flight it only asks whether a causal peer is
    still waiting for an ack (see :func:`_settled_after`): if none is, the
    deployment has settled as the last scan saw it.
    """

    name = "reactive"

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        report = system.begin_round()
        for name in reactive_eligible(system):
            system.activate_peer(name, report)
        return system.finish_round(report)

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0,
                 quiet_period: Optional[int] = None) -> RunSummary:
        return _drive_to_fixpoint(self, system, max_steps, extra_rounds,
                                  quiet_period, is_settled=_settled_after)


class AsyncScheduler:
    """Asyncio driver: per-peer mailboxes, stages dispatched as tasks.

    Every peer gets a mailbox (an :class:`asyncio.Queue`) and a long-lived
    worker task.  Each cycle the coordinator posts an activation token to the
    mailboxes of the eligible peers, awaits the workers draining them, then
    advances the transport.  Stages are CPU-bound and therefore interleave
    rather than parallelise, but the driver embeds cleanly in asynchronous
    applications: ``await system.aconverge()`` yields to the event loop
    between stages.

    The synchronous :meth:`converge` entry point wraps :meth:`aconverge` in
    ``asyncio.run`` so the driver also works behind the blocking facade
    (e.g. ``system().scheduler("async").build().run()``).
    """

    name = "async"

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        return asyncio.run(self.astep(system))

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0,
                 quiet_period: Optional[int] = None) -> RunSummary:
        return asyncio.run(self.aconverge(system, max_steps=max_steps,
                                          extra_rounds=extra_rounds,
                                          quiet_period=quiet_period))

    async def astep(self, system: "WebdamLogSystem") -> RoundReport:
        """Run one asynchronous cycle (one mailbox round-trip per eligible peer)."""
        mailboxes = {name: asyncio.Queue() for name in system.peer_names()}
        errors: List[BaseException] = []
        workers = [asyncio.create_task(self._worker(system, name, box, errors))
                   for name, box in mailboxes.items()]
        try:
            return await self._cycle(system, mailboxes, errors)
        finally:
            await self._stop_workers(mailboxes, workers)

    async def aconverge(self, system: "WebdamLogSystem",
                        max_steps: Optional[int] = None,
                        extra_rounds: int = 0,
                        quiet_period: Optional[int] = None) -> RunSummary:
        """Cycle until fixpoint, keeping the per-peer workers alive throughout."""
        limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
        required_quiet = resolve_quiet_period(system, quiet_period)
        summary = RunSummary(scheduler=self.name)
        mailboxes: Dict[str, asyncio.Queue] = {
            name: asyncio.Queue() for name in system.peer_names()
        }
        errors: List[BaseException] = []
        workers = [asyncio.create_task(self._worker(system, name, box, errors))
                   for name, box in mailboxes.items()]
        quiet = 0
        try:
            for _ in range(limit):
                report = await self._cycle(system, mailboxes, errors)
                summary.rounds.append(report)
                quiet = quiet + 1 if _settled_after(system, report) else 0
                if quiet >= required_quiet:
                    summary.converged = True
                    break
            for _ in range(extra_rounds):
                summary.rounds.append(await self._cycle(system, mailboxes, errors))
        finally:
            await self._stop_workers(mailboxes, workers)
        return summary

    async def _cycle(self, system: "WebdamLogSystem",
                     mailboxes: Dict[str, asyncio.Queue],
                     errors: List[BaseException]) -> RoundReport:
        report = system.begin_round()
        posted = []
        for name in reactive_eligible(system):
            box = mailboxes.get(name)
            if box is None:  # peer added mid-run: give it a mailbox-less stage
                system.activate_peer(name, report)
                continue
            box.put_nowait(report)
            posted.append(box)
        for box in posted:
            await box.join()
        report = system.finish_round(report)
        if errors:
            # A stage (or an observer callback it triggered) raised inside a
            # worker.  Propagate to the caller, like the synchronous drivers.
            raise errors[0]
        return report

    async def _worker(self, system: "WebdamLogSystem", name: str,
                      mailbox: asyncio.Queue,
                      errors: List[BaseException]) -> None:
        while True:
            token = await mailbox.get()
            try:
                if token is None:
                    return
                if name in system.peers:
                    try:
                        system.activate_peer(name, token)
                    except BaseException as exc:
                        # Keep the worker alive: a dead worker would leave
                        # its mailbox un-joinable and deadlock the cycle.
                        # The coordinator re-raises after the cycle joins.
                        errors.append(exc)
                await asyncio.sleep(0)
            finally:
                mailbox.task_done()

    @staticmethod
    async def _stop_workers(mailboxes: Dict[str, asyncio.Queue],
                            workers: List["asyncio.Task"]) -> None:
        for box in mailboxes.values():
            box.put_nowait(None)
        await asyncio.gather(*workers, return_exceptions=True)


#: Scheduler names accepted by :func:`resolve_scheduler` (and the builder's
#: ``.scheduler(...)`` call).
SCHEDULERS = {
    "lockstep": LockstepScheduler,
    "reactive": ReactiveScheduler,
    "async": AsyncScheduler,
}


def resolve_scheduler(spec: Union[None, str, Scheduler]) -> Scheduler:
    """Turn a scheduler spec (name, instance or ``None``) into a driver.

    ``None`` resolves to the default :class:`ReactiveScheduler`; a string is
    looked up in :data:`SCHEDULERS`; anything else is assumed to implement
    the :class:`Scheduler` protocol and returned as-is.
    """
    if spec is None:
        return ReactiveScheduler()
    if isinstance(spec, str):
        factory = SCHEDULERS.get(spec)
        if factory is None:
            raise ValueError(
                f"unknown scheduler {spec!r}; choose from {tuple(SCHEDULERS)}"
            )
        return factory()
    return spec
