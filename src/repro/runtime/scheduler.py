"""Execution drivers: *when* peers run their computation stages.

The WebdamLog model is defined over **autonomous** peers — each peer runs a
local computation stage when inputs arrive, with no global coordination.  A
cycle therefore costs who has work, not how many peers are deployed.

:class:`ReactiveScheduler` is how every deployment runs: a cycle activates
only the peers that can make progress (due transport messages, pending
engine inputs, dirty local state, causal replication with something to send
this cycle, or an attached wrapper that asks for a poll through
``wants_stage`` — see :mod:`repro.wrappers.base`).  Cycles with no eligible
peer still advance the transport clock, so in-flight messages with
``latency > 1`` are never forgotten: quiescence is only reported when
nothing is runnable *and* nothing is in flight.

One loop, :func:`cycles`, runs the cycles of every way a deployment is
driven: ``converge()`` exhausts it, ``await aconverge()`` yields to the
event loop after each of its stages, and a streaming read (:func:`drive`)
resumes between its cycles.

:class:`LockstepScheduler` runs every peer every cycle, in name order.  No
deployment is built with it: it is the reference the differential tests
assign to ``WebdamLogSystem.scheduler`` and compare the reactive driver
against, cycle for cycle.

Both drivers reach the same fixpoints in the same number of cycles with the
same messages: a peer whose program is unchanged, whose stores saw no
writes, which has no pending input and whose wrappers have nothing to poll is
guaranteed to run a quiescent stage, so skipping it cannot lose derivations
(see :meth:`repro.core.engine.WebdamLogEngine.needs_stage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.runtime.peer import PeerStageReport

if TYPE_CHECKING:
    from repro.runtime.system import WebdamLogSystem

#: Default bound on scheduling cycles of one ``converge``.
DEFAULT_MAX_STEPS = 100


@dataclass
class RoundReport:
    """What happened during one scheduling cycle.

    Only the activated peers appear in ``peer_reports`` — possibly none,
    when the cycle merely advanced the transport clock past in-flight
    latency; under the lockstep reference driver a cycle is exactly one
    historical *round* and every peer appears.
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

    def unsettled(self) -> Dict[str, Tuple[str, ...]]:
        """Why a run that stopped at ``max_steps`` did not converge: each
        peer whose last stage was not quiescent, by name, with the ids of
        the rules that changed a derived fact or grew their memo in that
        stage (``StageResult.changing_rules``) — a rule that runs away is
        named there.  Empty for a converged run."""
        if self.converged:
            return {}
        last: Dict[str, PeerStageReport] = {}
        for report in reversed(self.rounds):
            for name, peer_report in report.peer_reports.items():
                last.setdefault(name, peer_report)
        return {name: tuple(dict.fromkeys(report.stage_result.changing_rules))
                for name, report in sorted(last.items()) if not report.is_quiescent()}

    def total_messages(self) -> int:
        """Total messages sent across all cycles."""
        return sum(report.messages_sent for report in self.rounds)

    def total_stages(self) -> int:
        """Total peer stage executions across all cycles.

        The headline number of the reactive driver: lockstep executes
        ``peers × cycles`` stages, a reactive run only as many as activations
        were warranted.
        """
        return sum(report.stages_executed for report in self.rounds)


@runtime_checkable
class Scheduler(Protocol):
    """What :class:`~repro.runtime.system.WebdamLogSystem` requires of a driver."""

    #: Short identifier (``"reactive"``, or the reference's ``"lockstep"``).
    name: str

    def eligible(self, system: "WebdamLogSystem") -> Sequence[str]:
        """The peers a cycle starting now activates, in activation order."""

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        """Run one scheduling cycle and return its report."""

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0) -> RunSummary:
        """Cycle until the system reaches a fixpoint (or ``max_steps`` is hit)."""


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


def _settled_after(system: "WebdamLogSystem", report: RoundReport) -> bool:
    """:func:`settled`, skipping what a cycle that ran nobody implies.

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


def _cycle(driver: Scheduler,
           system: "WebdamLogSystem") -> Generator[None, None, RoundReport]:
    """One scheduling cycle: yields after every stage, returns the report.

    A peer removed while the cycle runs (by a stage observer, or by another
    coroutine while ``aconverge`` yielded) is skipped.
    """
    report = system.begin_round()
    for name in driver.eligible(system):
        if name in system.peers:
            system.activate_peer(name, report)
            yield
    return system.finish_round(report)


def cycles(driver: Scheduler, system: "WebdamLogSystem", summary: RunSummary,
           max_steps: Optional[int] = None,
           extra_rounds: int = 0) -> Iterator[Optional[RoundReport]]:
    """The converge loop: run ``driver``'s cycles until one settles (or
    ``max_steps`` cycles ran), then ``extra_rounds`` more.

    Every cycle's report is appended to ``summary``, which is marked
    converged when the loop settles.  Yields ``None`` after every stage and
    each report once its cycle is judged, so a caller can hand control
    elsewhere between stages (``aconverge``) or between cycles
    (:func:`drive`); what it does there is the next cycle's input.
    """
    limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    for _ in range(limit):
        report = yield from _cycle(driver, system)
        summary.rounds.append(report)
        summary.converged = _settled_after(system, report)
        yield report
        if summary.converged:
            break
    for _ in range(extra_rounds):
        report = yield from _cycle(driver, system)
        summary.rounds.append(report)
        yield report


def _step(driver: Scheduler, system: "WebdamLogSystem") -> RoundReport:
    stages = _cycle(driver, system)
    try:
        while True:
            next(stages)
    except StopIteration as cycle_end:
        return cycle_end.value


def _converge(driver: Scheduler, system: "WebdamLogSystem",
              max_steps: Optional[int], extra_rounds: int) -> RunSummary:
    summary = RunSummary(scheduler=driver.name)
    for _ in cycles(driver, system, summary, max_steps, extra_rounds):
        pass
    return summary


def drive(system: "WebdamLogSystem",
          max_steps: Optional[int] = None) -> Iterator[RoundReport]:
    """Run :func:`cycles` with the system's driver, yielding each cycle's
    report.

    The incremental-consumption counterpart of ``converge()``: a caller (the
    streaming query machinery in :mod:`repro.api`) reacts between cycles —
    observers have already run for every stage of the yielded report.
    """
    summary = RunSummary(scheduler=system.scheduler.name)
    for report in cycles(system.scheduler, system, summary, max_steps):
        if report is not None:
            yield report


class LockstepScheduler:
    """The reference driver: every peer runs one stage every cycle.

    A cycle costs one stage execution per registered peer regardless of
    activity, which is why no deployment runs it.  The differential tests
    assign it to ``WebdamLogSystem.scheduler`` as the cadence the reactive
    driver is checked against: it must reach this driver's fixpoints in its
    number of cycles with its messages, only without its idle stages.
    """

    name = "lockstep"

    def eligible(self, system: "WebdamLogSystem") -> Sequence[str]:
        return system.peer_names()

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        return _step(self, system)

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0) -> RunSummary:
        return _converge(self, system, max_steps, extra_rounds)


class ReactiveScheduler:
    """The driver of every deployment: activate only peers with something to do.

    Each cycle runs one stage per eligible peer (see :meth:`eligible`) and
    advances the transport clock.  A cycle that activates nobody while
    messages are in flight simply lets the clock tick — this is what makes
    quiescence detection sound for ``latency > 1``: convergence is never
    reported while the transport still holds undelivered messages.

    ``converge`` scans the peers once per cycle; after a cycle that ran
    nobody and left nothing in flight it only asks whether a causal peer is
    still waiting for an ack (see :func:`_settled_after`): if none is, the
    deployment has settled as the last scan saw it.
    """

    name = "reactive"

    def eligible(self, system: "WebdamLogSystem") -> List[str]:
        """The peers a work-driven cycle must activate, in name order.

        One pass over the peers.  A peer is eligible when transport messages
        are due to it or when a stage there could change something
        (:meth:`repro.runtime.peer.Peer.needs_stage`): unconsumed engine
        input, dirty rules, store writes or housekeeping deletions since the
        last stage, causal replication with something to send this cycle, or
        a wrapper that asks for a poll.  A causal peer that is only waiting
        for an ack is not eligible until its digest falls due — the cycle
        count (:attr:`WebdamLogSystem.current_round`) is the clock the timer
        reads.  A wrapper is *not* polled merely for being attached:
        ``wants_stage(peer)`` says when the wrapped service may have changed,
        and only a wrapper without that method is polled every cycle, exactly
        as the lockstep reference polls it every round.

        Transports that track latency expose an exact ``due_count``; for any
        other the (conservative) pending count is used, which may activate a
        peer early but never starves one.
        """
        transport = system.transport
        due = getattr(transport, "due_count", None) or transport.pending_count
        now = system.current_round
        return [name for name, peer in system.ordered_peers()
                if peer.needs_stage(now) or due(name)]

    def step(self, system: "WebdamLogSystem") -> RoundReport:
        return _step(self, system)

    def converge(self, system: "WebdamLogSystem",
                 max_steps: Optional[int] = None,
                 extra_rounds: int = 0) -> RunSummary:
        return _converge(self, system, max_steps, extra_rounds)
