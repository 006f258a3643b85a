"""The scheduler seam: lockstep/reactive/async drivers, quiescence, shims."""

import asyncio

import pytest

from repro.api import system
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.scheduler import (
    AsyncScheduler,
    LockstepScheduler,
    ReactiveScheduler,
    Scheduler,
    resolve_quiet_period,
    resolve_scheduler,
)
from repro.runtime.system import WebdamLogSystem
from repro.wepic.scenario import build_demo_scenario

PING_PONG_A = """
collection extensional persistent ping@a(n);
collection extensional persistent ack@a(n);
rule pong@b($n) :- ping@a($n);
"""

PING_PONG_B = """
collection extensional persistent pong@b(n);
rule ack@a($n) :- pong@b($n);
"""

DELEGATION_JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $n) :-
    selectedAttendee@Jules($a), pictures@$a($id, $n);
"""

DELEGATION_EMILIEN = """
collection extensional persistent pictures@Emilien(id, name);
fact pictures@Emilien(1, "sea.jpg");
fact pictures@Emilien(2, "boat.jpg");
"""


def build_ping_pong(scheduler, latency=1, idle_peers=0):
    sys = WebdamLogSystem(transport=InMemoryTransport(latency=latency),
                          scheduler=scheduler)
    sys.add_peer("a", program=PING_PONG_A + "fact ping@a(1);")
    sys.add_peer("b", program=PING_PONG_B)
    for index in range(idle_peers):
        name = f"idle{index:02d}"
        sys.add_peer(name, program=(
            f"collection extensional persistent notes@{name}(text);\n"
            f'fact notes@{name}("quiet");\n'
        ))
    return sys


def build_delegation(scheduler):
    return (system()
            .scheduler(scheduler)
            .peer("Jules").program(DELEGATION_JULES)
            .peer("Emilien").program(DELEGATION_EMILIEN)
            .build())


class TestFixpointEquivalence:
    """The reactive and async drivers reach the lockstep fixpoints."""

    @pytest.mark.parametrize("scheduler", ["reactive", "async"])
    def test_ping_pong_fixpoint(self, scheduler):
        reference = build_ping_pong("lockstep")
        reference.converge()
        candidate = build_ping_pong(scheduler)
        summary = candidate.converge()
        assert summary.converged
        assert candidate.snapshot() == reference.snapshot()

    @pytest.mark.parametrize("scheduler", ["reactive", "async"])
    def test_delegation_fixpoint(self, scheduler):
        reference = build_delegation("lockstep")
        reference.converge()
        candidate = build_delegation(scheduler)
        summary = candidate.converge()
        assert summary.converged
        assert candidate.snapshot() == reference.snapshot()
        assert sorted(candidate.query("Jules", "attendeePictures").rows()) == \
            [(1, "sea.jpg"), (2, "boat.jpg")]

    @pytest.mark.parametrize("scheduler", ["reactive", "async"])
    def test_wepic_scenario_fixpoint(self, scheduler):
        reference = build_demo_scenario()
        reference.run()
        candidate = build_demo_scenario(scheduler=scheduler)
        summary = candidate.run()
        assert summary.converged
        assert candidate.api.snapshot() == reference.api.snapshot()

    def test_incremental_updates_after_convergence(self):
        reference = build_ping_pong("lockstep")
        reference.converge()
        candidate = build_ping_pong("reactive")
        candidate.converge()
        for sys in (reference, candidate):
            sys.peer("a").insert_fact("ping@a(2)")
            sys.converge()
        assert candidate.snapshot() == reference.snapshot()
        assert len(candidate.peer("a").query("ack")) == 2


class TestSparseActivation:
    """Reactive scheduling skips idle peers (the event-driven win)."""

    def test_reactive_runs_at_least_3x_fewer_stages(self):
        lockstep = build_ping_pong("lockstep", idle_peers=28)
        reactive = build_ping_pong("reactive", idle_peers=28)
        stages_lockstep = lockstep.converge().total_stages()
        stages_reactive = reactive.converge().total_stages()
        assert lockstep.snapshot() == reactive.snapshot()
        assert stages_lockstep >= 3 * stages_reactive

    def test_idle_peer_is_never_activated_after_first_stage(self):
        reactive = build_ping_pong("reactive", idle_peers=5)
        reactive.converge()
        idle = reactive.peer("idle00")
        first_run_stages = idle.engine.state.stage_counter
        reactive.peer("a").insert_fact("ping@a(99)")
        reactive.converge()
        assert idle.engine.state.stage_counter == first_run_stages


class TestQuiescenceWithLatency:
    """Convergence is never reported while messages ride out their latency."""

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive", "async"])
    def test_latency_3_converges_with_all_facts(self, scheduler):
        sys = build_ping_pong(scheduler, latency=3)
        summary = sys.converge()
        assert summary.converged
        assert not sys.transport.has_in_flight()
        assert len(sys.peer("a").query("ack")) == 1

    def test_not_converged_while_in_flight(self):
        sys = build_ping_pong("reactive", latency=3)
        report = sys.step()
        assert sys.transport.has_in_flight()
        # The cycle that produced the in-flight message must not count as
        # convergence, nor may any cycle while the message is undelivered.
        summary = sys.converge(max_steps=2)
        assert not summary.converged
        assert sys.transport.has_in_flight() or sys.pending_engine_input() \
            or not report.is_quiescent()

    def test_idle_cycles_advance_the_clock_without_stages(self):
        sys = build_ping_pong("reactive", latency=4, idle_peers=3)
        summary = sys.converge()
        assert summary.converged
        # With latency 4 some cycles deliver nothing and activate nobody;
        # they exist purely to tick the transport clock.
        assert any(report.stages_executed == 0 for report in summary.rounds)

    def test_due_count_respects_latency(self):
        sys = build_ping_pong("lockstep", latency=3)
        sys.step()  # peer a sends pong@b; due 3 rounds later
        assert sys.transport.pending_count("b") == 1
        assert sys.transport.due_count("b") == 0
        sys.step()
        sys.step()
        assert sys.transport.due_count("b") == 1


class TestAsyncScheduler:
    """The asyncio driver: per-peer mailboxes behind ``await aconverge()``."""

    def test_aconverge_awaitable(self):
        sys = build_ping_pong("lockstep")  # aconverge works on any system

        async def drive():
            return await sys.aconverge()

        summary = asyncio.run(drive())
        assert summary.converged and summary.scheduler == "async"
        assert len(sys.peer("a").query("ack")) == 1

    def test_sync_facade_over_async_scheduler(self):
        deployment = build_delegation("async")
        summary = deployment.converge()
        assert summary.converged and summary.scheduler == "async"
        assert len(deployment.query("Jules", "attendeePictures")) == 2


class TestSchedulerResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_scheduler(None), ReactiveScheduler)
        assert isinstance(resolve_scheduler("lockstep"), LockstepScheduler)
        assert isinstance(resolve_scheduler("reactive"), ReactiveScheduler)
        assert isinstance(resolve_scheduler("async"), AsyncScheduler)

    def test_instances_pass_through(self):
        driver = ReactiveScheduler()
        assert resolve_scheduler(driver) is driver

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            resolve_scheduler("eager")

    def test_drivers_satisfy_the_protocol(self):
        for driver in (LockstepScheduler(), ReactiveScheduler(), AsyncScheduler()):
            assert isinstance(driver, Scheduler)

    def test_converge_accepts_per_call_override(self):
        sys = build_ping_pong("lockstep", idle_peers=10)
        summary = sys.converge(scheduler="reactive")
        assert summary.scheduler == "reactive"
        assert summary.converged


class TestQuietPeriod:
    """Bounded-quiet-period termination for transports without a perfect
    in-flight oracle (the TCP transport advertises
    ``convergence_quiet_period``; in-memory implicitly uses 1)."""

    def test_inmemory_default_is_one_settled_cycle(self):
        sys = build_ping_pong("lockstep")
        assert resolve_quiet_period(sys, None) == 1

    def test_transport_attribute_sets_the_default(self):
        sys = build_ping_pong("lockstep")
        sys.transport.convergence_quiet_period = 4
        assert resolve_quiet_period(sys, None) == 4

    def test_explicit_argument_overrides_the_transport(self):
        sys = build_ping_pong("lockstep")
        sys.transport.convergence_quiet_period = 4
        assert resolve_quiet_period(sys, 2) == 2

    def test_quiet_period_is_clamped_to_at_least_one(self):
        sys = build_ping_pong("lockstep")
        assert resolve_quiet_period(sys, 0) == 1
        sys.transport.convergence_quiet_period = 0
        assert resolve_quiet_period(sys, None) == 1

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_longer_quiet_period_adds_exactly_the_extra_cycles(self, scheduler):
        baseline = build_ping_pong(scheduler).converge(quiet_period=1)
        padded = build_ping_pong(scheduler).converge(quiet_period=3)
        assert baseline.converged and padded.converged
        assert padded.round_count == baseline.round_count + 2

    def test_transport_advertised_period_is_honoured_by_converge(self):
        sys = build_ping_pong("lockstep")
        sys.transport.convergence_quiet_period = 3
        padded = sys.converge()
        baseline = build_ping_pong("lockstep").converge()
        assert padded.converged
        assert padded.round_count == baseline.round_count + 2

    def test_async_scheduler_honours_quiet_period(self):
        baseline = build_ping_pong("async").converge(quiet_period=1)
        padded = build_ping_pong("async").converge(quiet_period=3)
        assert baseline.converged and padded.converged
        assert padded.round_count == baseline.round_count + 2

    def test_fixpoint_identical_whatever_the_quiet_period(self):
        def snapshot(quiet_period):
            sys = build_ping_pong("lockstep")
            sys.converge(quiet_period=quiet_period)
            return {relation: set(sys.peers[owner].query(relation))
                    for owner, relation in (("a", "ping"), ("a", "ack"),
                                            ("b", "pong"))}

        assert snapshot(1) == snapshot(4)


SCRATCH_ECHO = """
collection ext scratch ping@a(x);
collection int echo@a(x);
rule echo@a($x) :- ping@a($x);
"""

STRICT_ECHO_A = """
collection int inbox@a(x);
collection int echo@a(x);
rule echo@a($x) :- inbox@a($x);
"""

STRICT_ECHO_B = """
collection ext persistent src@b(x);
fact src@b(1);
rule inbox@a($x) :- src@b($x);
"""

#: ``None`` is the default driver, whatever it resolves to.
EVERY_DRIVER = ["lockstep", "reactive", "async", None]


class TestStageLeftovers:
    """A stage's housekeeping deletions are input of the *next* stage.

    The facts were visible to the stage that cleared them, so what it derived
    from them is retracted one stage later — by a stage nothing else asks for.
    Every driver must run it (``needs_stage()`` used to forget the carry-over,
    so the work-driven drivers stopped one stage early, ``echo`` still derived).
    """

    @pytest.mark.parametrize("scheduler", EVERY_DRIVER)
    def test_scratch_relation_consequences_are_retracted(self, scheduler):
        sys = WebdamLogSystem(scheduler=scheduler)
        peer = sys.add_peer("a", program=SCRATCH_ECHO)
        sys.converge()
        peer.insert_fact("ping@a(1)")
        summary = sys.converge()
        assert summary.converged
        assert peer.query("ping") == ()
        assert peer.query("echo") == ()
        # derive, retract, detect quiescence — the lockstep reference's count
        assert summary.round_count == 3

    @pytest.mark.parametrize("scheduler", EVERY_DRIVER)
    def test_strict_provided_fact_lasts_one_stage(self, scheduler):
        def run(driver):
            sys = WebdamLogSystem(strict_stage_inputs=True, scheduler=driver)
            sys.add_peer("a", program=STRICT_ECHO_A)
            sys.add_peer("b", program=STRICT_ECHO_B)
            return sys, sys.converge()

        reference, expected = run("lockstep")
        candidate, summary = run(scheduler)
        assert summary.converged
        assert candidate.peer("a").query("echo") == ()
        assert candidate.snapshot() == reference.snapshot()
        assert summary.round_count == expected.round_count
