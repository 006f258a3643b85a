"""The execution driver: reactive cycles, ``aconverge``, quiescence, and the
lockstep reference the reactive driver is checked against."""

import asyncio

import pytest

import repro.runtime.scheduler as scheduler
from repro.api import system
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.scheduler import LockstepScheduler, ReactiveScheduler, Scheduler
from repro.runtime.system import WebdamLogSystem
from repro.wepic.scenario import build_demo_scenario

from tests.reference_engine import lockstep

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


def build_ping_pong(latency=1, idle_peers=0, reference=False):
    sys = WebdamLogSystem(transport=InMemoryTransport(latency=latency))
    sys.add_peer("a", program=PING_PONG_A + "fact ping@a(1);")
    sys.add_peer("b", program=PING_PONG_B)
    for index in range(idle_peers):
        name = f"idle{index:02d}"
        sys.add_peer(name, program=(
            f"collection extensional persistent notes@{name}(text);\n"
            f'fact notes@{name}("quiet");\n'
        ))
    return lockstep(sys) if reference else sys


def build_delegation():
    return (system()
            .peer("Jules").program(DELEGATION_JULES)
            .peer("Emilien").program(DELEGATION_EMILIEN)
            .build())


def converge(deployment, asynchronous=False, **options):
    """``deployment.converge(**options)``, or the same through ``aconverge``."""
    if asynchronous:
        return asyncio.run(deployment.aconverge(**options))
    return deployment.converge(**options)


#: The reactive driver through either entry point.
ENTRY_POINTS = pytest.mark.parametrize("asynchronous", [False, True],
                                       ids=["reactive", "aconverge"])

#: ... and the lockstep reference besides.
DRIVERS = pytest.mark.parametrize(
    "reference,asynchronous", [(True, False), (False, False), (False, True)],
    ids=["lockstep", "reactive", "aconverge"])


class TestFixpointEquivalence:
    """The reactive driver reaches the lockstep fixpoints."""

    @ENTRY_POINTS
    def test_ping_pong_fixpoint(self, asynchronous):
        reference = build_ping_pong(reference=True)
        reference.converge()
        candidate = build_ping_pong()
        summary = converge(candidate, asynchronous)
        assert summary.converged
        assert candidate.snapshot() == reference.snapshot()

    @ENTRY_POINTS
    def test_delegation_fixpoint(self, asynchronous):
        reference = lockstep(build_delegation())
        reference.converge()
        candidate = build_delegation()
        summary = converge(candidate, asynchronous)
        assert summary.converged
        assert candidate.snapshot() == reference.snapshot()
        assert sorted(candidate.query("Jules", "attendeePictures").rows()) == \
            [(1, "sea.jpg"), (2, "boat.jpg")]

    @ENTRY_POINTS
    def test_wepic_scenario_fixpoint(self, asynchronous):
        reference = build_demo_scenario()
        lockstep(reference.api)
        reference.api.converge(max_steps=60)
        candidate = build_demo_scenario()
        summary = converge(candidate.api, asynchronous, max_steps=60)
        assert summary.converged
        assert candidate.api.snapshot() == reference.api.snapshot()

    def test_incremental_updates_after_convergence(self):
        reference = build_ping_pong(reference=True)
        reference.converge()
        candidate = build_ping_pong()
        candidate.converge()
        for sys in (reference, candidate):
            sys.peer("a").insert_fact("ping@a(2)")
            sys.converge()
        assert candidate.snapshot() == reference.snapshot()
        assert len(candidate.peer("a").query("ack")) == 2


class TestSparseActivation:
    """Reactive scheduling skips idle peers (the event-driven win)."""

    def test_reactive_runs_at_least_3x_fewer_stages(self):
        reference = build_ping_pong(idle_peers=28, reference=True)
        reactive = build_ping_pong(idle_peers=28)
        stages_lockstep = reference.converge().total_stages()
        stages_reactive = reactive.converge().total_stages()
        assert reference.snapshot() == reactive.snapshot()
        assert stages_lockstep >= 3 * stages_reactive

    def test_idle_peer_is_never_activated_after_first_stage(self):
        reactive = build_ping_pong(idle_peers=5)
        reactive.converge()
        idle = reactive.peer("idle00")
        first_run_stages = idle.engine.state.stage_counter
        reactive.peer("a").insert_fact("ping@a(99)")
        reactive.converge()
        assert idle.engine.state.stage_counter == first_run_stages


class TestQuiescenceWithLatency:
    """Convergence is never reported while messages ride out their latency."""

    @DRIVERS
    def test_latency_3_converges_with_all_facts(self, reference, asynchronous):
        sys = build_ping_pong(latency=3, reference=reference)
        summary = converge(sys, asynchronous)
        assert summary.converged
        assert not sys.transport.has_in_flight()
        assert len(sys.peer("a").query("ack")) == 1

    def test_not_converged_while_in_flight(self):
        sys = build_ping_pong(latency=3)
        report = sys.step()
        assert sys.transport.has_in_flight()
        # The cycle that produced the in-flight message must not count as
        # convergence, nor may any cycle while the message is undelivered.
        summary = sys.converge(max_steps=2)
        assert not summary.converged
        assert sys.transport.has_in_flight() or sys.pending_engine_input() \
            or not report.is_quiescent()

    def test_idle_cycles_advance_the_clock_without_stages(self):
        sys = build_ping_pong(latency=4, idle_peers=3)
        summary = sys.converge()
        assert summary.converged
        # With latency 4 some cycles deliver nothing and activate nobody;
        # they exist purely to tick the transport clock.
        assert any(report.stages_executed == 0 for report in summary.rounds)

    def test_due_count_respects_latency(self):
        sys = build_ping_pong(latency=3, reference=True)
        sys.step()  # peer a sends pong@b; due 3 rounds later
        assert sys.transport.pending_count("b") == 1
        assert sys.transport.due_count("b") == 0
        sys.step()
        sys.step()
        assert sys.transport.due_count("b") == 1


class TestDrivers:
    def test_every_deployment_runs_the_reactive_driver(self):
        assert isinstance(WebdamLogSystem().scheduler, ReactiveScheduler)
        deployment = system().peer("a").build()
        assert deployment.runtime.scheduler.name == "reactive"
        assert deployment.converge().scheduler == "reactive"

    def test_the_reference_helper_swaps_in_lockstep(self):
        sys = build_ping_pong(idle_peers=2, reference=True)
        assert isinstance(sys.scheduler, LockstepScheduler)
        summary = sys.converge()
        assert summary.scheduler == "lockstep"
        assert all(report.stages_executed == 4 for report in summary.rounds)

    def test_drivers_satisfy_the_protocol(self):
        for driver in (LockstepScheduler(), ReactiveScheduler()):
            assert isinstance(driver, Scheduler)


class TestAconverge:
    """``await aconverge()``: the reactive cycle, yielding after every stage."""

    def test_aconverge_awaitable(self):
        sys = build_ping_pong()
        summary = asyncio.run(sys.aconverge())
        assert summary.converged and summary.scheduler == "reactive"
        assert len(sys.peer("a").query("ack")) == 1

    def test_aconverge_runs_the_systems_own_driver(self):
        reference = build_ping_pong(idle_peers=2, reference=True)
        summary = asyncio.run(reference.aconverge())
        assert summary.converged and summary.scheduler == "lockstep"
        assert all(report.stages_executed == 4 for report in summary.rounds)
        expected = build_ping_pong(idle_peers=2, reference=True)
        assert summary.round_count == expected.converge().round_count
        assert reference.snapshot() == expected.snapshot()

    def test_a_sibling_coroutine_progresses_during_one_aconverge(self):
        deployment = build_delegation()
        seen = []

        async def sibling(done):
            while not done.is_set():
                seen.append(deployment.current_round)
                await asyncio.sleep(0)

        async def main():
            done = asyncio.Event()
            task = asyncio.create_task(sibling(done))
            summary = await deployment.aconverge()
            done.set()
            await task
            return summary

        summary = asyncio.run(main())
        assert summary.converged
        # The sibling ran inside the run, cycle after cycle, not only after.
        during = {cycle for cycle in seen if cycle < deployment.current_round}
        assert len(during) >= summary.round_count - 1 >= 2

    def test_a_peer_removed_by_a_sibling_is_skipped_mid_cycle(self):
        sys = build_ping_pong(idle_peers=3)

        async def remove_after_first_stage():
            await asyncio.sleep(0)
            sys.remove_peer("idle01")

        async def main():
            task = asyncio.create_task(remove_after_first_stage())
            summary = await sys.aconverge()
            await task
            return summary

        summary = asyncio.run(main())
        assert summary.converged and "idle01" not in sys.peers
        # The first cycle was planned with every peer; idle01 left mid-way.
        assert "idle01" not in summary.rounds[0].peer_reports
        assert "idle02" in summary.rounds[0].peer_reports


class TestConvergeBounds:
    """``max_steps`` and ``extra_rounds`` bound the one converge loop the same
    way whichever entry point runs it."""

    @ENTRY_POINTS
    def test_max_steps_stops_an_unsettled_run(self, asynchronous):
        sys = build_ping_pong(latency=3)
        summary = converge(sys, asynchronous, max_steps=2)
        assert not summary.converged
        assert summary.round_count == 2 == sys.current_round
        assert len(sys.peer("a").query("ack")) == 0

    @ENTRY_POINTS
    def test_a_run_stopped_at_max_steps_names_the_rules_that_ran_away(self, asynchronous):
        """Each peer's keyed relation takes the other's value one step on:
        the two displace each other's value for ever.  The summary names
        both peers, each with its rule, as what was still changing."""
        def program(me, other):
            return f"""
            collection extensional persistent val@{me}(k*, v);
            collection extensional persistent next@{me}(v, w);
            fact next@{me}(0, 1); fact next@{me}(1, 2); fact next@{me}(2, 0);
            rule val@{other}($k, $w) :- val@{me}($k, $v), next@{me}($v, $w);
            """
        deployment = (system().peer("a").program(program("a", "b") + "fact val@a(1, 0);")
                      .peer("b").program(program("b", "a")).build())
        summary = converge(deployment, asynchronous, max_steps=30)
        assert not summary.converged and summary.round_count == 30
        (rule_a,), (rule_b,) = deployment.peer("a").rules(), deployment.peer("b").rules()
        assert summary.unsettled() == {"a": (rule_a.rule_id,), "b": (rule_b.rule_id,)}

    def test_a_converged_run_names_nothing(self):
        summary = build_ping_pong().converge()
        assert summary.converged and summary.unsettled() == {}

    @ENTRY_POINTS
    def test_extra_rounds_run_after_convergence(self, asynchronous):
        baseline = build_ping_pong().converge()
        sys = build_ping_pong()
        summary = converge(sys, asynchronous, extra_rounds=2)
        assert summary.converged
        assert summary.round_count == baseline.round_count + 2
        assert all(report.stages_executed == 0 for report in summary.rounds[-2:])
        assert len(sys.peer("a").query("ack")) == 1


class TestConvergenceIsTheFirstSettledCycle:
    """``converge`` stops on the first cycle that settled: no transport pads
    it with quiet cycles."""

    @DRIVERS
    def test_converge_stops_at_the_first_settled_cycle(self, reference,
                                                       asynchronous,
                                                       monkeypatch):
        flags = []
        judge = scheduler._settled_after

        def recording(system, report):
            flags.append(judge(system, report))
            return flags[-1]

        monkeypatch.setattr(scheduler, "_settled_after", recording)
        summary = converge(build_ping_pong(reference=reference), asynchronous)
        assert summary.converged
        assert flags == [False] * (summary.round_count - 1) + [True]

    def test_a_transport_attribute_does_not_pad_convergence(self):
        sys = build_ping_pong()
        sys.transport.convergence_quiet_period = 3
        assert sys.converge().round_count == build_ping_pong().converge().round_count


SCRATCH_ECHO = """
collection ext scratch ping@a(x);
collection int echo@a(x);
rule echo@a($x) :- ping@a($x);
"""

SCRATCH_INBOX_A = """
collection int scratch inbox@a(x);
collection int echo@a(x);
rule echo@a($x) :- inbox@a($x);
"""

SCRATCH_INBOX_B = """
collection ext persistent src@b(x);
fact src@b(1);
rule inbox@a($x) :- src@b($x);
"""

class TestStageLeftovers:
    """A stage's housekeeping deletions are input of the *next* stage.

    The facts were visible to the stage that cleared them, so what it derived
    from them is retracted one stage later — by a stage nothing else asks for.
    Every driver must run it (``needs_stage()`` used to forget the carry-over,
    so the reactive driver stopped one stage early, ``echo`` still derived).
    """

    @DRIVERS
    def test_scratch_relation_consequences_are_retracted(self, reference,
                                                         asynchronous):
        sys = WebdamLogSystem()
        if reference:
            lockstep(sys)
        peer = sys.add_peer("a", program=SCRATCH_ECHO)
        converge(sys, asynchronous)
        peer.insert_fact("ping@a(1)")
        summary = converge(sys, asynchronous)
        assert summary.converged
        assert peer.query("ping") == ()
        assert peer.query("echo") == ()
        # derive, retract, detect quiescence — the lockstep reference's count
        assert summary.round_count == 3

    @DRIVERS
    def test_provided_fact_of_a_scratch_relation_lasts_one_stage(
            self, reference, asynchronous):
        def run(reference, asynchronous):
            sys = WebdamLogSystem()
            if reference:
                lockstep(sys)
            sys.add_peer("a", program=SCRATCH_INBOX_A)
            sys.add_peer("b", program=SCRATCH_INBOX_B)
            return sys, converge(sys, asynchronous)

        expected_system, expected = run(True, False)
        candidate, summary = run(reference, asynchronous)
        assert summary.converged
        assert candidate.peer("a").query("echo") == ()
        assert candidate.snapshot() == expected_system.snapshot()
        assert summary.round_count == expected.round_count
