"""Streaming queries and feed-driven subscriptions."""

import pytest

from repro.api import system

from tests.reference_engine import lockstep

JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $n) :-
    selectedAttendee@Jules($a), pictures@$a($id, $n);
"""

EMILIEN = """
collection extensional persistent pictures@Emilien(id, name);
fact pictures@Emilien(1, "sea.jpg");
fact pictures@Emilien(2, "boat.jpg");
"""


def build_quickstart(scheduler="lockstep"):
    deployment = (system()
                  .peer("Jules").program(JULES)
                  .peer("Emilien").program(EMILIEN)
                  .build())
    return lockstep(deployment) if scheduler == "lockstep" else deployment


class TestIterFacts:
    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_streams_facts_while_converging(self, scheduler):
        built = build_quickstart(scheduler)
        view = built.query("Jules", "attendeePictures")
        streamed = list(view.iter_facts())
        assert sorted(f.values for f in streamed) == [(1, "sea.jpg"), (2, "boat.jpg")]
        # The stream drove the system to its fixpoint.
        assert len(view) == 2

    def test_streams_existing_facts_on_a_converged_system(self):
        built = build_quickstart()
        built.converge()
        streamed = list(built.query("Jules", "attendeePictures").iter_facts())
        assert sorted(f.values for f in streamed) == [(1, "sea.jpg"), (2, "boat.jpg")]

    def test_stream_interleaves_with_execution(self):
        built = build_quickstart()
        rounds_at_yield = []
        for _ in built.query("Jules", "attendeePictures").iter_facts():
            rounds_at_yield.append(built.current_round)
        # Facts arrive mid-run, before the convergence-detection cycles end.
        assert rounds_at_yield
        final_round = built.current_round
        assert all(r < final_round for r in rounds_at_yield)

    def test_iteration_stops_at_fixpoint(self):
        built = build_quickstart()
        assert len(list(built.query("Jules", "attendeePictures").iter_facts())) == 2
        # A second stream over the converged system terminates immediately
        # with the same facts (include-existing), not a hung iterator.
        assert len(list(built.query("Jules", "attendeePictures").iter_facts())) == 2

    def test_detached_handle_falls_back_to_current_facts(self):
        built = build_quickstart()
        built.converge()
        handle = built.peer("Emilien").query("pictures", peer="Emilien")
        assert len(list(handle.iter_facts())) == 2


class TestDeltaDrivenSubscriptions:
    """Callbacks are fed from stage deltas, not round-boundary re-scans."""

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_exactly_once_per_scheduler(self, scheduler):
        built = build_quickstart(scheduler)
        fired = []
        sub = built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        built.converge()
        assert sorted(f.values for f in fired) == [(1, "sea.jpg"), (2, "boat.jpg")]
        assert sub.delivered == 2

    def test_callback_fires_during_the_run_not_after(self):
        built = build_quickstart()
        rounds_at_fire = []
        built.subscribe("attendeePictures",
                        lambda fact: rounds_at_fire.append(built.current_round),
                        peer="Jules")
        summary = built.converge()
        assert len(rounds_at_fire) == 2
        # Delivered while converging, strictly before the final cycle.
        assert all(r < summary.rounds[-1].round_number for r in rounds_at_fire)

    def test_retraction_then_rederivation_fires_again_under_reactive(self):
        built = build_quickstart("reactive")
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        jules = built.peer("Jules")
        jules.delete('selectedAttendee@Jules("Emilien")')
        built.converge()
        assert len(built.query("Jules", "attendeePictures")) == 0
        jules.insert('selectedAttendee@Jules("Emilien")')
        built.converge()
        assert len(fired) == 4

    def test_include_existing_fires_when_execution_resumes(self):
        built = build_quickstart("reactive")
        built.converge()
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules",
                        include_existing=True)
        built.converge()
        assert len(fired) == 2

    def test_delivery_is_scoped_to_the_stage_that_derived_the_fact(self):
        built = build_quickstart()
        fired, stages = [], []
        built.subscribe("attendeePictures", fired.append, peer="Jules")
        # Added after the facade's own observer: it sees each stage's
        # deliveries already made.
        built.runtime.add_stage_observer(
            lambda name, report: stages.append((name, len(fired))))
        built.converge()
        grew = {name for (name, count), (_, before) in zip(stages, [("", 0)] + stages)
                if count > before}
        assert grew == {"Jules"}
        assert sorted(f.values for f in fired) == [(1, "sea.jpg"), (2, "boat.jpg")]


class TestStreamingAcrossSchedulers:
    """iter_facts must stream under the reactive driver and the reference."""

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_iter_facts_streams_under_every_scheduler(self, scheduler):
        built = build_quickstart(scheduler)
        view = built.query("Jules", "attendeePictures")
        streamed = list(view.iter_facts())
        assert sorted(f.values for f in streamed) == [(1, "sea.jpg"), (2, "boat.jpg")]
        assert len(view) == 2

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_streams_interleave_with_event_driven_execution(self, scheduler):
        built = build_quickstart(scheduler)
        rounds_at_yield = []
        for _ in built.query("Jules", "attendeePictures").iter_facts():
            rounds_at_yield.append(built.current_round)
        assert rounds_at_yield
        assert all(r < built.current_round for r in rounds_at_yield)

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_compiled_live_view_streams_under_event_driven_schedulers(self, scheduler):
        built = build_quickstart(scheduler)
        view = built.query(
            "Jules",
            'ans($id, $n) :- selectedAttendee@Jules($a), pictures@$a($id, $n)')
        streamed = sorted(f.values for f in view.iter_facts())
        assert streamed == [(1, "sea.jpg"), (2, "boat.jpg")]
        view.close()

    @pytest.mark.parametrize("scheduler", ["lockstep", "reactive"])
    def test_stream_terminates_on_a_converged_system(self, scheduler):
        built = build_quickstart(scheduler)
        built.converge()
        streamed = list(built.query("Jules", "attendeePictures").iter_facts())
        assert sorted(f.values for f in streamed) == [(1, "sea.jpg"), (2, "boat.jpg")]
