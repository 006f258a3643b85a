"""Failure injection: message loss, peer removal, higher latency."""

import pytest

from repro.core.facts import Fact
from repro.core.schema import RelationKind, RelationSchema
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.system import WebdamLogSystem
from repro.wepic.scenario import build_demo_scenario


def attendee_view_system(drop_probability=0.0, seed=0, latency=1):
    # A lossy transport gives every peer causal replication, which repairs
    # loss by anti-entropy (see tests/properties/
    # test_confluence_replication.py); a lossless one ships raw messages.
    transport = InMemoryTransport(latency=latency,
                                  drop_probability=drop_probability, seed=seed)
    system = WebdamLogSystem(transport=transport)
    jules = system.add_peer("Jules")
    emilien = system.add_peer("Emilien")
    jules.declare(RelationSchema("attendeePictures", "Jules", ("id",),
                                 kind=RelationKind.INTENSIONAL))
    jules.add_rule("attendeePictures@Jules($id) :- "
                   "selectedAttendee@Jules($a), pictures@$a($id)")
    jules.insert_fact(Fact("selectedAttendee", "Jules", ("Emilien",)))
    for picture_id in range(5):
        emilien.insert_fact(Fact("pictures", "Emilien", (picture_id,)))
    return system, jules, emilien


class TestMessageLoss:
    def test_lossless_baseline_converges_to_full_view(self):
        system, jules, _ = attendee_view_system()
        assert system.converge().converged
        assert len(jules.query("attendeePictures")) == 5

    def test_total_loss_keeps_view_empty_and_the_system_unsettled(self):
        # Nothing arrives, and converge() says so: a causal channel whose
        # ops are never acknowledged keeps the deployment from settling.
        system, jules, emilien = attendee_view_system(drop_probability=1.0)
        summary = system.converge(max_steps=30)
        assert not summary.converged
        assert system.replication_unsettled()
        assert jules.query("attendeePictures") == ()
        assert len(emilien.installed_delegations()) == 0
        assert system.transport.stats.messages_dropped > 0

    def test_partial_loss_is_repaired_to_the_full_view(self):
        system, jules, _ = attendee_view_system(drop_probability=0.4, seed=7)
        assert system.converge(max_steps=200).converged
        assert system.transport.stats.messages_dropped > 0
        ids = {f.values[0] for f in jules.query("attendeePictures")}
        assert ids == {0, 1, 2, 3, 4}


class TestPeerRemoval:
    def test_removed_peer_stops_receiving_but_system_continues(self):
        system, jules, emilien = attendee_view_system()
        system.converge()
        system.remove_peer("Emilien")
        # Jules keeps working; new selections towards the dead peer do not
        # crash rounds, the messages are just undeliverable.
        jules.insert_fact(Fact("selectedAttendee", "Jules", ("Ghost",)))
        summary = system.converge(max_steps=20)
        assert summary.converged
        assert "Emilien" not in system

    def test_view_survives_with_provided_facts_after_removal(self):
        system, jules, _ = attendee_view_system()
        system.converge()
        assert len(jules.query("attendeePictures")) == 5
        system.remove_peer("Emilien")
        system.converge(max_steps=10)
        # Without the sender the provided facts are never retracted: the view
        # keeps its last known content (documented eventual-consistency model).
        assert len(jules.query("attendeePictures")) == 5


class TestLatency:
    @pytest.mark.parametrize("latency", [1, 2, 4])
    def test_convergence_under_any_latency(self, latency):
        system, jules, _ = attendee_view_system(latency=latency)
        summary = system.converge(max_steps=60)
        assert summary.converged
        assert len(jules.query("attendeePictures")) == 5

    def test_rounds_grow_with_latency(self):
        rounds = []
        for latency in (1, 3):
            system, _, _ = attendee_view_system(latency=latency)
            rounds.append(system.converge(max_steps=60).round_count)
        assert rounds[1] > rounds[0]


class TestScenarioUnderLoss:
    def test_demo_scenario_with_loss_converges_to_the_lossless_answer(self):
        def run(transport):
            scenario = build_demo_scenario(pictures_per_attendee=1,
                                           transport=transport)
            scenario.app("Jules").select_attendee("Emilien")
            assert scenario.api.converge(max_steps=200).converged
            return scenario.api.snapshot()

        lossy = InMemoryTransport(drop_probability=0.3, seed=0)
        assert run(lossy) == run(InMemoryTransport())
        assert lossy.stats.messages_dropped > 0
