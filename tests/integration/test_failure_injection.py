"""Failure injection: message loss, peer removal, higher latency."""

import pytest

from repro.core.facts import Fact
from repro.core.schema import RelationKind, RelationSchema
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.system import WebdamLogSystem
from repro.wepic.scenario import build_demo_scenario


def attendee_view_system(drop_probability=0.0, seed=0, latency=1):
    # Pinned to reliable replication: these tests document the reliable
    # mode's eventual-consistency model, where lost messages stay lost
    # (causal mode repairs loss — see tests/properties/
    # test_confluence_replication.py).
    transport = InMemoryTransport(latency=latency,
                                  drop_probability=drop_probability, seed=seed)
    system = WebdamLogSystem(transport=transport, replication="reliable")
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

    def test_total_loss_keeps_view_empty_but_system_stable(self):
        system, jules, emilien = attendee_view_system(drop_probability=1.0)
        summary = system.converge(max_steps=30)
        assert summary.converged
        assert jules.query("attendeePictures") == ()
        assert len(emilien.installed_delegations()) == 0
        assert system.transport.stats.messages_dropped > 0

    def test_partial_loss_never_yields_wrong_facts(self):
        # Whatever the loss pattern, facts that do arrive are genuine.
        system, jules, _ = attendee_view_system(drop_probability=0.4, seed=7)
        system.converge(max_steps=40)
        ids = {f.values[0] for f in jules.query("attendeePictures")}
        assert ids <= {0, 1, 2, 3, 4}


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
    def test_demo_scenario_with_loss_converges(self):
        scenario = build_demo_scenario(pictures_per_attendee=1)
        scenario.system.transport.drop_probability = 0.3
        jules = scenario.app("Jules")
        jules.select_attendee("Emilien")
        summary = scenario.run(max_rounds=60)
        assert summary.converged
