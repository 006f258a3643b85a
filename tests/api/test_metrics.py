"""One counter surface: each peer counts its work in one registry, and
``deployment.metrics()`` reads them — summed, or one peer's.  What the
registry holds must be what the stages and the replication channels did."""

from collections import Counter

from repro.runtime.inmemory import InMemoryTransport
from repro.wepic.scenario import build_demo_scenario

#: The layers the peers' registries count work in (the rest are gauges).
WORK_LAYERS = ("core", "planner", "replication", "store")


def work(metrics):
    """The work counts of a ``metrics()`` read, without the gauges."""
    gauges = {"extensional_facts", "derived_facts", "installed_delegations"}
    return {key: value for key, value in metrics.items()
            if key[0] in WORK_LAYERS and key[1] not in gauges}


def drive_demo(scenario):
    """The demo's screens: rate, select an attendee, restrict, a guest."""
    emilien, jules = scenario.app("Emilien"), scenario.app("Jules")
    scenario.api.converge()
    pictures = emilien.local_pictures()
    emilien.rate_picture(pictures[0].picture_id, 5)
    emilien.rate_picture(pictures[1].picture_id, 3)
    jules.select_attendee("Emilien")
    scenario.api.converge()
    jules.restrict_to_rating(5)
    scenario.api.converge()
    guest = scenario.add_attendee("Guest", pictures=1)
    guest.select_attendee("Emilien")
    scenario.api.converge()


class TestTheRegistryAgreesWithTheStages:
    def test_core_counts_are_the_sums_of_the_stage_results(self):
        scenario = build_demo_scenario()
        deployment = scenario.api
        results = []
        deployment.runtime.add_stage_observer(
            lambda name, report: results.append((name, report.stage_result)))
        before = {name: deployment.metrics(peer=name) for name in deployment.peer_names()}
        drive_demo(scenario)
        assert results
        for name in deployment.peer_names():
            mine = [result for peer, result in results if peer == name]
            now = deployment.metrics(peer=name)
            was = before.get(name, Counter())
            assert (now["core", "substitutions_explored"] - was["core", "substitutions_explored"]
                    == sum(result.substitutions_explored for result in mine))
            paths = Counter(result.evaluation_path for result in mine)
            for path in ("full", "delta", "rederive", "skip"):
                stages = f"stages_{path}"
                assert now["core", stages] - was["core", stages] == paths[path], (name, path)
        # The deployment's read is the peers' reads summed.
        summed = Counter()
        for name in deployment.peer_names():
            summed.update(work(deployment.metrics(peer=name)))
        assert work(deployment.metrics()) == summed
        assert deployment.metrics()["core", "stages_delta"] > 0

    def test_replication_counts_are_the_peers_channel_counters(self):
        lossy = InMemoryTransport(drop_probability=0.2, duplicate_probability=0.2,
                                  reorder_window=2, seed=5)
        scenario = build_demo_scenario(transport=lossy)
        drive_demo(scenario)
        peers = scenario.api.runtime.peers.values()
        summed = Counter()
        for peer in peers:
            summed.update(peer.replication.counters)
        metrics = scenario.api.metrics()
        replication = {name: value for (layer, name), value in metrics.items()
                       if layer == "replication"}
        assert replication == dict(summed)
        assert replication["ops_sent"] > 0 and replication["envelopes_applied"] > 0
        assert scenario.api.stats.messages_dropped > 0
        assert metrics["transport", "messages_dropped"] == scenario.api.stats.messages_dropped

    def test_a_peer_removed_and_added_again_starts_at_zero(self):
        scenario = build_demo_scenario()
        drive_demo(scenario)
        deployment = scenario.api
        assert work(deployment.metrics(peer="Guest"))["core", "stages_full"] == 1
        others = Counter()
        deployment.remove_peer("Guest")
        for name in deployment.peer_names():
            others.update(work(deployment.metrics(peer=name)))
        assert work(deployment.metrics()) == others
        deployment.add_peer("Guest")
        assert work(deployment.metrics(peer="Guest")) == {}
        assert deployment.metrics(peer="Guest")["store", "extensional_facts"] == 0
        assert deployment.metrics()["runtime", "peers"] == len(deployment.peer_names())
