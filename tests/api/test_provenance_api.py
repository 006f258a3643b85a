"""``system().provenance()`` and ``deployment.explain`` through the facade."""

import pytest

from repro.api import Explanation, system
from repro.core.facts import Fact

HUB_PROGRAM = """
collection extensional persistent follows@hub(who);
collection intensional wall@hub(id);
rule wall@hub($id) :- follows@hub($f), posts@$f($id);
"""


def build_deployment(**kwargs):
    return (system()
            .provenance()
            .peer("hub").program(HUB_PROGRAM)
            .peer("left").program(
                "collection extensional persistent posts@left(id);")
            .build())


class TestBuilderProvenance:
    def test_every_peer_gets_a_tracker(self):
        deployment = build_deployment()
        for name in deployment.peer_names():
            assert deployment.runtime.peer(name).provenance is not None

    def test_disabled_by_default(self):
        deployment = system().peer("solo").build()
        assert deployment.runtime.peer("solo").provenance is None

    def test_late_added_peer_inherits_the_flag(self):
        deployment = build_deployment()
        handle = deployment.add_peer("late")
        assert handle.unwrap().provenance is not None

    def test_provenance_does_not_pin_full_evaluation(self):
        deployment = build_deployment()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(1)")
        deployment.converge()
        deployment.peer("left").insert("posts@left(2)")
        deployment.converge()
        assert deployment.metrics(peer="hub")["core", "stages_delta"] > 0


class TestExplain:
    def test_explain_parses_fact_strings(self):
        deployment = build_deployment()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(5)")
        deployment.converge()
        explanation = deployment.explain("hub", "wall@hub(5)")
        assert isinstance(explanation, Explanation)
        assert explanation.derived
        assert "posts@left" in explanation.base_relations
        assert "left" in str(explanation.peers) or "left" in explanation.peers

    def test_explain_base_fact(self):
        deployment = build_deployment()
        deployment.peer("left").insert("posts@left(5)")
        deployment.converge()
        explanation = deployment.explain("left", Fact("posts", "left", (5,)))
        assert not explanation.derived
        assert explanation.base_relations == frozenset({"posts@left"})

    def test_explain_without_provenance_raises(self):
        deployment = system().peer("solo").build()
        with pytest.raises(RuntimeError, match="provenance"):
            deployment.explain("solo", "r@solo(1)")
