"""Property-based tests of the engine, at one peer and distributed."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.schema import RelationKind, RelationSchema
from repro.runtime.system import WebdamLogSystem

from tests.reference_engine import reference_engine

edges = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)),
    max_size=40,
)


def reference_closure(edge_set):
    """Straightforward Warshall-style closure used as ground truth."""
    closure = set(edge_set)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


TC_PROGRAM = """
collection extensional persistent edge@p(src, dst);
collection intensional path@p(src, dst);
rule path@p($x, $y) :- edge@p($x, $y);
rule path@p($x, $z) :- path@p($x, $y), edge@p($y, $z);
"""


def local_closure(edge_list, engine=None):
    engine = engine if engine is not None else WebdamLogEngine("p")
    engine.load_program(TC_PROGRAM)
    engine.insert_facts([Fact("edge", "p", edge) for edge in edge_list])
    engine.run_to_quiescence()
    return {fact.values for fact in engine.query("path")}


class TestLocalFixpointProperties:
    @given(edges)
    @settings(max_examples=40, deadline=None)
    def test_incremental_and_naive_agree_with_reference(self, edge_list):
        expected = reference_closure(set(edge_list))
        assert local_closure(edge_list) == expected
        assert local_closure(edge_list, reference_engine("p")) == expected

    @given(edges)
    @settings(max_examples=30, deadline=None)
    def test_evaluation_is_monotone_in_the_input(self, edge_list):
        smaller = edge_list[: len(edge_list) // 2]
        assert local_closure(smaller) <= local_closure(edge_list)


class TestDistributedConvergenceProperties:
    @given(edges)
    @settings(max_examples=15, deadline=None)
    def test_two_peer_split_matches_centralised_closure(self, edge_list):
        """Distributing the edge relation over two peers does not change the result.

        Peer ``a`` holds the even-numbered source vertices, peer ``b`` the odd
        ones; peer ``a`` computes the closure by pulling ``b``'s edges through
        a delegation-free mirror rule.  The distributed fixpoint must equal
        the centralised one.
        """
        system = WebdamLogSystem()
        a = system.add_peer("a")
        b = system.add_peer("b")
        a.declare(RelationSchema("path", "a", ("src", "dst"),
                                 kind=RelationKind.INTENSIONAL))
        a.add_rule("alledges@a($x, $y) :- edge@a($x, $y)")
        b.add_rule("alledges@a($x, $y) :- edge@b($x, $y)")
        a.add_rule("path@a($x, $y) :- alledges@a($x, $y)")
        a.add_rule("path@a($x, $z) :- path@a($x, $y), alledges@a($y, $z)")
        for src, dst in edge_list:
            owner = a if src % 2 == 0 else b
            owner.insert_fact(Fact("edge", owner.name, (src, dst)))
        summary = system.converge(max_steps=60)
        assert summary.converged
        computed = {(f.values[0], f.values[1]) for f in a.query("path")}
        assert computed == reference_closure(set(edge_list))

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=15),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_delegation_view_equals_selected_union(self, picture_ids, seed):
        """attendeePictures@viewer == union of pictures of the selected peers."""
        rng = random.Random(seed)
        system = WebdamLogSystem()
        viewer = system.add_peer("viewer")
        owners = [system.add_peer(f"owner{i}") for i in range(3)]
        viewer.declare(RelationSchema("attendeePictures", "viewer", ("id",),
                                      kind=RelationKind.INTENSIONAL))
        viewer.add_rule("attendeePictures@viewer($id) :- "
                        "selectedAttendee@viewer($a), pictures@$a($id)")
        expected = set()
        selected = {owner.name for owner in owners if rng.random() < 0.6}
        for owner_name in selected:
            viewer.insert_fact(Fact("selectedAttendee", "viewer", (owner_name,)))
        for picture_id in picture_ids:
            owner = owners[picture_id % len(owners)]
            owner.insert_fact(Fact("pictures", owner.name, (picture_id,)))
            if owner.name in selected:
                expected.add(picture_id)
        summary = system.converge(max_steps=60)
        assert summary.converged
        got = {f.values[0] for f in viewer.query("attendeePictures")}
        assert got == expected
