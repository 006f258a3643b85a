"""Classic datalog programs run by one peer's engine.

Each case runs on the engine, and on the three parts of the test-side
reference (``tests/reference_engine.py``), each on its own: an engine that
walks every body in written order (``written-order``), one that recomputes
every stage (``naive``) and one whose every probe is a filtered scan
(``scan``).  Every run must derive the same answer, the one a fresh engine
computes from the final facts.
"""

import random

import pytest

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

from tests.reference_engine import (
    recompute_every_stage,
    scan_every_probe,
    written_order,
)

MODES = {
    "incremental": lambda: WebdamLogEngine("p"),
    "written-order": lambda: written_order(WebdamLogEngine("p")),
    "naive": lambda: recompute_every_stage(WebdamLogEngine("p", storage="memory")),
    "scan": lambda: scan_every_probe(WebdamLogEngine("p", storage="memory")),
}

TC_PROGRAM = """
collection extensional persistent edge@p(src, dst);
collection intensional path@p(src, dst);
rule path@p($x, $y) :- edge@p($x, $y);
rule path@p($x, $z) :- path@p($x, $y), edge@p($y, $z);
"""

REACH_PROGRAM = """
collection extensional persistent edge@p(src, dst);
collection extensional persistent node@p(x);
collection extensional persistent source@p(x);
collection intensional reach@p(x);
collection intensional unreachable@p(x);
rule reach@p($x) :- source@p($x);
rule reach@p($y) :- reach@p($x), edge@p($x, $y);
rule unreachable@p($x) :- node@p($x), not reach@p($x);
"""

RECURSIVE_RULE = "path@p($x, $z) :- path@p($x, $y), edge@p($y, $z)"


@pytest.fixture(params=sorted(MODES))
def mode(request):
    return request.param


def run(mode, program, facts):
    """An engine in ``mode`` with ``program`` loaded, at quiescence over ``facts``."""
    engine = MODES[mode]()
    engine.load_program(program)
    engine.insert_facts([Fact(relation, "p", values) for relation, values in facts])
    engine.run_to_quiescence()
    return engine


def rows(engine, relation):
    return {fact.values for fact in engine.query(relation)}


def chain(length):
    """Edges of the chain 0 -> 1 -> ... -> length."""
    return [("edge", (index, index + 1)) for index in range(length)]


def chain_closure(length):
    return {(i, j) for i in range(length + 1) for j in range(i + 1, length + 1)}


def reach_facts(edges, nodes=4):
    return ([("source", (0,))] + [("node", (x,)) for x in range(nodes)]
            + [("edge", edge) for edge in edges])


class TestClassicPrograms:
    def test_chain_closure(self, mode):
        engine = run(mode, TC_PROGRAM, chain(6))
        assert rows(engine, "path") == chain_closure(6)

    def test_cycle_terminates(self, mode):
        engine = run(mode, TC_PROGRAM, [("edge", (1, 2)), ("edge", (2, 3)),
                                        ("edge", (3, 1))])
        assert len(rows(engine, "path")) == 9   # complete relation over 3 nodes

    def test_same_generation(self, mode):
        # Non-linear recursion: sg is read twice apart in one body.
        program = """
        collection extensional persistent parent@p(child, parent);
        collection intensional sg@p(x, y);
        rule sg@p($x, $y) :- parent@p($x, $p), parent@p($y, $p);
        rule sg@p($x, $y) :- parent@p($x, $px), sg@p($px, $py), parent@p($y, $py);
        """
        parents = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)]
        engine = run(mode, program, [("parent", row) for row in parents])
        children = {(x, y) for x in (2, 3) for y in (2, 3)}
        grandchildren = {(x, y) for x in range(4, 8) for y in range(4, 8)}
        assert rows(engine, "sg") == children | grandchildren

    def test_negation_over_a_recursive_relation(self, mode):
        engine = run(mode, REACH_PROGRAM, reach_facts([(0, 1), (1, 2)]))
        assert rows(engine, "reach") == {(0,), (1,), (2,)}
        assert rows(engine, "unreachable") == {(3,)}

    def test_random_graph_with_negated_closure(self, mode):
        """ok(x): nodes on no cycle, over a random graph, against a stdlib
        reference closure."""
        program = TC_PROGRAM + """
        collection extensional persistent n@p(x);
        collection intensional ok@p(x);
        rule ok@p($x) :- n@p($x), not path@p($x, $x);
        """
        rng = random.Random(11)
        edges = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(25)}
        engine = run(mode, program, [("edge", edge) for edge in edges]
                     + [("n", (x,)) for x in range(10)])
        closure = set(edges)
        while True:
            step = {(a, d) for a, b in closure for c, d in closure if b == c}
            if step <= closure:
                break
            closure |= step
        assert rows(engine, "path") == closure
        assert rows(engine, "ok") == {(x,) for x in range(10) if (x, x) not in closure}


class TestUpdates:
    def test_inserted_edges_match_recomputation(self, mode):
        engine = run(mode, TC_PROGRAM, chain(5))
        engine.insert_facts([Fact("edge", "p", (6, 7)), Fact("edge", "p", (5, 6))])
        engine.run_to_quiescence()
        assert rows(engine, "path") == chain_closure(7)

    def test_deleted_edge_matches_recomputation(self, mode):
        engine = run(mode, TC_PROGRAM, chain(5) + [("edge", (0, 3))])
        engine.delete_fact(Fact("edge", "p", (2, 3)))
        engine.run_to_quiescence()
        fresh = run(mode, TC_PROGRAM, [fact for fact in chain(5) + [("edge", (0, 3))]
                                       if fact != ("edge", (2, 3))])
        assert rows(engine, "path") == rows(fresh, "path")
        assert (0, 5) in rows(engine, "path") and (1, 3) not in rows(engine, "path")

    def test_an_insert_retracts_what_a_negation_derived(self, mode):
        engine = run(mode, REACH_PROGRAM, reach_facts([(0, 1), (1, 2)]))
        engine.insert_fact(Fact("edge", "p", (2, 3)))
        engine.run_to_quiescence()
        assert rows(engine, "unreachable") == set()

    def test_a_delete_derives_under_negation(self, mode):
        engine = run(mode, REACH_PROGRAM, reach_facts([(0, 1), (1, 2)]))
        engine.delete_fact(Fact("edge", "p", (0, 1)))
        engine.run_to_quiescence()
        assert rows(engine, "reach") == {(0,)}
        assert rows(engine, "unreachable") == {(1,), (2,), (3,)}


class TestRuleChanges:
    def test_adding_the_recursive_rule_after_the_facts(self, mode):
        base = TC_PROGRAM.replace(f"rule {RECURSIVE_RULE};\n", "")
        engine = run(mode, base, chain(4))
        assert rows(engine, "path") == set(values for _, values in chain(4))
        engine.add_rule(RECURSIVE_RULE)
        engine.run_to_quiescence()
        assert rows(engine, "path") == chain_closure(4)

    def test_removing_the_recursive_rule(self, mode):
        engine = run(mode, TC_PROGRAM, chain(4))
        recursive = [rule for rule in engine.rules() if len(rule.body) == 2]
        assert len(recursive) == 1
        engine.remove_rule(recursive[0].rule_id)
        engine.run_to_quiescence()
        assert rows(engine, "path") == set(values for _, values in chain(4))
