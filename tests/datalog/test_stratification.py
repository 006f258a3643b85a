"""Tests of the stratification of a peer's rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StratificationError
from repro.core.parser import parse_rule
from repro.core.rules import Atom, Rule
from repro.datalog.stratification import stratify

PEER = "p"
RELATIONS = ("a", "b", "c")
PEERS = (PEER, "q")
#: ``c@p`` is extensional and ``q`` is remote: a head with a variable
#: position derives into neither during the local fixpoint.
LOCAL_INTENSIONAL = frozenset({"a@p", "b@p"})


def heads_of(strata):
    return [sorted({rule.head.relation_constant() for rule in stratum})
            for stratum in strata]


def rules_of(*texts):
    return [parse_rule(text, default_peer=PEER) for text in texts]


class TestStratify:
    def test_positive_program_single_stratum(self):
        strata = stratify(rules_of("p@p($x) :- q@p($x)", "r@p($x) :- p@p($x)"),
                          frozenset())
        assert len(strata) == 1
        assert len(strata[0]) == 2

    def test_negation_splits_strata(self):
        strata = stratify(rules_of(
            "reach@p($x) :- source@p($x)",
            "reach@p($y) :- reach@p($x), edge@p($x, $y)",
            "unreachable@p($x) :- node@p($x), not reach@p($x)"), frozenset())
        assert heads_of(strata) == [["reach"], ["unreachable"]]
        assert len(strata[0]) == 2

    def test_chained_negation_three_strata(self):
        strata = stratify(rules_of(
            "c@p($x) :- base@p($x), not b@p($x)",
            "b@p($x) :- base@p($x), not a@p($x)",
            "a@p($x) :- base@p($x)"), frozenset())
        assert heads_of(strata) == [["a"], ["b"], ["c"]]

    def test_stratum_ordering_respects_positive_dependencies_on_negated_strata(self):
        strata = stratify(rules_of(
            "filtered@p($x) :- base@p($x), not bad@p($x)",
            "bad@p($x) :- flagged@p($x)",
            "report@p($x) :- filtered@p($x)"), frozenset())
        assert heads_of(strata) == [["bad"], ["filtered", "report"]]

    def test_variable_peer_literal_reads_every_relation_of_its_name(self):
        strata = stratify(rules_of(
            "seen@p($x) :- base@p($x), peer@p($peer), not a@$peer($x)",
            "a@q($x) :- base@p($x)"), frozenset())
        assert heads_of(strata) == [["a"], ["seen"]]

    def test_variable_head_derives_only_into_local_intensional_relations(self):
        rules = rules_of("a@p($x) :- base@p($x), not c@p($x)",
                         "$r@p($x) :- tgt@p($r), base@p($x)")
        # c@p is extensional: the variable head's writes to it are deferred
        # to the next stage, so the two rules share a stratum.
        assert len(stratify(rules, LOCAL_INTENSIONAL)) == 1
        assert stratify(rules, LOCAL_INTENSIONAL | {"c@p"}) == [[rules[1]], [rules[0]]]


# --------------------------------------------------------------------------- #
# property: the least stratification of the read graph, or one stratum
# --------------------------------------------------------------------------- #

relation_positions = st.sampled_from(RELATIONS + ("$r",))
peer_positions = st.sampled_from(PEERS + ("$peer",))
heads = st.builds(lambda relation, peer: Atom.of(relation, peer, "$x"),
                  relation_positions, peer_positions)
literals = st.builds(lambda relation, peer, negated: Atom.of(relation, peer, "$x",
                                                             negated=negated),
                     relation_positions, peer_positions, st.booleans())
programs = st.lists(st.builds(lambda head, body: Rule(head, tuple(body)),
                              heads, st.lists(literals, min_size=1, max_size=3)),
                    min_size=1, max_size=7)


def targets(head):
    """What ``head`` can derive into during the local fixpoint."""
    relation, peer = head.relation_constant(), head.peer_constant()
    if relation is not None and peer is not None:
        return {f"{relation}@{peer}"}
    return {predicate for predicate in LOCAL_INTENSIONAL
            if overlaps(relation, peer, predicate)}


def overlaps(relation, peer, predicate):
    name, owner = predicate.split("@")
    return relation in (None, name) and peer in (None, owner)


def read_edges(rules):
    """``(reader, definer, negated)`` for every literal overlapping a head."""
    return {(reader, definer, literal.negated)
            for reader, rule in enumerate(rules)
            for literal in rule.body
            for definer, other in enumerate(rules)
            if any(overlaps(literal.relation_constant(), literal.peer_constant(),
                            predicate)
                   for predicate in targets(other.head))}


def reaches(edges, count):
    """``reach[x]``: every rule ``x`` reads through one or more edges."""
    reach = [{definer for reader, definer, _ in edges if reader == x}
             for x in range(count)]
    grown = True
    while grown:
        grown = False
        for x in range(count):
            wider = reach[x].union(*(reach[y] for y in reach[x]))
            if wider != reach[x]:
                reach[x], grown = wider, True
    return reach


def has_cycle_through_negation(rules):
    edges = read_edges(rules)
    reach = reaches(edges, len(rules))
    return any(negated and (reader == definer or reader in reach[definer])
               for reader, definer, negated in edges)


def without_cycles_through_negation(rules):
    """The rules, in order, that join the program without closing a cycle
    through negation (what the engine lets a program hold)."""
    kept = []
    for rule in rules:
        if not has_cycle_through_negation(kept + [rule]):
            kept.append(rule)
    return kept


#: Programs the engine accepts (at least one rule).
stratifiable_programs = programs.map(without_cycles_through_negation).filter(bool)


def least_strata(edges, count):
    stratum = [0] * count
    raised = True
    while raised:
        raised = False
        for reader, definer, negated in edges:
            if stratum[reader] < stratum[definer] + negated:
                stratum[reader], raised = stratum[definer] + negated, True
    return stratum


class TestStratifyProperties:
    @given(programs)
    @settings(max_examples=300, deadline=None)
    def test_least_stratification_in_written_order(self, rules):
        edges = read_edges(rules)
        if has_cycle_through_negation(rules):
            with pytest.raises(StratificationError) as refused:
                stratify(rules, LOCAL_INTENSIONAL)
            assert_is_a_cycle_through_negation(rules, edges, refused.value)
            return
        strata = stratify(rules, LOCAL_INTENSIONAL)
        position = {id(rule): index for index, rule in enumerate(rules)}
        # Every rule once, in written order within its stratum.
        assert sorted(position[id(rule)] for stratum in strata for rule in stratum) \
            == list(range(len(rules)))
        for stratum in strata:
            order = [position[id(rule)] for rule in stratum]
            assert order == sorted(order)

        stratum_of = {position[id(rule)]: number
                      for number, stratum in enumerate(strata) for rule in stratum}
        for reader, definer, negated in edges:
            if negated:
                assert stratum_of[reader] > stratum_of[definer]
            else:
                assert stratum_of[reader] >= stratum_of[definer]
        # Minimal: each rule sits exactly as high as its reads force it.
        assert [stratum_of[index] for index in range(len(rules))] \
            == least_strata(edges, len(rules))


def assert_is_a_cycle_through_negation(rules, edges, error):
    """Each rule the error names reads the next (the last the first), the
    first under negation — found among the rules with those texts."""
    named = [[index for index, rule in enumerate(rules) if str(rule) == text]
             for text in error.rules]
    assert all(named)
    assert len(error.cycle) == len(error.rules) + 1
    assert error.cycle[0] == error.cycle[-1]
    for step, (readers, definers) in enumerate(zip(named, named[1:] + named[:1])):
        assert any((reader, definer, True) in edges or
                   (step and (reader, definer, False) in edges)
                   for reader in readers for definer in definers)
