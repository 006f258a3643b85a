"""Tests of the per-program analysis and the relation sets a stage reads.

A stage asks the analysis which rules a delta re-fires; the analysis answers
from a reader index built once per program.  The property tests here keep
the per-rule scan it replaced as the reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import ProgramAnalysis
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.rules import Rule
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry

from tests.datalog.test_stratification import (LOCAL_INTENSIONAL, PEERS, RELATIONS,
                                               overlaps, targets)
from tests.datalog.test_stratification import stratifiable_programs as programs

PREDICATES = sorted(f"{relation}@{peer}" for relation in RELATIONS + ("z",)
                    for peer in PEERS)
predicate_sets = st.sets(st.sampled_from(PREDICATES), max_size=4)


def scan_reads(rule, predicates):
    """The per-rule scan: does a body literal of ``rule`` match a predicate?"""
    return any(overlaps(atom.relation_constant(), atom.peer_constant(), predicate)
               for atom in rule.body for predicate in predicates)


def ids(rules):
    return [id(rule) for rule in rules]


class TestReaderIndexAgainstTheScan:
    @given(programs, predicate_sets)
    @settings(max_examples=300, deadline=None)
    def test_reading_fires_exactly_the_scanned_rules(self, rules, predicates):
        analysis = ProgramAnalysis(tuple(rules), LOCAL_INTENSIONAL)
        assert ids(analysis.reading(predicates)) \
            == ids(rule for rule in rules if scan_reads(rule, predicates))
        for number, stratum in enumerate(analysis.strata):
            assert ids(analysis.reading(predicates, number)) \
                == ids(rule for rule in stratum if scan_reads(rule, predicates))

    @given(programs, predicate_sets)
    @settings(max_examples=300, deadline=None)
    def test_reaches_negation_follows_the_scanned_closure(self, rules, seeds):
        analysis = ProgramAnalysis(tuple(rules), LOCAL_INTENSIONAL)
        reachable = set(seeds)
        grown = True
        while grown:
            grown = False
            for rule in rules:
                if scan_reads(rule, reachable) and not targets(rule.head) <= reachable:
                    reachable |= targets(rule.head)
                    grown = True
        expected = any(overlaps(atom.relation_constant(), atom.peer_constant(),
                                predicate)
                       for rule in rules for atom in rule.body if atom.negated
                       for predicate in reachable)
        assert analysis.reaches_negation(set(seeds)) == expected

    @given(programs)
    @settings(max_examples=200, deadline=None)
    def test_feeds_itself_matches_the_scan(self, rules):
        analysis = ProgramAnalysis(tuple(rules), LOCAL_INTENSIONAL)
        for stratum in analysis.strata:
            derived = set().union(*(targets(rule.head) for rule in stratum))
            assert analysis.feeds_itself(stratum) \
                == any(scan_reads(rule, derived) for rule in stratum)

    @given(programs, predicate_sets, st.data())
    @settings(max_examples=300, deadline=None)
    def test_affected_closure_matches_the_scanned_fixpoint(self, rules, seeds, data):
        seed_rules = data.draw(st.lists(st.sampled_from(rules), max_size=2))
        shipped_peer = data.draw(st.sampled_from(PEERS))

        def shipped(rule):
            # What a rule with an open head has sent so far: one remote fact.
            return {f"a@{shipped_peer}"}

        def into(rule):
            found = targets(rule.head)
            if None in (rule.head.relation_constant(), rule.head.peer_constant()):
                found |= shipped(rule)
            return found

        affected = set(seeds)
        closed = {id(rule) for rule in seed_rules}
        for rule in rules:
            if id(rule) in closed:
                affected |= into(rule)
        grown = True
        while grown:
            grown = False
            for rule in rules:
                if id(rule) not in closed and (scan_reads(rule, affected)
                                               or not into(rule).isdisjoint(affected)):
                    closed.add(id(rule))
                    affected |= into(rule)
                    grown = True

        analysis = ProgramAnalysis(tuple(rules), LOCAL_INTENSIONAL)
        predicates, affected_rules = analysis.affected_closure(
            set(seeds), seed_rules, shipped)
        assert predicates == affected
        assert affected_rules == {rule for rule in rules if id(rule) in closed}


def fresh_scan(registry, peer):
    """The relation sets, computed from the schemas themselves."""
    return (frozenset(schema.qualified_name for schema in registry
                      if schema.peer == peer and schema.is_intensional()),
            {(schema.name, schema.peer) for schema in registry
             if schema.is_intensional() and not schema.persistent},
            {(schema.name, schema.peer) for schema in registry
             if schema.is_extensional() and not schema.persistent})


def kept(registry, peer):
    return (registry.intensional_at(peer), registry.scratch_intensional,
            registry.scratch_extensional)


def assert_kept_sets_fresh(registry):
    for peer in ("alice", "bob"):
        assert kept(registry, peer) == fresh_scan(registry, peer)


DURABLE_PROGRAM = """
collection extensional persistent base@alice(x);
collection extensional scratch inbox@alice(x);
collection intensional view@alice(x);
collection intensional scratch feed@alice(x);
collection intensional mirror@bob(x);
rule view@alice($x) :- base@alice($x);
rule view@alice($x) :- inbox@alice($x);
"""


class TestKeptRelationSets:
    def test_declare_and_redeclare_keep_the_sets_fresh(self):
        registry = SchemaRegistry()
        assert_kept_sets_fresh(registry)
        steps = [
            (RelationSchema("base", "alice", ("x",)), False),
            (RelationSchema("inbox", "alice", ("x",), persistent=False), False),
            (RelationSchema("view", "alice", ("x",), kind=RelationKind.INTENSIONAL),
             False),
            (RelationSchema("feed", "alice", ("x",), kind=RelationKind.INTENSIONAL,
                            persistent=False), False),
            (RelationSchema("mirror", "bob", ("x",), kind=RelationKind.INTENSIONAL),
             False),
            # An identical re-declaration changes nothing.
            (RelationSchema("base", "alice", ("x",)), False),
            # Flip persistence both ways, and kind both ways.
            (RelationSchema("inbox", "alice", ("x",)), True),
            (RelationSchema("base", "alice", ("x",), persistent=False), True),
            (RelationSchema("view", "alice", ("x",)), True),
            (RelationSchema("base", "alice", ("x",), kind=RelationKind.INTENSIONAL,
                            persistent=False), True),
            (RelationSchema("feed", "alice", ("x",), persistent=False), True),
        ]
        for schema, replace in steps:
            registry.declare(schema, replace=replace)
            assert_kept_sets_fresh(registry)

    def test_intensional_set_is_the_same_object_until_it_changes(self):
        registry = SchemaRegistry()
        registry.declare(RelationSchema("view", "alice", ("x",),
                                        kind=RelationKind.INTENSIONAL))
        before = registry.intensional_at("alice")
        registry.declare(RelationSchema("base", "alice", ("x",)))
        registry.declare(RelationSchema("mirror", "bob", ("x",),
                                        kind=RelationKind.INTENSIONAL))
        registry.declare(RelationSchema("view", "alice", ("y",),
                                        kind=RelationKind.INTENSIONAL), replace=True)
        assert registry.intensional_at("alice") is before
        registry.declare(RelationSchema("other", "alice", ("x",),
                                        kind=RelationKind.INTENSIONAL))
        assert registry.intensional_at("alice") is not before

    def test_declare_implicit_keeps_the_sets_fresh(self):
        registry = SchemaRegistry()
        registry.declare_implicit("seen", "alice", 2)
        registry.declare_implicit("shown", "alice", 1, kind=RelationKind.INTENSIONAL)
        registry.declare_implicit("shown", "alice", 1)
        assert_kept_sets_fresh(registry)
        assert registry.intensional_at("alice") == {"shown@alice"}

    def test_durable_reopen_restores_the_sets(self, tmp_path):
        options = {"path": str(tmp_path)}
        engine = WebdamLogEngine("alice", storage="sqlite", storage_options=options)
        engine.load_program(DURABLE_PROGRAM)
        engine.insert_fact(Fact("base", "alice", (1,)))
        engine.insert_fact(Fact("inbox", "alice", (2,)))
        engine.run_stage()
        engine.run_stage()
        snapshot = engine.snapshot()
        engine.close()

        reopened = WebdamLogEngine("alice", storage="sqlite", storage_options=options)
        assert reopened.state.restored
        assert_kept_sets_fresh(reopened.state.schemas)
        assert kept(reopened.state.schemas, "alice") \
            == kept(engine.state.schemas, "alice")
        reopened.run_stage()
        assert reopened.snapshot() == snapshot
        # The scratch relation is still emptied at a stage's end.
        reopened.insert_fact(Fact("inbox", "alice", (3,)))
        reopened.run_stage()
        assert reopened.query("inbox") == ()
        reopened.close()

    def test_relation_declared_intensional_after_its_rules_ran(self):
        """A head with a variable relation derives locally only into the
        peer's intensional relations: declaring one re-fires it, and the
        negation reading it must now sit a stratum above."""
        program = """
        collection extensional persistent base@alice(x);
        collection extensional persistent src@alice(x);
        collection extensional persistent names@alice(r);
        collection intensional kept@alice(x);
        rule kept@alice($x) :- base@alice($x), not shadow@alice($x);
        rule $r@alice($x) :- names@alice($r), src@alice($x);
        """
        facts = [Fact("base", "alice", (1,)), Fact("names", "alice", ("shadow",))]
        shadow = RelationSchema("shadow", "alice", ("x",),
                                kind=RelationKind.INTENSIONAL)

        engine = WebdamLogEngine("alice", storage="memory")
        engine.load_program(program)
        engine.insert_facts(facts)
        engine.run_stage()
        assert engine.query("kept") == (Fact("kept", "alice", (1,)),)
        analysis = engine._maintenance._analysis
        engine.declare(shadow)
        engine.insert_fact(Fact("src", "alice", (1,)))
        result = engine.run_stage()
        assert result.evaluation_path == "rederive"
        assert engine._maintenance._analysis is not analysis
        assert "shadow@alice" in engine._maintenance._analysis.local_intensional
        assert engine.query("shadow") == (Fact("shadow", "alice", (1,)),)
        assert engine.query("kept") == ()

        fresh = WebdamLogEngine("alice", storage="memory")
        fresh.load_program(program)
        fresh.declare(shadow)
        fresh.insert_facts(facts + [Fact("src", "alice", (1,))])
        fresh.run_stage()
        assert engine.snapshot() == fresh.snapshot()


class TestRebuildReusesSurvivingRules:
    def test_reinstalled_equal_delegation_matches_a_fresh_engine(self):
        program = """
        collection extensional persistent base@alice(x);
        collection intensional view@alice(x);
        collection intensional both@alice(x);
        rule both@alice($x) :- view@alice($x), base@alice($x);
        """
        delegated = parse_rule("view@alice($x) :- base@alice($x)",
                               default_peer="alice", author="bob")
        facts = [Fact("base", "alice", (1,)), Fact("base", "alice", (2,))]

        engine = WebdamLogEngine("alice", storage="memory")
        engine.load_program(program)
        engine.insert_facts(facts)
        own = engine.rules()[0]
        engine.run_stage()
        first = engine._maintenance._analysis
        engine.receive_delegation("bob", "d1", delegated)
        engine.run_stage()
        assert len(engine.query("both")) == 2
        # The surviving rule keeps its shape object; the new one gets its own.
        assert engine._maintenance._analysis.shape[id(own)] is first.shape[id(own)]
        engine.receive_delegation_retraction("bob", "d1")
        engine.run_stage()
        assert engine.query("view") == engine.query("both") == ()
        equal = Rule(head=delegated.head, body=delegated.body, author=delegated.author,
                     origin=delegated.origin, rule_id=delegated.rule_id)
        assert equal == delegated and equal is not delegated
        engine.receive_delegation("bob", "d1", equal)
        engine.run_stage()
        assert engine._maintenance._analysis.shape[id(own)] is first.shape[id(own)]
        assert id(equal) in engine._maintenance._analysis.shape
        assert id(delegated) not in engine._maintenance._analysis.shape

        fresh = WebdamLogEngine("alice", storage="memory")
        fresh.load_program(program)
        fresh.insert_facts(facts)
        fresh.receive_delegation("bob", "d1", delegated)
        fresh.run_stage()
        assert engine.snapshot() == fresh.snapshot()
        assert len(engine.query("both")) == 2
