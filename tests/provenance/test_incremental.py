"""The provenance subsystem riding the engine's incremental evaluation paths.

A :class:`ProvenanceTracker` no longer pins the engine to full recomputes:
delta stages append derivations as rules fire, rederive stages retract and
re-record the affected closure, and the graph always reflects the current
derivability state (garbage-collecting derivations of retracted facts).
"""

from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.provenance.graph import Derivation, ProvenanceTracker

from tests.reference_engine import reference_engine

TC_PROGRAM = """
collection extensional persistent link@p(src, dst);
collection intensional tc@p(src, dst);
rule tc@p($x, $y) :- link@p($x, $y);
rule tc@p($x, $z) :- link@p($x, $y), tc@p($y, $z);
"""


def tracked_engine(program: str = TC_PROGRAM) -> WebdamLogEngine:
    engine = WebdamLogEngine("p")
    engine.provenance = ProvenanceTracker()
    engine.load_program(program)
    return engine


class TestDeltaStages:
    def test_insertions_recorded_on_the_delta_path(self):
        engine = tracked_engine()
        engine.run_to_quiescence()
        engine.insert_fact(Fact("link", "p", (1, 2)))
        result = engine.run_stage()
        assert result.evaluation_path == "delta"
        assert engine.provenance.why(Fact("tc", "p", (1, 2)))

    def test_transitive_derivations_recorded_across_delta_stages(self):
        engine = tracked_engine()
        for edge in ((1, 2), (2, 3)):
            engine.insert_fact(Fact("link", "p", edge))
            engine.run_to_quiescence()
        tc13 = Fact("tc", "p", (1, 3))
        assert engine.provenance.graph.is_derived(tc13)
        assert engine.provenance.base_relations(tc13) == frozenset({"link@p"})
        lineage = engine.provenance.lineage(tc13)
        assert Fact("link", "p", (1, 2)) in lineage
        assert Fact("link", "p", (2, 3)) in lineage

    def test_metrics_show_incremental_paths(self):
        engine = tracked_engine()
        engine.run_to_quiescence()
        for i in range(4):
            engine.insert_fact(Fact("link", "p", (i, i + 1)))
            engine.run_to_quiescence()
        engine.delete_fact(Fact("link", "p", (0, 1)))
        engine.run_to_quiescence()
        counters = engine.metrics
        assert counters["core", "stages_delta"] >= 4
        assert counters["core", "stages_rederive"] >= 1
        assert counters["core", "stages_full"] == 1  # only the program load


class TestRetraction:
    def test_deleted_base_fact_kills_its_derivations(self):
        engine = tracked_engine()
        for edge in ((1, 2), (2, 3), (3, 4)):
            engine.insert_fact(Fact("link", "p", edge))
        engine.run_to_quiescence()
        graph = engine.provenance.graph
        assert graph.is_derived(Fact("tc", "p", (1, 4)))
        engine.delete_fact(Fact("link", "p", (2, 3)))
        engine.run_to_quiescence()
        assert not graph.is_derived(Fact("tc", "p", (1, 4)))
        assert not graph.is_derived(Fact("tc", "p", (2, 3)))
        assert graph.is_derived(Fact("tc", "p", (1, 2)))
        assert graph.is_derived(Fact("tc", "p", (3, 4)))

    def test_graph_does_not_leak_under_churn(self):
        """Retracted facts drop their derivations instead of accumulating."""
        engine = tracked_engine()
        engine.insert_fact(Fact("link", "p", (0, 1)))
        engine.run_to_quiescence()
        baseline = len(engine.provenance.graph)
        for _ in range(10):
            engine.insert_fact(Fact("link", "p", (1, 2)))
            engine.run_to_quiescence()
            engine.delete_fact(Fact("link", "p", (1, 2)))
            engine.run_to_quiescence()
        assert len(engine.provenance.graph) == baseline
        assert set(engine.provenance.graph.facts()) == {Fact("tc", "p", (0, 1))}

    def test_graph_matches_derived_store_after_churn(self):
        engine = tracked_engine()
        operations = [("+", (0, 1)), ("+", (1, 2)), ("+", (2, 0)),
                      ("-", (1, 2)), ("+", (1, 0)), ("-", (0, 1))]
        for op, edge in operations:
            if op == "+":
                engine.insert_fact(Fact("link", "p", edge))
            else:
                engine.delete_fact(Fact("link", "p", edge))
            engine.run_to_quiescence(max_stages=30)
        derived = set(engine.query("tc"))
        tracked = set(engine.provenance.graph.facts())
        assert tracked == derived


FEED_PROGRAM = """
collection extensional persistent base@p(x);
collection extensional persistent seen@p(x);
collection intensional feed@p(x);
collection intensional shown@p(x);
rule feed@p($x) :- base@p($x);
rule shown@p($x) :- feed@p($x);
rule seen@p($x) :- base@p($x);
"""


def supports(engine: WebdamLogEngine):
    """Every fact's recorded supports."""
    graph = engine.provenance.graph
    return {fact: frozenset(graph.why(fact)) for fact in graph.facts()}


class TestExactRemovalOnTheTuplePath:
    """A fact deletion rederives tuples: the graph is neither cleared nor
    re-recorded, so what it drops must be exact.  ``feed@p`` is derived from
    ``base@p`` *and* provided by a remote sender; the reference engine,
    which re-records everything at every stage, is the reference."""

    def pair(self):
        engines = []
        for engine in (WebdamLogEngine("p"), reference_engine("p")):
            engine.provenance = ProvenanceTracker()
            engine.load_program(FEED_PROGRAM)
            engine.insert_fact(Fact("base", "p", (1,)))
            engine.receive_facts("q", inserted=[Fact("feed", "p", (1,))])
            engine.run_to_quiescence()
            engines.append(engine)
        incremental, naive = engines
        # From here on nothing may be repaired by a predicate-level re-record.
        incremental.provenance.on_rederive = None
        incremental.provenance.on_full_recompute = None
        return incremental, naive

    def step(self, engines, act):
        for engine in engines:
            act(engine)
        results = [engine.run_stage() for engine in engines]
        assert supports(engines[0]) == supports(engines[1])
        assert engines[0].snapshot() == engines[1].snapshot()
        return results[0]

    def test_a_fact_withdrawn_by_one_source_keeps_what_the_other_supports(self):
        """Trap (c): ``feed(1)`` leaves the provided set but a rule still
        derives it — its derivation and the one it supports stand."""
        engines = self.pair()
        feed, shown = Fact("feed", "p", (1,)), Fact("shown", "p", (1,))
        result = self.step(engines, lambda e: e.receive_facts("q", deleted=[feed]))
        assert result.evaluation_path == "rederive"
        assert supports(engines[0])[feed] == {frozenset({Fact("base", "p", (1,))})}
        assert supports(engines[0])[shown] == {frozenset({feed})}

    def test_a_fact_left_without_derivations_still_supports_while_provided(self):
        """Trap (d): ``feed(1)`` loses its only recorded derivation but a
        sender still provides it — no count cascade through it."""
        engines = self.pair()
        feed, shown = Fact("feed", "p", (1,)), Fact("shown", "p", (1,))
        result = self.step(engines, lambda e: e.delete_fact(Fact("base", "p", (1,))))
        assert result.evaluation_path == "rederive"
        assert feed not in supports(engines[0])
        assert supports(engines[0])[shown] == {frozenset({feed})}
        # ... and when the sender withdraws it too, everything goes.
        self.step(engines, lambda e: e.receive_facts("q", deleted=[feed]))
        assert supports(engines[0]) == {}

    def test_a_deleted_extensional_fact_keeps_the_derivation_that_brings_it_back(self):
        """Trap (c): ``seen(1)`` is deleted under the rule that derives it; it
        is deferred again without the rule re-firing, so its derivation must
        not die with the deletion."""
        engines = self.pair()
        seen = Fact("seen", "p", (1,))
        assert seen in engines[0].state.store.all_facts()
        result = self.step(engines, lambda e: e.delete_fact(seen))
        assert result.evaluation_path == "rederive"
        assert supports(engines[0])[seen] == {frozenset({Fact("base", "p", (1,))})}
        self.step(engines, lambda e: None)
        assert seen in engines[0].state.store.all_facts()

    def test_shipped_derivations_of_a_withdrawn_fact_go_the_local_ones_stay(self):
        """``_sync_remote`` still reconciles what remote peers shipped."""
        engines = self.pair()
        feed = Fact("feed", "p", (1,))
        shipped = Derivation(fact=feed, rule_id="rule-q", author="q",
                             support=(Fact("post", "q", (1,)),))
        for engine in engines:
            engine.provenance.record_remote(shipped)
        assert len(supports(engines[0])[feed]) == 2
        self.step(engines, lambda e: e.receive_facts("q", deleted=[feed]))
        assert supports(engines[0])[feed] == {frozenset({Fact("base", "p", (1,))})}
        # A later full recompute must not resurrect it from the memory.
        ProvenanceTracker.on_full_recompute(engines[0].provenance)
        assert frozenset(shipped.support) not in engines[0].provenance.why(feed)


class TestCrossPeerShipping:
    def build(self):
        return (system()
                .provenance()
                .peer("hub").program("""
                    collection extensional persistent follows@hub(who);
                    collection intensional wall@hub(id);
                    rule wall@hub($id) :- follows@hub($f), posts@$f($id);
                """)
                .peer("left").program(
                    "collection extensional persistent posts@left(id);")
                .build())

    def test_lineage_crosses_peer_boundaries(self):
        deployment = self.build()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(7)")
        deployment.converge()
        explanation = deployment.explain("hub", "wall@hub(7)")
        assert explanation.derived
        assert explanation.base_relations == frozenset({"posts@left"})
        assert explanation.peers == frozenset({"hub", "left"})

    def test_remote_retraction_drops_shipped_derivations(self):
        deployment = self.build()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(7)")
        deployment.converge()
        deployment.peer("left").delete("posts@left(7)")
        deployment.converge()
        assert deployment.peer("hub").query("wall").facts() == ()
        assert not deployment.explain("hub", "wall@hub(7)").derived

    def test_explain_requires_provenance(self):
        deployment = (system().peer("solo").build())
        try:
            deployment.explain("solo", "anything@solo(1)")
        except RuntimeError as exc:
            assert "provenance" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("explain without provenance should raise")

    def test_each_derivation_ships_once(self):
        """Updates carry only new derivations, not the whole closure again."""
        deployment = self.build()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(0)")
        deployment.converge()
        hub_graph = deployment.runtime.peer("hub").provenance.graph
        first = len(hub_graph)
        shipped = deployment.stats.payload_items
        for i in range(1, 6):
            deployment.peer("left").insert(f"posts@left({i})")
            deployment.converge()
        # One wall fact + one shipped derivation per insert: payload growth
        # is linear in the new facts, not in the accumulated closure.
        growth = deployment.stats.payload_items - shipped
        assert len(hub_graph) == first + 5
        assert growth <= 5 * 3  # per insert: post ack + wall fact + derivation

    def test_alternative_derivations_reach_the_receiver(self):
        """A new way to derive an already-shipped fact ships on its own."""
        deployment = (system()
                      .provenance()
                      .peer("alice").program("""
                          collection extensional persistent s1@alice(x);
                          collection extensional persistent s2@alice(x);
                          rule wall@bob($x) :- s1@alice($x);
                          rule wall@bob($x) :- s2@alice($x);
                      """)
                      .peer("bob").program(
                          "collection intensional wall@bob(x);")
                      .build())
        deployment.peer("alice").insert("s1@alice(1)")
        deployment.converge()
        assert len(deployment.explain("bob", "wall@bob(1)").why) == 1
        # wall@bob(1) is unchanged at alice, but the new derivation must
        # still reach bob — his ACL decisions depend on the full base set.
        deployment.peer("alice").insert("s2@alice(1)")
        deployment.converge()
        explanation = deployment.explain("bob", "wall@bob(1)")
        assert len(explanation.why) == 2
        assert explanation.base_relations == frozenset({"s1@alice", "s2@alice"})
        alice_view = deployment.explain("alice", "wall@bob(1)")
        assert set(explanation.why) == set(alice_view.why)

    def test_reshipped_after_retraction(self):
        """A deletion resets the memo so re-insertions re-ship their lineage."""
        deployment = self.build()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(1)")
        deployment.converge()
        deployment.peer("left").delete("posts@left(1)")
        deployment.converge()
        assert not deployment.explain("hub", "wall@hub(1)").derived
        deployment.peer("left").insert("posts@left(1)")
        deployment.converge()
        explanation = deployment.explain("hub", "wall@hub(1)")
        assert explanation.derived
        assert explanation.base_relations == frozenset({"posts@left"})

    def test_peer_handle_explain(self):
        deployment = self.build()
        deployment.peer("hub").insert('follows@hub("left")')
        deployment.peer("left").insert("posts@left(3)")
        deployment.converge()
        explanation = deployment.peer("hub").explain("wall@hub(3)")
        assert explanation.derived
