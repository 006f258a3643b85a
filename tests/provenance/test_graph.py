"""Tests of provenance recording, queries and incremental maintenance."""

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact
from repro.provenance.graph import Derivation, ProvenanceGraph, ProvenanceTracker


def base(relation, peer, *values):
    return Fact(relation, peer, values)


class TestProvenanceGraph:
    def setup_method(self):
        self.graph = ProvenanceGraph()
        self.b1 = base("edge", "p", 1, 2)
        self.b2 = base("edge", "p", 2, 3)
        self.p12 = base("path", "p", 1, 2)
        self.p23 = base("path", "p", 2, 3)
        self.p13 = base("path", "p", 1, 3)
        self.graph.add(Derivation(self.p12, "r1", (self.b1,)))
        self.graph.add(Derivation(self.p23, "r1", (self.b2,)))
        self.graph.add(Derivation(self.p13, "r2", (self.p12, self.b2)))

    def test_derivations_of(self):
        assert len(self.graph.derivations_of(self.p13)) == 1
        assert self.graph.is_derived(self.p12)
        assert not self.graph.is_derived(self.b1)

    def test_duplicate_derivations_ignored(self):
        before = len(self.graph)
        self.graph.add(Derivation(self.p12, "r1", (self.b1,)))
        assert len(self.graph) == before

    def test_alternative_derivations_kept(self):
        self.graph.add(Derivation(self.p13, "r9", (self.b1, self.b2)))
        assert len(self.graph.why(self.p13)) == 2

    def test_why_provenance(self):
        why = self.graph.why(self.p13)
        assert frozenset({self.p12, self.b2}) in why

    def test_lineage_is_transitive(self):
        lineage = self.graph.lineage(self.p13)
        assert self.b1 in lineage
        assert self.b2 in lineage
        assert self.p12 in lineage
        assert self.p13 not in lineage

    def test_base_facts_and_relations(self):
        assert self.graph.base_facts(self.p13) == frozenset({self.b1, self.b2})
        assert self.graph.base_relations(self.p13) == frozenset({"edge@p"})
        # A non-derived fact is its own base.
        assert self.graph.base_facts(self.b1) == frozenset({self.b1})

    def test_depends_on_peer(self):
        assert self.graph.depends_on_peer(self.p13, "p")
        assert not self.graph.depends_on_peer(self.p13, "q")

    def test_clear(self):
        self.graph.clear()
        assert len(self.graph) == 0
        assert self.graph.facts() == ()

    def test_version_bumps_on_mutation(self):
        before = self.graph.version
        self.graph.add(Derivation(self.p13, "r9", (self.b1, self.b2)))
        assert self.graph.version > before
        duplicate = self.graph.version
        self.graph.add(Derivation(self.p13, "r9", (self.b1, self.b2)))
        assert self.graph.version == duplicate  # duplicates do not mutate


class TestSupportCounting:
    """A derivation dies with any support; a fact dies with its last derivation."""

    def setup_method(self):
        self.graph = ProvenanceGraph()
        self.b1 = Fact("edge", "p", (1, 2))
        self.b2 = Fact("edge", "p", (2, 3))
        self.p12 = Fact("path", "p", (1, 2))
        self.p23 = Fact("path", "p", (2, 3))
        self.p13 = Fact("path", "p", (1, 3))
        self.graph.add(Derivation(self.p12, "r1", (self.b1,)))
        self.graph.add(Derivation(self.p23, "r1", (self.b2,)))
        self.graph.add(Derivation(self.p13, "r2", (self.p12, self.b2)))

    def test_remove_support_cascades(self):
        removed = self.graph.remove_support(self.b1)
        # p12 lost its only derivation and died; p13 lost its derivation too.
        assert removed == 2
        assert not self.graph.is_derived(self.p12)
        assert not self.graph.is_derived(self.p13)
        assert self.graph.is_derived(self.p23)
        assert len(self.graph) == 1

    def test_alternative_derivation_keeps_fact_alive(self):
        self.graph.add(Derivation(self.p13, "r9", (self.b2,)))
        self.graph.remove_support(self.b1)
        # p13 had an alternative derivation not using b1: it survives.
        assert self.graph.is_derived(self.p13)
        assert self.graph.why(self.p13) == (frozenset({self.b2}),)

    def test_retract_fact_drops_own_and_supported_derivations(self):
        self.graph.retract_fact(self.p12)
        assert not self.graph.is_derived(self.p12)
        assert not self.graph.is_derived(self.p13)
        assert self.graph.derivation_count(self.p23) == 1

    def test_retract_predicates_scoped_clear(self):
        removed = self.graph.retract_predicates({"path@p"})
        assert removed == 3
        assert len(self.graph) == 0
        # Base facts were never in the graph; nothing to invalidate.
        assert self.graph.base_facts(self.b1) == frozenset({self.b1})

    def test_lineage_index_invalidated_on_mutation(self):
        assert self.graph.base_relations(self.p13) == frozenset({"edge@p"})
        other = Fact("extra", "p", (9,))
        self.graph.add(Derivation(self.p12, "r7", (other,)))
        # The new alternative derivation of p12 must show up in p13's bases.
        assert self.graph.base_relations(self.p13) == frozenset({"edge@p", "extra@p"})
        self.graph.remove_support(other)
        assert self.graph.base_relations(self.p13) == frozenset({"edge@p"})

    def test_lineage_index_handles_cycles(self):
        a = Fact("tc", "p", (1, 1))
        b = Fact("tc", "p", (2, 2))
        base = Fact("edge", "q", (1, 1))
        self.graph.add(Derivation(a, "c1", (b,)))
        self.graph.add(Derivation(b, "c2", (a, base)))
        assert self.graph.base_relations(a) == frozenset({"edge@q"})
        assert self.graph.depends_on_peer(a, "q")
        assert not self.graph.depends_on_peer(a, "r")


    def test_lineage_walk_stops_at_indexed_ancestors(self):
        """A miss unions in the entry of a supporting fact instead of walking
        below it — on a cycle too, where the entry was itself computed
        through the fact now being asked about."""
        a = Fact("tc", "p", (1, 1))
        b = Fact("tc", "p", (2, 2))
        c = Fact("tc", "p", (3, 3))
        self.graph.add(Derivation(a, "c1", (b, Fact("edge", "q", (1, 1)))))
        self.graph.add(Derivation(b, "c2", (a, Fact("edge", "r", (2, 2)))))
        self.graph.add(Derivation(c, "c3", (b, Fact("edge", "s", (3, 3)))))
        assert self.graph.base_relations(b) == frozenset({"edge@q", "edge@r"})
        descended = []
        derivations = self.graph._derivations

        class Spy(dict):
            def __getitem__(self, fact):
                descended.append(fact)
                return dict.__getitem__(self, fact)

        self.graph._derivations = Spy(derivations)
        assert self.graph.base_relations(c) == frozenset(
            {"edge@q", "edge@r", "edge@s"})
        assert descended == [c]                      # b's entry was reused
        assert self.graph.base_relations(a) == frozenset({"edge@q", "edge@r"})
        self.graph._derivations = derivations
        # Retracting below b drops every entry that was built on it.
        self.graph.retract_fact(Fact("edge", "r", (2, 2)))
        for fact in (a, b, c):
            assert self.graph.base_relations(fact) == frozenset(
                base.qualified_relation for base in self.graph.base_facts(fact))


class TestTrackerEngineIntegration:
    PROGRAM = """
    collection extensional persistent selected@alice(name);
    collection extensional persistent pictures@alice(id, owner);
    collection intensional view@alice(id, owner);
    fact selected@alice("bob");
    fact pictures@alice(1, "bob");
    fact pictures@alice(2, "carol");
    rule view@alice($id, $o) :- selected@alice($o), pictures@alice($id, $o);
    """

    def test_engine_records_derivations(self):
        engine = WebdamLogEngine("alice")
        tracker = ProvenanceTracker()
        engine.provenance = tracker
        engine.load_program(self.PROGRAM)
        engine.run_stage()
        derived = Fact("view", "alice", (1, "bob"))
        assert tracker.graph.is_derived(derived)
        assert tracker.base_relations(derived) == frozenset({
            "selected@alice", "pictures@alice"
        })
        supports = tracker.why(derived)
        assert frozenset({Fact("selected", "alice", ("bob",)),
                          Fact("pictures", "alice", (1, "bob"))}) in supports

    def test_cascade_killed_remote_derivations_are_not_resurrected(self):
        """A shipped derivation whose shipped support died stays dead."""
        tracker = ProvenanceTracker()
        f1 = Fact("a", "q", (1,))
        f2 = Fact("b", "q", (2,))
        tracker.record_remote(Derivation(f1, "r1", ()))
        tracker.record_remote(Derivation(f2, "r2", (f1,)))
        tracker.on_base_deleted([f1])
        assert not tracker.graph.is_derived(f2)
        tracker.on_full_recompute()
        assert not tracker.graph.is_derived(f2)
        assert not tracker.graph.is_derived(f1)

    def test_orphaned_shipped_lineage_is_garbage_collected(self):
        """Intermediate lineage dies with the anchor that shipped it."""
        tracker = ProvenanceTracker()
        wall = Fact("wall", "bob", (1,))
        album = Fact("album", "alice", (1,))
        photo = Fact("photos", "alice", (1,))
        tracker.record_remote(Derivation(wall, "r1", (album,)), anchor=True)
        tracker.record_remote(Derivation(album, "r2", (photo,)), anchor=False)
        assert tracker.graph.base_relations(wall) == frozenset({"photos@alice"})
        tracker.on_base_deleted([wall])
        assert not tracker.graph.is_derived(album)
        assert len(tracker.graph) == 0
        tracker.on_full_recompute()
        assert len(tracker.graph) == 0

    def test_shared_shipped_lineage_survives_partial_retraction(self):
        """Lineage reachable from another live anchor is kept."""
        tracker = ProvenanceTracker()
        wall1 = Fact("wall", "bob", (1,))
        wall2 = Fact("wall", "bob", (2,))
        album = Fact("album", "alice", (1,))
        photo = Fact("photos", "alice", (1,))
        tracker.record_remote(Derivation(wall1, "r1", (album,)), anchor=True)
        tracker.record_remote(Derivation(wall2, "r2", (album,)), anchor=True)
        tracker.record_remote(Derivation(album, "r3", (photo,)), anchor=False)
        tracker.on_base_deleted([wall1])
        assert tracker.graph.is_derived(album)
        assert tracker.graph.is_derived(wall2)
        tracker.on_full_recompute()
        assert tracker.graph.is_derived(wall2)
        assert tracker.graph.base_relations(wall2) == frozenset({"photos@alice"})

    def test_retraction_maintains_cumulative_graph(self):
        """The cumulative graph now tracks derivability without full stages."""
        engine = WebdamLogEngine("alice")
        tracker = ProvenanceTracker()
        engine.provenance = tracker
        engine.load_program(self.PROGRAM)
        engine.run_to_quiescence()
        derived = Fact("view", "alice", (1, "bob"))
        assert tracker.graph.is_derived(derived)
        engine.delete_fact('selected@alice("bob")')
        engine.run_to_quiescence()
        assert not tracker.graph.is_derived(derived)
        assert engine.query("view") == ()

    def test_cumulative_mode_keeps_history(self):
        engine = WebdamLogEngine("alice")
        tracker = ProvenanceTracker()
        engine.provenance = tracker
        engine.load_program(self.PROGRAM)
        engine.run_stage()
        engine.run_stage()
        derived = Fact("view", "alice", (1, "bob"))
        assert tracker.graph.is_derived(derived)
