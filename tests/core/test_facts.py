"""Tests of facts, deltas and the fact store."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.errors import SchemaError
from repro.core import facts as facts_module
from repro.core.facts import ChangeFeeds, Delta, Fact, FactStore, fact_matches_bindings
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry

from tests.reference_engine import watch


class TestFact:
    def test_basic_properties(self):
        fact = Fact("pictures", "sigmod", (32, "sea.jpg", "Emilien"))
        assert fact.arity == 3
        assert fact.qualified_relation == "pictures@sigmod"
        assert fact.relation_name.peer == "sigmod"

    def test_of_constructor(self):
        fact = Fact.of("friends@alice", "bob")
        assert fact.relation == "friends"
        assert fact.peer == "alice"
        assert fact.values == ("bob",)


    def test_values_coerced_to_tuple(self):
        fact = Fact("r", "p", [1, 2])
        assert fact.values == (1, 2)
        assert hash(fact)  # hashable after coercion

    def test_str_rendering(self):
        fact = Fact("pictures", "sigmod", (32, "sea.jpg"))
        assert str(fact) == 'pictures@sigmod(32, "sea.jpg")'

    def test_requires_relation_and_peer(self):
        with pytest.raises(SchemaError):
            Fact("", "p", ())
        with pytest.raises(SchemaError):
            Fact("r", "", ())

    def test_equality_and_hashing(self):
        assert Fact("r", "p", (1,)) == Fact("r", "p", (1,))
        assert Fact("r", "p", (1,)) != Fact("r", "q", (1,))
        assert len({Fact("r", "p", (1,)), Fact("r", "p", (1,))}) == 1

    def test_payload_types_stay_distinct_facts(self):
        facts = [Fact("r", "p", (1,)), Fact("r", "p", (True,)), Fact("r", "p", (1.0,))]
        assert len(set(facts)) == 3
        assert all(a != b for a in facts for b in facts if a is not b)

    def test_a_set_of_facts_iterates_in_the_same_order_in_every_process(self):
        script = ("from repro.core.facts import Fact\n"
                  "print([f.values for f in {Fact('r', 'p', (i, str(i), i % 2 == 0))"
                  " for i in range(50)}])")
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH")))))
        first, second = (subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                        capture_output=True, text=True).stdout
                         for _ in range(2))
        assert first == second

    def test_immutable_slotted_and_picklable(self):
        fact = Fact("r", "p", (1, "x", True))
        with pytest.raises(AttributeError):
            fact.relation = "other"
        with pytest.raises(AttributeError):
            fact.extra = 1
        with pytest.raises(AttributeError):
            del fact.values
        assert not hasattr(fact, "__dict__")
        rendered = str(fact)
        assert str(fact) is rendered  # rendered once
        for clone in (pickle.loads(pickle.dumps(fact)), copy.deepcopy(fact)):
            assert clone == fact and hash(clone) == hash(fact)
            assert str(clone) == rendered
        assert repr(fact) == "Fact(relation='r', peer='p', values=(1, 'x', True))"


class TestDelta:
    def test_empty_delta_is_falsy(self):
        assert not Delta.empty()
        assert len(Delta.empty()) == 0

    def test_insertion_and_deletion_constructors(self):
        fact = Fact("r", "p", (1,))
        assert Delta.insertion([fact]).inserted == frozenset({fact})
        assert Delta.deletion([fact]).deleted == frozenset({fact})

    def test_merge_cancels_opposites(self):
        fact = Fact("r", "p", (1,))
        insert = Delta.insertion([fact])
        delete = Delta.deletion([fact])
        merged = insert.merge(delete)
        assert not merged.inserted
        assert fact in merged.deleted
        # And in the other direction a delete followed by an insert keeps the insert.
        merged2 = delete.merge(insert)
        assert fact in merged2.inserted
        assert not merged2.deleted

    def test_the_empty_delta_is_one_shared_instance(self):
        assert Delta.empty() is Delta.empty()
        assert Delta.insertion(()) is Delta.empty() is Delta.deletion(())

    def test_an_empty_peek_or_take_returns_the_shared_empty_delta(self):
        store = FactStore()
        assert store.peek_delta() is Delta.empty()
        assert store.take_delta() is Delta.empty()
        fact = Fact("r", "p", (1,))
        store.insert(fact)
        assert store.peek_delta().inserted == frozenset({fact})
        assert store.take_delta().inserted == frozenset({fact})
        assert store.peek_delta() is Delta.empty() is store.take_delta()
        # Changes that net out leave nothing pending either.
        store.insert(Fact("r", "p", (2,)))
        store.delete(Fact("r", "p", (2,)))
        assert store.take_delta() is Delta.empty()

    def test_merge_accumulates_distinct_facts(self):
        a, b = Fact("r", "p", (1,)), Fact("r", "p", (2,))
        merged = Delta.insertion([a]).merge(Delta.insertion([b]))
        assert merged.inserted == frozenset({a, b})
        assert len(merged) == 2


class TestFactStore:
    def test_insert_and_contains(self):
        store = FactStore()
        fact = Fact("pictures", "alice", (1, "sea.jpg"))
        delta = store.insert(fact)
        assert store.contains(fact)
        assert fact in delta.inserted
        assert store.count("pictures", "alice") == 1

    def test_duplicate_insert_produces_empty_delta(self):
        store = FactStore()
        fact = Fact("r", "p", (1,))
        store.insert(fact)
        assert not store.insert(fact)
        assert store.count("r", "p") == 1

    def test_delete(self):
        store = FactStore()
        fact = Fact("r", "p", (1,))
        store.insert(fact)
        delta = store.delete(fact)
        assert fact in delta.deleted
        assert not store.contains(fact)
        assert not store.delete(fact)

    def test_arity_mismatch_rejected(self):
        registry = SchemaRegistry([RelationSchema("r", "p", ("a", "b"))])
        store = FactStore(registry)
        with pytest.raises(SchemaError):
            store.insert(Fact("r", "p", (1,)))

    def test_primary_key_replacement(self):
        registry = SchemaRegistry([RelationSchema("profile", "p", ("user", "bio"),
                                                  key=("user",))])
        store = FactStore(registry)
        store.insert(Fact("profile", "p", ("alice", "v1")))
        delta = store.insert(Fact("profile", "p", ("alice", "v2")))
        assert store.count("profile", "p") == 1
        assert Fact("profile", "p", ("alice", "v1")) in delta.deleted
        assert Fact("profile", "p", ("alice", "v2")) in delta.inserted

    def test_bound_scan_uses_bindings(self):
        store = FactStore()
        for index in range(10):
            store.insert(Fact("r", "p", (index, index % 2)))
        even = list(store.facts("r", "p", bindings={1: 0}))
        assert len(even) == 5
        assert all(f.values[1] == 0 for f in even)

    def test_bound_scan_type_sensitive(self):
        store = FactStore()
        store.insert(Fact("r", "p", (1,)))
        store.insert(Fact("r", "p", (True,)))
        ones = list(store.facts("r", "p", bindings={0: 1}))
        assert len(ones) == 1
        assert ones[0].values == (1,)

    def test_pending_delta_tracking(self):
        store = FactStore()
        a, b = Fact("r", "p", (1,)), Fact("r", "p", (2,))
        store.insert(a)
        store.insert(b)
        store.delete(a)
        delta = store.take_delta()
        assert delta.inserted == frozenset({b})
        assert not delta.deleted  # a was inserted then deleted within the window
        assert not store.take_delta()

    def test_peek_delta_does_not_reset(self):
        store = FactStore()
        store.insert(Fact("r", "p", (1,)))
        assert store.peek_delta()
        assert store.peek_delta()
        assert store.take_delta()
        assert not store.peek_delta()

    def test_apply_delta(self):
        store = FactStore()
        a, b = Fact("r", "p", (1,)), Fact("r", "p", (2,))
        store.insert(a)
        effective = store.apply(Delta(inserted=frozenset({b}), deleted=frozenset({a})))
        assert store.contains(b) and not store.contains(a)
        assert b in effective.inserted and a in effective.deleted

    def test_clear_relation(self):
        store = FactStore()
        store.insert(Fact("r", "p", (1,)))
        store.insert(Fact("r", "p", (2,)))
        store.insert(Fact("s", "p", (1,)))
        delta = store.clear_relation("r", "p")
        assert len(delta.deleted) == 2
        assert store.count("r", "p") == 0
        assert store.count("s", "p") == 1

    def test_clear_nonpersistent_only_touches_scratch_relations(self):
        registry = SchemaRegistry([
            RelationSchema("scratch", "p", ("a",), persistent=False),
            RelationSchema("durable", "p", ("a",)),
        ])
        store = FactStore(registry)
        store.insert(Fact("scratch", "p", (1,)))
        store.insert(Fact("durable", "p", (1,)))
        store.clear_nonpersistent()
        assert store.count("scratch", "p") == 0
        assert store.count("durable", "p") == 1

    def test_snapshot(self):
        store = FactStore()
        store.insert(Fact("r", "p", (1,)))
        assert store.total_facts() == 1
        assert store.snapshot() == frozenset({Fact("r", "p", (1,))})

    def test_insert_many_and_delete_many(self):
        store = FactStore()
        facts = [Fact("r", "p", (i,)) for i in range(5)]
        delta = store.insert_many(facts)
        assert len(delta.inserted) == 5
        delta = store.delete_many(facts[:2])
        assert len(delta.deleted) == 2
        assert store.total_facts() == 3

    def test_apply_nets_a_fact_both_deleted_and_inserted(self):
        """Deletions go first: a fact in both halves of one batch ends up
        stored, and the effective delta is what folding one
        :meth:`Delta.merge` per step gives."""
        present, absent, gone = (Fact("r", "p", (1,)), Fact("r", "p", (2,)),
                                 Fact("r", "p", (3,)))
        store = FactStore()
        store.insert_many([present, gone])
        store.take_delta()
        batch = Delta(inserted=frozenset({present, absent}),
                      deleted=frozenset({present, absent, gone}))
        effective = store.apply(batch)
        expected = Delta.empty()
        for step in ([Delta.deletion([present]), Delta.deletion([gone])]
                     + [Delta.insertion([present]), Delta.insertion([absent])]):
            expected = expected.merge(step)
        assert effective == expected
        assert effective == Delta(inserted=frozenset({present, absent}),
                                  deleted=frozenset({gone}))
        assert store.snapshot() == frozenset({present, absent})
        # The pending delta nets the same way: ``present`` never changed.
        assert store.take_delta() == Delta(inserted=frozenset({absent}),
                                           deleted=frozenset({gone}))

    def test_apply_on_a_keyed_relation_reports_the_displaced_fact(self):
        registry = SchemaRegistry([RelationSchema("profile", "p", ("user", "bio"),
                                                  key=("user",))])
        store = FactStore(registry)
        old, new = Fact("profile", "p", ("al", "v1")), Fact("profile", "p", ("al", "v2"))
        store.insert(old)
        effective = store.apply(Delta.insertion([new]))
        assert effective == Delta(inserted=frozenset({new}), deleted=frozenset({old}))

    def test_delete_many_reports_only_what_was_there(self):
        store = FactStore()
        facts = [Fact("r", "p", (i,)) for i in range(3)]
        store.insert_many(facts[:2])
        delta = store.delete_many(facts + [facts[0]])
        assert delta == Delta.deletion(facts[:2])
        assert store.total_facts() == 0

    def test_replace_relation_records_only_the_difference(self):
        feeds = ChangeFeeds()
        feed = feeds.watch("r", "p")
        store = FactStore(feeds=feeds)
        kept, leaving, arriving = (Fact("r", "p", (1,)), Fact("r", "p", (True,)),
                                   Fact("r", "p", (1.0,)))
        store.insert_many([kept, leaving, Fact("s", "p", (1,))])
        store.take_delta()
        feed.drain(0)
        delta = store.replace_relation("r", "p", [Fact("r", "p", (1,)), arriving,
                                                   Fact("r", "p", (1,))])
        assert delta == Delta(inserted=frozenset({arriving}), deleted=frozenset({leaving}))
        assert [type(fact.values[0]) for fact in delta.deleted] == [bool]
        assert store.take_delta() == delta
        assert store.relation_snapshot("r", "p") == frozenset({kept, arriving})
        # The stored fact equal to an arriving one stayed; the arrival is stored.
        assert {id(fact) for fact in store.facts("r", "p")} == {id(kept), id(arriving)}
        assert store.count("s", "p") == 1
        assert feed == {arriving, leaving}
        # Same facts again: nothing written, nothing recorded.
        feed.drain(0)
        assert not store.replace_relation("r", "p", [Fact("r", "p", (1.0,)),
                                                     Fact("r", "p", (1,))])
        assert not feed
        assert not store.peek_delta()
        assert store.replace_relation("r", "p", []) == Delta.deletion([kept, arriving])
        assert not store.replace_relation("absent", "p", [])
        assert store.replace_relation("new", "p", [Fact("new", "p", (1,))]) == \
            Delta.insertion([Fact("new", "p", (1,))])

    def test_replace_relation_refuses_a_keyed_relation(self):
        registry = SchemaRegistry([RelationSchema("profile", "p", ("user", "bio"),
                                                  key=("user",))])
        store = FactStore(registry)
        with pytest.raises(SchemaError):
            store.replace_relation("profile", "p", [Fact("profile", "p", ("al", "v1"))])

    def test_feeds_note_recorded_changes_per_relation(self):
        feeds = ChangeFeeds()
        feed = feeds.watch("r", "p")
        store = FactStore(feeds=feeds)
        one = Fact("r", "p", (1,))
        store.insert(one)
        assert feed == {one}
        feed.drain(0)
        store.insert(Fact("r", "p", (1,)))             # already there: no change
        store.delete(Fact("r", "p", (9,)))             # never there: no change
        store.insert(Fact("other", "p", (1,)))         # another relation
        assert not feed
        store.insert_many([Fact("r", "p", (2,)), Fact("r", "p", (3,))])
        store.delete(Fact("r", "p", (2,)))
        assert feed == {Fact("r", "p", (2,)), Fact("r", "p", (3,))}
        feed.drain(0)
        store.clear_relation("r", "p")
        assert feed == {one, Fact("r", "p", (3,))}

    def test_a_feed_holds_no_more_than_its_reader_keeps(self, monkeypatch):
        """Past its bound a feed notes ``None``: its reader reads the
        relation again rather than patch more than it keeps."""
        monkeypatch.setattr(facts_module, "FEED_FLOOR", 2)
        feeds = ChangeFeeds()
        feed = feeds.watch("r", "p")
        store = FactStore(feeds=feeds)
        store.insert_many([Fact("r", "p", (value,)) for value in range(5)])
        assert len(feed) == 3 and None in feed
        feed.drain(4)
        assert feed.bound == 4 and not feed
        store.insert_many([Fact("r", "p", (value,)) for value in range(5, 9)])
        assert None not in feed
        store.insert(Fact("r", "p", (9,)))
        assert None in feed


class TestRelationSnapshots:
    """``PeerState.query`` keeps a relation's sorted answer until a store,
    the derived store or the provided set records a change of it."""

    def _state(self):
        from repro.core.state import PeerState
        state = PeerState("p")
        state.declare(RelationSchema(name="view", peer="p", columns=("x",),
                                     kind=RelationKind.INTENSIONAL))
        return state

    def test_same_tuple_until_the_relation_changes(self):
        state = self._state()
        state.insert_fact(Fact("r", "p", (2,)))
        state.insert_fact(Fact("r", "p", (1,)))
        first = state.query("r")
        assert [fact.values for fact in first] == [(1,), (2,)]
        state.insert_fact(Fact("other", "p", (1,)))
        assert state.query("r") is first
        state.insert_fact(Fact("r", "p", (0,)))         # no stage in between
        assert [fact.values for fact in state.query("r")] == [(0,), (1,), (2,)]
        state.delete_fact(Fact("r", "p", (1,)))
        assert [fact.values for fact in state.query("r")] == [(0,), (2,)]

    def test_derived_and_provided_facts_invalidate_too(self):
        state = self._state()
        assert state.query("view") == ()
        state.derived.insert(Fact("view", "p", (1,)))
        assert [fact.values for fact in state.query("view")] == [(1,)]
        state.add_provided(Fact("view", "p", (2,)), "a")
        kept = state.query("view")
        assert [fact.values for fact in kept] == [(1,), (2,)]
        state.add_provided(Fact("view", "p", (2,)), "b")    # second sender
        state.remove_provided(Fact("view", "p", (2,)), "a")  # one remains
        assert state.query("view") is kept
        state.remove_provided(Fact("view", "p", (2,)), "b")
        assert [fact.values for fact in state.query("view")] == [(1,)]
        state.add_provided(Fact("view", "p", (3,)), "a")
        state.clear_provided([("view", "p")])
        assert [fact.values for fact in state.query("view")] == [(1,)]

    def test_provided_facts_answer_probes_keep_every_sender_and_live_one_scratch_stage(self):
        from repro.core.engine import WebdamLogEngine

        state = self._state()
        state.declare(RelationSchema(name="pair", peer="p", columns=("k", "v"),
                                     kind=RelationKind.INTENSIONAL))
        for values in ((1, "a"), (1, True), (1.0, "b"), (2, "a"), (2, 1)):
            state.add_provided(Fact("pair", "p", values), "s")
        scanned = list(state.fact_view("pair", "p"))
        for bindings in ({0: 1}, {1: "a"}, {0: 1, 1: True}, {1: 1}, {0: 1.0}, {0: 3}):
            probed = list(state.fact_view("pair", "p", bindings))
            assert sorted(probed, key=str) == sorted(
                (fact for fact in scanned if fact_matches_bindings(fact, bindings)),
                key=str), bindings

        # Provided facts never displace each other, whatever the key says.
        state.declare(RelationSchema(name="rating", peer="p", columns=("pic", "score"),
                                     kind=RelationKind.INTENSIONAL, key=("pic",)))
        state.add_provided(Fact("rating", "p", (7, 4)), "a")
        state.add_provided(Fact("rating", "p", (7, 5)), "b")
        assert [fact.values for fact in state.query("rating")] == [(7, 4), (7, 5)]

        # A scratch relation's clear drops its senders too: the same fact
        # provided again is a new input, whose consequence comes back.
        engine = WebdamLogEngine("p")
        engine.load_program("""
        collection intensional scratch inbox@p(x);
        collection intensional kept@p(x);
        rule kept@p($x) :- inbox@p($x);
        """)
        kept = Fact("kept", "p", (1,))
        subscription, added, removed = watch(engine, "kept")
        engine.receive_facts("a", inserted=[Fact("inbox", "p", (1,))])
        engine.run_stage()
        subscription.notify_stage("p")
        assert (added, removed) == ([kept], [])
        engine.run_stage()
        subscription.notify_stage("p")
        assert (added, removed) == ([kept], [kept])
        engine.receive_facts("a", inserted=[Fact("inbox", "p", (1,))])
        engine.run_stage()
        subscription.notify_stage("p")
        assert (added, removed) == ([kept, kept], [kept])
        assert engine.state.provided.total_facts() == 0

    def test_remote_relations_are_never_visible_and_snapshots_can_be_dropped(self):
        state = self._state()
        state.insert_fact(Fact("r", "p", (1,)))
        assert state.query("r", "elsewhere") == ()
        kept = state.query("r")
        state.forget_snapshot("r")
        again = state.query("r")
        assert again == kept and again is not kept
