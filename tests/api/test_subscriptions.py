"""Subscriptions: exactly one callback per fact that becomes visible."""

from repro.api import system
from repro.core.facts import Fact

from tests.reference_engine import lockstep, reference_deployment

JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $n) :-
    selectedAttendee@Jules($a), pictures@$a($id, $n);
"""

EMILIEN = """
collection extensional persistent pictures@Emilien(id, name);
fact pictures@Emilien(1, "sea.jpg");
fact pictures@Emilien(2, "boat.jpg");
"""


def build_quickstart():
    return (system()
            .peer("Jules").program(JULES)
            .peer("Emilien").program(EMILIEN)
            .build())


class TestExactlyOnce:
    def test_one_callback_per_derived_fact(self):
        built = build_quickstart()
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        assert sorted(f.values for f in fired) == [(1, "sea.jpg"), (2, "boat.jpg")]

    def test_no_refire_on_further_runs(self):
        built = build_quickstart()
        fired = []
        sub = built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        count_after_first = len(fired)
        built.converge()
        lockstep(built).converge(extra_rounds=3)  # every peer, four more stages
        assert len(fired) == count_after_first == sub.delivered == 2

    def test_incremental_facts_fire_incrementally(self):
        built = build_quickstart()
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        assert len(fired) == 2
        built.peer("Emilien").insert('pictures@Emilien(3, "poster.jpg")')
        built.converge()
        assert len(fired) == 3
        assert fired[-1].values == (3, "poster.jpg")

    def test_retracted_then_rederived_fact_fires_again(self):
        built = build_quickstart()
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        jules = built.peer("Jules")
        jules.delete('selectedAttendee@Jules("Emilien")')
        built.converge()
        assert len(built.query("Jules", "attendeePictures")) == 0
        jules.insert('selectedAttendee@Jules("Emilien")')
        built.converge()
        # The two pictures became visible twice: once per derivation episode.
        assert len(fired) == 4


class TestFeedDelivery:
    def test_only_the_watched_relation_is_ordered(self):
        """A subscription drains the feed of its own relation at its own
        host: other relations' facts never reach it, so it renders (to
        sort) only its own — in the order it always delivered them:
        additions, then removals, each by rendering."""
        built = system().peer("p").program(
            "collection extensional persistent r@p(x);"
            "collection extensional persistent other@p(x);").build()
        watched = [Fact("r", "p", (value,)) for value in (3, 1, 2)]
        others = [Fact("other", "p", (value,)) for value in range(50)]
        added, removed = [], []
        built.subscribe("r", added.append, peer="p", on_remove=removed.append)
        built.peer("p").insert_many(watched + others)
        built.converge()
        assert [fact.values for fact in added] == [(1,), (2,), (3,)]
        for fact in watched + others:
            built.peer("p").delete(fact)
        built.converge()
        assert [fact.values for fact in removed] == [(1,), (2,), (3,)]
        assert all(fact._str is None for fact in others)

    def test_a_stage_run_behind_the_facade_is_reported_at_the_next_converge(self):
        """The stores feed every write, whoever runs the stage: a stage run
        on the engine directly reaches no stage observer, and the next
        ``converge()`` delivers what it derived."""
        built = system().peer("p").program("""
        collection extensional persistent e@p(x);
        collection intensional q@p(x);
        rule q@p($x) :- e@p($x);
        """).build()
        fired = []
        built.subscribe("q", fired.append, peer="p")
        view = built.query("p", "q")
        engine = built.runtime.peer("p").engine
        engine.insert_fact(Fact("e", "p", (1,)))
        engine.run_to_quiescence()
        built.converge()
        assert view.rows() == ((1,),)
        assert [fact.values for fact in fired] == [(1,)]

    def test_a_bridge_deleted_and_reinserted_before_a_stage_changes_nothing(self):
        """``tc_churn``'s program shape: the bridge's feed names it twice
        over, but its visibility did not change and the stage has nothing
        to rederive, so neither callback fires for ``bridge`` or ``reach``;
        and the engine ends where the reference does."""
        program = """
        collection extensional persistent edge@p(src, dst);
        collection extensional persistent bridge@p(src, dst);
        collection intensional reach@p(src, dst);
        rule reach@p($x, $y) :- edge@p($x, $y);
        rule reach@p($x, $y) :- bridge@p($x, $y);
        rule reach@p($x, $z) :- reach@p($x, $y), edge@p($y, $z);
        rule reach@p($x, $z) :- reach@p($x, $y), bridge@p($y, $z);
        """
        edges = [Fact("edge", "p", (f"c{chain}n{i}", f"c{chain}n{i + 1}"))
                 for chain in range(2) for i in range(4)]
        bridge = Fact("bridge", "p", ("c0n3", "c1n1"))
        deployments = []
        for build in (lambda b: b.build(), reference_deployment):
            deployment = build(system().peer("p").program(program).done())
            deployment.peer("p").insert_many(edges + [bridge])
            deployment.converge()
            deployments.append(deployment)
        built, reference = deployments
        added, removed = [], []
        subscriptions = [built.subscribe(relation, added.append, peer="p",
                                         on_remove=removed.append)
                         for relation in ("reach", "bridge")]
        for deployment in deployments:
            deployment.peer("p").delete(bridge)
            deployment.peer("p").insert(bridge)
        assert subscriptions[1]._feeds["p"][1] == {bridge}
        built.converge()
        reference.converge()
        assert (added, removed) == ([], [])
        assert built.snapshot() == reference.snapshot()
        assert len(built.snapshot()["p"]["reach@p"]) == 36


class TestFeedsComeAndGoWithTheirReaders:
    @staticmethod
    def feeds(built, relation, peer):
        state = built.runtime.peer(peer).engine.state
        return len(state._feeds.get((relation, peer), ()))

    def test_cancel_and_close_unwatch(self):
        built = build_quickstart()
        built.converge()
        view = built.query("Jules", "attendeePictures")
        view.rows()
        before = self.feeds(built, "attendeePictures", "Jules")
        subscription = built.subscribe("attendeePictures", lambda fact: None,
                                       peer="Jules")
        observer = view.on_change(lambda fact: None)
        assert self.feeds(built, "attendeePictures", "Jules") == before + 2
        subscription.cancel()
        view.close()
        assert self.feeds(built, "attendeePictures", "Jules") == before
        assert observer._feeds == {} and not observer.active

    def test_a_viewer_observer_and_answer_let_go_of_the_graph(self):
        built = (system().provenance()
                 .peer("Jules").program(JULES)
                 .peer("Emilien").program(EMILIEN)
                 .build())
        built.converge()
        graph = built.runtime.peer("Jules").engine.provenance.graph
        key = ("attendeePictures", "Jules")
        view = built.query("Jules", "attendeePictures", viewer="Emilien")
        view.rows()                                  # the policy engine's answer
        observer = view.on_change(lambda fact: None)
        assert len(graph._feeds[key]) == 2
        built.peer("Jules").grant("selectedAttendee", "Emilien")
        view.rows()                                  # a new policy version
        assert len(graph._feeds[key]) == 2
        observer.cancel()
        assert len(graph._feeds[key]) == 1
        built.access_policy("Jules").revoke("selectedAttendee@Jules", "Emilien")
        view.rows()
        assert len(graph._feeds[key]) == 1

    def test_an_unscoped_subscription_follows_a_peer_readded_under_its_name(self):
        program = "collection extensional persistent notes@{}(text);"
        built = system().peer("alice").program(program.format("alice")).build()
        added, removed = [], []
        built.subscribe("notes", added.append, on_remove=removed.append)
        built.peer("alice").insert('notes@alice("a")')
        built.converge()
        built.remove_peer("alice")
        built.add_peer("alice", program=program.format("alice")
                       + 'fact notes@alice("b");')
        built.converge()
        assert [str(fact) for fact in added] == ['notes@alice("a")', 'notes@alice("b")']
        assert [str(fact) for fact in removed] == ['notes@alice("a")']

    def test_a_process_death_forgets_the_feed(self, tmp_path):
        built = (system().storage("sqlite", path=str(tmp_path))
                 .peer("Jules").program(JULES)
                 .peer("Emilien").program(EMILIEN)
                 .build())
        built.converge()
        subscription = built.subscribe("attendeePictures", lambda fact: None,
                                       peer="Jules")
        assert "Jules" in subscription._feeds
        built.runtime.peer("Jules").engine.state.backend.abort()
        assert subscription._feeds == {}


class TestScopesAndLifecycle:
    def test_existing_facts_do_not_fire_by_default(self):
        built = build_quickstart()
        built.converge()
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.converge()
        assert fired == []

    def test_include_existing_fires_for_current_facts(self):
        built = build_quickstart()
        built.converge()
        fired = []
        built.subscribe("attendeePictures", fired.append, peer="Jules",
                        include_existing=True)
        built.converge()
        assert len(fired) == 2

    def test_unscoped_subscription_watches_every_peer(self):
        built = (system()
                 .peer("alice").program("""
                 collection extensional persistent notes@alice(text);
                 rule copy@bob($t) :- notes@alice($t);
                 """)
                 .peer("bob").program(
                     "collection extensional persistent copy@bob(text);")
                 .build())
        fired = []
        built.subscribe("notes", fired.append)  # every hosting peer
        built.peer("alice").insert('notes@alice("hi")')
        built.converge()
        assert [f.peer for f in fired] == ["alice"]

    def test_cancel_stops_firing(self):
        built = build_quickstart()
        fired = []
        sub = built.subscribe("attendeePictures", fired.append, peer="Jules")
        sub.cancel()
        built.converge()
        assert fired == [] and sub.delivered == 0

    def test_unsubscribe_removes_the_subscription(self):
        built = build_quickstart()
        fired = []
        sub = built.subscribe("attendeePictures", fired.append, peer="Jules")
        built.unsubscribe(sub)
        built.converge()
        assert fired == []

    def test_peer_handle_subscribe_shortcut(self):
        built = build_quickstart()
        fired = []
        built.peer("Jules").subscribe("attendeePictures", fired.append)
        built.converge()
        assert len(fired) == 2


class TestQueryHandles:
    def test_handle_is_live_across_runs(self):
        built = build_quickstart()
        view = built.query("Jules", "attendeePictures")
        assert len(view) == 0 and not view
        built.converge()
        assert len(view) == 2 and view
        assert view.first() is not None
        assert sorted(view.rows()) == [(1, "sea.jpg"), (2, "boat.jpg")]
        assert [f.values for f in view.sorted()] == [(1, "sea.jpg"), (2, "boat.jpg")]


class TestCancelIdempotency:
    """Regression: cancelling a subscription twice (or after the facade
    already dropped it) must be a no-op, never an error."""

    def test_cancel_twice_is_a_noop(self):
        built = build_quickstart()
        fired = []
        sub = built.subscribe("attendeePictures", fired.append)
        sub.cancel()
        sub.cancel()  # must not raise
        assert not sub.active
        built.converge()
        assert fired == []

    def test_cancel_after_unsubscribe_is_a_noop(self):
        built = build_quickstart()
        sub = built.subscribe("attendeePictures", lambda fact: None)
        built.unsubscribe(sub)
        sub.cancel()
        built.unsubscribe(sub)  # and the reverse order, for good measure
        assert sub not in built._subscriptions

    def test_cancel_detaches_from_the_facade(self):
        built = build_quickstart()
        sub = built.subscribe("attendeePictures", lambda fact: None)
        assert sub in built._subscriptions
        sub.cancel()
        assert sub not in built._subscriptions

    def test_cancel_after_peers_are_gone(self):
        built = build_quickstart()
        sub = built.subscribe("attendeePictures", lambda fact: None)
        for name in built.peer_names():
            built.remove_peer(name)
        sub.cancel()
        sub.cancel()
        assert not sub.active

    def test_cancelled_subscription_ignores_on_remove(self):
        built = build_quickstart()
        removed = []
        sub = built.subscribe("attendeePictures", lambda fact: None,
                              on_remove=removed.append)
        built.converge()
        sub.cancel()
        built.peer("Jules").delete('selectedAttendee@Jules("Emilien")')
        built.converge()
        assert removed == []
