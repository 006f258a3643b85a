"""Subscriptions: exactly one callback per fact that becomes visible."""

from repro.api import system
from repro.api.query import Subscription
from repro.core.facts import Delta, Fact

from tests.reference_engine import lockstep

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


class TestDeltaDelivery:
    def test_only_the_watched_relation_is_ordered(self):
        """A stage delta spans every relation of the peer; a subscription
        filters on relation and peer first and renders (to sort) only its
        own facts — in the order it always delivered them."""
        watched = [Fact("r", "p", (value,)) for value in (3, 1, 2)]
        others = [Fact("other", "p", (value,)) for value in range(50)]
        elsewhere = Fact("r", "q", (0,))
        added, removed = [], []
        subscription = Subscription("r", added.append, peer="p",
                                    on_remove=removed.append)
        assert subscription.on_delta(
            "p", Delta.insertion(watched + others + [elsewhere])) == 3
        assert [fact.values for fact in added] == [(1,), (2,), (3,)]
        subscription.on_delta("p", Delta.deletion(watched + others))
        assert [fact.values for fact in removed] == [(1,), (2,), (3,)]
        assert all(fact._str is None for fact in others)


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
