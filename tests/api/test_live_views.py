"""Declarative queries compiled into incrementally-maintained live views."""

import gc
import sys

import pytest

from repro.api import LiveView, ReproApiError, system
from repro.core.parser import parse_atom, parse_rule

Q_PROGRAM = """
collection extensional persistent a@q(x);
collection extensional persistent c@q(x);
collection extensional persistent score@q(x, points);
"""

R_PROGRAM = """
collection extensional persistent b@r(x, y);
"""


def build_pair():
    return (system()
            .peer("q").program(Q_PROGRAM)
            .peer("r").program(R_PROGRAM)
            .build())


def seed(deployment):
    q, r = deployment.peer("q"), deployment.peer("r")
    for value in (1, 2, 3):
        q.insert(f"a@q({value})")
    q.insert("c@q(2)")
    r.insert("b@r(1, 10)")
    r.insert("b@r(1, 11)")
    r.insert("b@r(3, 30)")
    deployment.converge()


class TestDegenerateQueries:
    def test_single_relation_query_returns_a_live_view(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query("q", "a")
        assert isinstance(view, LiveView)
        assert sorted(view.rows()) == [(1,), (2,), (3,)]
        # Reads are live: the same handle reflects later changes.
        deployment.peer("q").insert("a@q(4)")
        deployment.converge()
        assert (4,) in view.rows()

    def test_peer_is_the_location_qualifier(self):
        # peer= names which relation is meant (rel@peer), not a remote fetch:
        # facts of a relation located at another peer are never visible
        # locally, so a remote qualifier yields the empty relation.
        deployment = build_pair()
        seed(deployment)
        assert deployment.query("q", "a", peer="q").rows() == \
            deployment.query("q", "a").rows()
        assert deployment.query("q", "b", peer="r").facts() == ()

    def test_unknown_target_peer_raises_api_error(self):
        deployment = build_pair()
        with pytest.raises(ReproApiError, match="unknown peer 'nobody'"):
            deployment.query("nobody", "a")
        with pytest.raises(ReproApiError, match="unknown peer 'ghost'"):
            deployment.query("q", "a", peer="ghost")
        with pytest.raises(ReproApiError, match="unknown peer"):
            deployment.peer("q").query("a", peer="ghost")

    def test_location_qualifier_rejected_for_declarative_queries(self):
        deployment = build_pair()
        with pytest.raises(ReproApiError, match="location qualifier"):
            deployment.query("q", "a@q($x), c@q($x)", peer="r")


class TestCompiledViews:
    def test_join_negation_and_remote_literal(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query(
            "q", "ans($x, $y) :- a@q($x), not c@q($x), b@r($x, $y)")
        deployment.converge()
        assert sorted(view.rows()) == [(1, 10), (1, 11), (3, 30)]

    def test_body_only_query_projects_all_variables(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query("q", "a@q($x), score@q($x, $p)")
        deployment.peer("q").insert("score@q(1, 7)")
        deployment.converge()
        assert view.rows() == ((1, 7),)

    def test_bound_argument_query(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query("q", "a@q($x), c@q(2), score@q($x, 7)")
        deployment.peer("q").insert("score@q(3, 7)")
        deployment.peer("q").insert("score@q(1, 9)")
        deployment.converge()
        assert view.rows() == ((3,),)

    def test_atom_and_rule_objects_are_accepted(self):
        deployment = build_pair()
        seed(deployment)
        atom_view = deployment.query("q", parse_atom("a@q($x)"))
        rule_view = deployment.query(
            "q", parse_rule("ans($x) :- a@q($x), not c@q($x)",
                            default_peer="q"))
        deployment.converge()
        assert sorted(atom_view.rows()) == [(1,), (2,), (3,)]
        assert sorted(rule_view.rows()) == [(1,), (3,)]

    def test_custom_view_name(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x)", name="wall")
        assert view.name == "wall"
        deployment.converge()
        assert deployment.runtime.peer("q").query("wall") == view.facts()

    def test_view_maintenance_stays_incremental_under_churn(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query(
            "q", "ans($x, $y) :- a@q($x), not c@q($x), b@r($x, $y)")
        deployment.converge()  # installation settles (full stage expected)
        engine = deployment.runtime.peer("q").engine
        full_before = engine.metrics["core", "stages_full"]
        deployment.peer("r").insert("b@r(1, 12)")
        deployment.converge()
        assert sorted(view.rows()) == [(1, 10), (1, 11), (1, 12), (3, 30)]
        deployment.peer("r").delete("b@r(1, 10)")
        deployment.converge()
        assert sorted(view.rows()) == [(1, 11), (1, 12), (3, 30)]
        deployment.peer("q").insert("c@q(3)")
        deployment.converge()
        assert sorted(view.rows()) == [(1, 11), (1, 12)]
        # The owner absorbed all churn on the delta/rederive paths.
        assert engine.metrics["core", "stages_full"] == full_before

    def test_malformed_and_unsafe_queries_raise_api_errors(self):
        deployment = build_pair()
        with pytest.raises(ReproApiError, match="cannot parse"):
            deployment.query("q", "a@q($x), :-")
        with pytest.raises(ReproApiError, match="unsafe query"):
            deployment.query("q", "ans($y) :- a@q($x)")
        with pytest.raises(ReproApiError, match="cannot interpret"):
            deployment.query("q", 42)

    def test_conflicting_view_name_raises_api_error(self):
        deployment = build_pair()
        with pytest.raises(ReproApiError, match="cannot install view"):
            deployment.query("q", "ans($x, $y) :- score@q($x, $y)", name="a")

    def test_polling_single_relation_handles_leaves_nothing_behind(self):
        """``query("rel")`` installs nothing, so a page that polls it a
        thousand times must not grow the deployment: not the list of open
        views, and not the work of a later stage (which walks that list)."""
        deployment = build_pair()
        seed(deployment)
        board = deployment.query("q", "n(count($x)) :- a@q($x)")
        deployment.converge()
        assert board.rows() == ((3,),)

        def calls_of_one_update(value):
            count = 0

            def profiler(frame, event, arg):
                nonlocal count
                count += event == "call"
            deployment.peer("q").insert(f"a@q({value})")
            sys.setprofile(profiler)
            try:
                deployment.converge()
            finally:
                sys.setprofile(None)
            return count

        calls_of_one_update(100)                   # warm every lazy path
        before = calls_of_one_update(101)
        for _ in range(500):
            assert deployment.query("q", "a").rows()
            assert deployment.peer("q").query("a").facts()
        gc.collect()
        assert deployment.open_views() == (board,)
        assert calls_of_one_update(102) == before
        assert board.rows() == ((6,),)
        # A handle somebody still holds is closed with its peer all the same.
        held = deployment.query("q", "a")
        deployment.remove_peer("q")
        assert held.closed and board.closed
        assert deployment.open_views() == ()

    def test_open_views_registry(self):
        deployment = build_pair()
        assert deployment.open_views() == ()
        view = deployment.query("q", "ans($x) :- a@q($x)")
        assert deployment.open_views() == (view,)
        view.close()
        assert deployment.open_views() == ()


class TestAggregates:
    def test_grouped_aggregates(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query(
            "q", "stats($x, count($y), avg($y)) :- a@q($x), b@r($x, $y)")
        deployment.converge()
        assert sorted(view.rows()) == [(1, 2, 10.5), (3, 1, 30.0)]
        deployment.peer("r").insert("b@r(3, 40)")
        deployment.converge()
        assert sorted(view.rows()) == [(1, 2, 10.5), (3, 2, 35.0)]

    def test_a_read_recomputes_only_the_groups_a_stage_touched(self):
        deployment = build_pair()
        q = deployment.peer("q")
        for row in ((1, 7), (1, 8), (2, 7)):
            q.insert(f"score@q{row}")
        view = deployment.query("q", "stats($x, count($p), sum($p)) :- score@q($x, $p)")
        deployment.converge()
        first = view.facts()
        assert view.rows() == ((1, 2, 15), (2, 1, 7))
        assert view.facts() is first                  # nothing changed: kept
        q.insert("score@q(2, 9)")
        assert view.facts() is first                  # written, not staged yet
        deployment.converge()
        second = view.facts()
        assert view.rows() == ((1, 2, 15), (2, 2, 16))
        assert second[0] is first[0]                  # group 1 was not touched
        q.delete("score@q(2, 7)")
        q.delete("score@q(2, 9)")
        q.insert("score@q(0, 1)")
        deployment.converge()
        assert view.rows() == ((0, 1, 1), (1, 2, 15))  # a group left, one came
        view.close()
        assert view.facts() == () and view.rows() == ()

    def test_close_releases_what_the_read_path_kept(self):
        deployment = build_pair()
        seed(deployment)
        state = deployment.runtime.peer("q").engine.state
        plain = deployment.query("q", "ans($x) :- a@q($x), not c@q($x)")
        grouped = deployment.query("q", "n(count($x)) :- a@q($x)")
        deployment.converge()
        assert plain.rows() == ((1,), (3,)) and grouped.rows() == ((3,),)
        assert (plain.relation, "q") in state._snapshots
        # An aggregate is primed from a scan of its own and keeps its raw
        # tuples as group rows: no snapshot of them is kept beside.
        assert (grouped.relation, "q") not in state._snapshots
        assert set(state._feeds) == {(plain.relation, "q"), (grouped.relation, "q")}
        plain.close()
        grouped.close()
        assert (plain.relation, "q") not in state._snapshots
        assert grouped._groups is None and grouped._answer == ()
        assert grouped._group_rows == {} and state._feeds == {}

    def test_process_death_releases_what_the_read_path_kept(self, tmp_path):
        """An aborted durable peer keeps no read of its facts: they would
        otherwise live on until a garbage collection found the dead
        deployment's cycles."""
        deployment = (system().storage("sqlite", path=str(tmp_path))
                      .peer("q").program(Q_PROGRAM).build())
        q = deployment.peer("q")
        for row in ((1, 7), (1, 8), (2, 7)):
            q.insert(f"score@q{row}")
        grouped = deployment.query("q", "n($x, count($p)) :- score@q($x, $p)")
        plain = deployment.query("q", "score")
        deployment.converge()
        assert grouped.rows() == ((1, 2), (2, 1)) and len(plain.rows()) == 3
        state = deployment.runtime.peer("q").engine.state
        assert state._snapshots and grouped._group_rows
        state.backend.abort()
        assert state._snapshots == {} and state._feeds == {}
        assert grouped._groups is None and grouped._group_rows == {}
        assert grouped._answer == () and grouped._answer_rows == ()

    def test_a_feed_nobody_drains_stays_bounded(self, monkeypatch):
        """A snapshot read once and never again pins no more facts than it
        keeps (or the floor); its next read sorts the relation again."""
        from repro.core import facts
        monkeypatch.setattr(facts, "FEED_FLOOR", 3)
        deployment = build_pair()
        q = deployment.peer("q")
        view = deployment.query("q", "a")
        assert view.rows() == ()
        for value in range(10):
            q.insert(f"a@q({value})")
        feed, = deployment.runtime.peer("q").engine.state._feeds[("a", "q")]
        assert len(feed) == 4 and None in feed
        assert view.rows() == tuple((value,) for value in sorted(range(10), key=str))
        assert not feed and feed.bound == 10
        for value in range(10, 20):
            q.insert(f"a@q({value})")
        assert len(feed) == 10 and None not in feed
        q.insert("a@q(20)")
        assert None in feed
        assert view.rows() == tuple((value,) for value in sorted(range(21), key=str))

    def test_aggregate_support_columns_preserve_multiplicity(self):
        # Two score facts with the same value for the same x must both count:
        # the raw view keeps one tuple per body substitution.
        deployment = build_pair()
        deployment.peer("q").insert("score@q(1, 7)")
        deployment.peer("q").insert("score@q(2, 7)")
        view = deployment.query(
            "q", "total(count($p)) :- score@q($x, $p)")
        deployment.converge()
        assert view.rows() == ((2,),)

    def test_a_repeated_body_literal_counts_each_substitution_once(self):
        deployment = build_pair()
        q = deployment.peer("q")
        for row in ((1, 7), (2, 7), (3, 8)):
            q.insert(f"score@q{row}")
        view = deployment.query(
            "q", "n($p, count($x)) :- score@q($x, $p), score@q($x, $p)")
        deployment.converge()
        assert view.rows() == ((7, 2), (8, 1))

    def test_min_max_sum(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query(
            "q", "extremes(min($y), max($y), sum($y)) :- b@r($x, $y), a@q($x)")
        deployment.converge()
        assert view.rows() == ((10, 30, 51),)

    def test_group_by_multiple_columns(self):
        deployment = build_pair()
        q = deployment.peer("q")
        for row in (("eu", 2012, 5), ("eu", 2012, 7), ("eu", 2013, 1),
                    ("us", 2012, 4)):
            q.insert(f"sale@q{row}".replace("'", '"'))
        view = deployment.query(
            "q", "sales($r, $y, sum($v), count($v)) :- sale@q($r, $y, $v)")
        deployment.converge()
        assert sorted(view.rows()) == [("eu", 2012, 12, 2), ("eu", 2013, 1, 1),
                                       ("us", 2012, 4, 1)]
        q.delete('sale@q("eu", 2013, 1)')
        q.insert('sale@q("us", 2012, 6)')
        deployment.converge()
        assert sorted(view.rows()) == [("eu", 2012, 12, 2), ("us", 2012, 10, 2)]


class TestAnswersAreInRenderingOrder:
    """``sorted()`` sorts nothing: every kind of answer is kept in
    rendering order — a relation's snapshot patched in order, a viewer's
    filter keeping its input's order, groups inserted in order."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_sorted_is_the_answer_as_it_is(self, backend):
        deployment = (system().storage(backend).provenance()
                      .peer("q").program(Q_PROGRAM)
                      .peer("r").program(R_PROGRAM)
                      .build())
        q, r = deployment.peer("q"), deployment.peer("r")
        q.grant("score", "guest")
        views = {
            "plain": deployment.query("q", "ans($x, $p) :- score@q($x, $p), not c@q($x)"),
            "aggregate": deployment.query(
                "q", "stats($x, count($p), sum($p)) :- score@q($x, $p)"),
            "viewer": deployment.query(
                "q", "mine($x, $p) :- score@q($x, $p)", viewer="guest"),
            "relation": deployment.query("q", "score"),
            "viewer relation": deployment.query("q", "score", viewer="guest"),
            "remote": deployment.query("q", "ans($x, $y) :- a@q($x), b@r($x, $y)"),
        }
        # Numbers whose rendering order is not their numeric order, written
        # in neither order.
        values = (100, 9, 10, 2, 21, 3, 1000, -5, 0.5, "x", 11)
        for step, value in enumerate(values):
            q.insert(f"score@q({value!r}, {step})" if not isinstance(value, str)
                     else f'score@q("{value}", {step})')
            q.insert(f"a@q({step})")
            r.insert(f"b@r({step}, {values[-1 - step]!r})"
                     if not isinstance(values[-1 - step], str)
                     else f'b@r({step}, "{values[-1 - step]}")')
            if step % 3 == 0:
                deployment.converge()
            for name, view in views.items():
                assert view.sorted() == tuple(sorted(view.facts(), key=str)), name
        q.insert("c@q(9)")
        q.delete("score@q(100, 0)")
        q.delete("a@q(3)")
        deployment.converge()
        for name, view in views.items():
            assert view.facts(), name
            assert view.sorted() == tuple(sorted(view.facts(), key=str)), name
        deployment.close()


class TestOnChange:
    def test_add_and_remove_callbacks(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x), not c@q($x)")
        deployment.converge()
        added, removed = [], []
        view.on_change(added.append, removed.append)
        deployment.peer("q").insert("a@q(9)")
        deployment.converge()
        assert [f.values for f in added] == [(9,)]
        deployment.peer("q").insert("c@q(9)")
        deployment.converge()
        assert [f.values for f in removed] == [(9,)]

    def test_include_existing_replays_current_answers(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x)")
        deployment.converge()
        seen = []
        view.on_change(seen.append, include_existing=True)
        deployment.converge()
        assert sorted(f.values for f in seen) == [(1,), (2,), (3,)]

    def test_on_change_rejected_after_close(self):
        deployment = build_pair()
        view = deployment.query("q", "ans($x) :- a@q($x)")
        view.close()
        with pytest.raises(ReproApiError, match="closed"):
            view.on_change(lambda fact: None)


class TestClose:
    def test_close_leaves_no_residue(self):
        deployment = build_pair()
        seed(deployment)
        view = deployment.query(
            "q", "ans($x, $y) :- a@q($x), not c@q($x), b@r($x, $y)")
        deployment.converge()
        assert view.rows() != ()
        fired = []
        view.on_change(fired.append)
        rules_before_install = 0
        view.close()
        q = deployment.runtime.peer("q")
        r = deployment.runtime.peer("r")
        # No residual rules at the owner, no residual delegations at the
        # remote peer, no residual derived/provided view facts, and the
        # view's subscription is gone.
        assert len(q.rules()) == rules_before_install
        assert tuple(r.engine.installed_delegations()) == ()
        assert q.query(view.name) == ()
        assert deployment._subscriptions == []
        assert view.facts() == ()
        # Closed views stay closed; closing again is a no-op.
        view.close()
        deployment.peer("q").insert("a@q(9)")
        deployment.converge()
        assert fired == []
        assert q.query(view.name) == ()

    def test_close_retracts_magic_predicates_and_anchor(self):
        """A magic-rewritten view must close to zero: no scoped aux
        relations, no magic/demand predicates, no demand-anchor EDB fact,
        no rules — only the user's extensional facts survive."""
        deployment = (system()
                      .peer("q").program(Q_PROGRAM)
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        for src, dst in ((1, 2), (2, 3), (3, 4), (8, 9)):
            deployment.peer("q").insert(f"score@q({src}, {dst})")
        view = deployment.query(
            "q",
            "reach($x, $y) :- score@q($x, $y); "
            "reach($x, $z) :- reach($x, $y), score@q($y, $z); "
            "ans($y) :- reach(1, $y)")
        deployment.converge()
        assert view.rows() != ()
        plan = view.plan()
        assert plan["magic_relations"], "magic rewrite did not fire"
        q = deployment.runtime.peer("q")
        occupied = {relation for relation, facts
                    in deployment.peer("q").snapshot().items() if facts}
        assert any(relation.startswith("_magic_") for relation in occupied)
        assert any(relation.startswith("_demand_") for relation in occupied)
        view.close()
        deployment.converge()
        for relation, facts in deployment.peer("q").snapshot().items():
            if relation.startswith(("_view", "_magic_", "_demand_")):
                assert facts == (), f"residue in {relation}"
        assert len(q.rules()) == 0
        # Anchor fact is gone from persistent storage, not just derivation.
        assert all(not relation.startswith("_demand_")
                   for relation, facts
                   in deployment.peer("q").snapshot().items() if facts)

    def test_close_is_a_context_manager_exit(self):
        deployment = build_pair()
        seed(deployment)
        with deployment.query("q", "ans($x) :- a@q($x)") as view:
            deployment.converge()
            assert view.rows() != ()
        assert view.closed
        assert deployment.runtime.peer("q").rules() == ()

    def test_independent_views_survive_a_sibling_close(self):
        deployment = build_pair()
        seed(deployment)
        first = deployment.query("q", "ans($x) :- a@q($x)")
        second = deployment.query("q", "ans($x) :- a@q($x), not c@q($x)")
        deployment.converge()
        first.close()
        assert sorted(second.rows()) == [(1,), (3,)]
        deployment.peer("q").insert("a@q(5)")
        deployment.converge()
        assert (5,) in second.rows()
        second.close()


class TestViewerFiltering:
    def test_viewer_requires_grants_on_lineage(self):
        deployment = (system()
                      .provenance()
                      .peer("q").program(Q_PROGRAM)
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x), not c@q($x)",
                                viewer="bob")
        deployment.converge()
        assert view.facts() == ()  # bob may not read a@q yet
        deployment.peer("q").grant("a", "bob")
        assert sorted(view.rows()) == [(1,), (3,)]
        deployment.access_policy("q").revoke("a@q", "bob")
        assert view.facts() == ()

    def test_owner_always_sees_its_own_view(self):
        deployment = (system()
                      .provenance()
                      .peer("q").program(Q_PROGRAM)
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x)", viewer="q")
        deployment.converge()
        assert sorted(view.rows()) == [(1,), (2,), (3,)]

    def test_declassification_overrides_lineage_policy(self):
        deployment = (system()
                      .provenance()
                      .peer("q").program(Q_PROGRAM)
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x)", name="wall",
                                viewer="bob")
        deployment.converge()
        assert view.facts() == ()
        deployment.peer("q").declassify("wall", "bob").grant("wall", "bob")
        assert sorted(view.rows()) == [(1,), (2,), (3,)]

    def test_on_change_respects_the_viewer(self):
        deployment = (system()
                      .provenance()
                      .peer("q").program(Q_PROGRAM)
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x)", viewer="bob")
        deployment.converge()
        fired = []
        view.on_change(fired.append)
        deployment.peer("q").insert("a@q(8)")
        deployment.converge()
        assert fired == []  # not readable by bob
        deployment.peer("q").grant("a", "bob")
        deployment.peer("q").insert("a@q(9)")
        deployment.converge()
        assert [f.values for f in fired] == [(9,)]

    def test_on_remove_mirrors_delivered_adds(self):
        # Regression: the ACL decision is made at delivery time and
        # remembered — a retracted fact has no lineage left to re-check, so
        # re-checking at removal time would silently suppress the removal
        # and leave the observer with a stale answer.
        deployment = (system()
                      .provenance()
                      .peer("q").program(Q_PROGRAM).grant("a", "bob")
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        view = deployment.query("q", "ans($x) :- a@q($x)", viewer="bob")
        deployment.converge()
        added, removed = [], []
        view.on_change(added.append, removed.append, include_existing=True)
        deployment.converge()
        assert sorted(f.values for f in added) == [(1,), (2,), (3,)]
        deployment.peer("q").delete("a@q(2)")
        deployment.converge()
        assert [f.values for f in removed] == [(2,)]
        # The converse: an add the viewer never saw must not produce a remove.
        deployment.access_policy("q").revoke("a@q", "bob")
        deployment.peer("q").insert("a@q(9)")
        deployment.converge()
        deployment.peer("q").delete("a@q(9)")
        deployment.converge()
        assert [f.values for f in removed] == [(2,)]

    TC_PROGRAM = """
    collection extensional persistent edge@hub(src, dst);
    collection extensional persistent bridge@hub(src, dst);
    collection intensional reach@hub(src, dst);
    rule reach@hub($x, $y) :- edge@hub($x, $y);
    rule reach@hub($x, $y) :- bridge@hub($x, $y);
    rule reach@hub($x, $z) :- reach@hub($x, $y), edge@hub($y, $z);
    rule reach@hub($x, $z) :- reach@hub($x, $y), bridge@hub($y, $z);
    """

    def watched_reach(self, query):
        """``guest`` may read ``edge`` only; an observer of ``reach`` that
        records what it was told, beside the view's own answer."""
        deployment = (system().provenance()
                      .peer("hub").program(self.TC_PROGRAM).grant("edge", "guest")
                      .build())
        view = deployment.query("hub", query, viewer="guest")
        held, events = set(), []

        def added(fact):
            events.append(("add", fact.values))
            held.add(fact.values)

        def removed(fact):
            events.append(("remove", fact.values))
            held.discard(fact.values)

        view.on_change(added, removed)
        return deployment, view, held, events

    @pytest.mark.parametrize("query", ["reach", "ans($x, $y) :- reach@hub($x, $y)"])
    def test_on_change_follows_a_lineage_change_in_both_directions(self, query):
        # Regression: a new derivation through bridge@hub leaves reach(a, b)
        # visible — no visible delta names it — while the viewer loses it;
        # the observer used to keep holding it.
        deployment, view, held, events = self.watched_reach(query)
        hub = deployment.peer("hub")
        hub.insert('edge@hub("a", "b")')
        deployment.converge()
        assert held == set(view.rows()) == {("a", "b")}
        hub.insert('bridge@hub("a", "b")')
        deployment.converge()
        assert view.rows() == ()
        assert held == set() and events[-1] == ("remove", ("a", "b"))
        # The converse: the bridge goes, reach(a, b) stays visible and is
        # readable again — a visible, undelivered fact that becomes readable.
        hub.delete('bridge@hub("a", "b")')
        deployment.converge()
        assert held == set(view.rows()) == {("a", "b")}
        assert events == [("add", ("a", "b")), ("remove", ("a", "b")),
                          ("add", ("a", "b"))]

    def test_on_change_follows_lineage_through_recursion(self):
        deployment, view, held, _ = self.watched_reach("reach")
        hub = deployment.peer("hub")
        for edge in (("a", "b"), ("b", "c"), ("c", "d")):
            hub.insert(f'edge@hub("{edge[0]}", "{edge[1]}")')
        deployment.converge()
        assert held == set(view.rows()) and ("a", "d") in held
        # A bridge parallel to b -> c taints every pair reaching through it.
        hub.insert('bridge@hub("b", "c")')
        deployment.converge()
        assert held == set(view.rows()) == {("a", "b"), ("c", "d")}
        hub.delete('bridge@hub("b", "c")')
        deployment.converge()
        assert held == set(view.rows()) and len(held) == 6

    def test_builder_grants_and_declassification(self):
        deployment = (system()
                      .peer("q").program(Q_PROGRAM).grant("a", "bob")
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        # Without provenance the degenerate view checks the relation grant.
        view = deployment.peer("q").query("a", viewer="bob")
        assert sorted(view.rows()) == [(1,), (2,), (3,)]
        assert deployment.query("q", "a", viewer="eve").facts() == ()

    def test_streaming_respects_the_viewer(self):
        # Every shape of handle streams through the viewer's filter: a
        # single-relation handle, a compiled view and an aggregate view.
        deployment = (system()
                      .provenance()
                      .peer("q").program(Q_PROGRAM).grant("a", "bob")
                      .peer("r").program(R_PROGRAM)
                      .build())
        seed(deployment)
        q = deployment.peer("q")
        plain = deployment.query("q", "a", viewer="bob")
        assert sorted(f.values for f in plain.iter_facts()) == [(1,), (2,), (3,)]
        assert list(deployment.query("q", "a", viewer="eve").iter_facts()) == []
        assert list(deployment.query("q", "c", viewer="bob").iter_facts()) == []

        joined = q.query("ans($x, $p) :- a@q($x), score@q($x, $p)", viewer="bob")
        q.insert("score@q(1, 7)")
        assert list(joined.iter_facts()) == []        # score@q is not granted
        q.grant("score", "bob")
        q.insert("score@q(3, 9)")
        assert [f.values for f in joined.iter_facts()] == [(1, 7), (3, 9)]
        q.insert("a@q(4)")
        q.insert("score@q(4, 2)")
        streamed = [f.values for f in joined.iter_facts()]
        assert streamed[:2] == [(1, 7), (3, 9)] and streamed[2:] == [(4, 2)]

        counted = q.query("n(count($x)) :- a@q($x)", viewer="bob")
        assert [f.values for f in counted.iter_facts()] == [(4,)]
        hidden = q.query("n(count($x)) :- a@q($x)", viewer="eve")
        assert list(hidden.iter_facts()) == []


class TestStandingViewsCostWhatChanged:
    """A conference hub with twelve pages open over ten cycles of uploads,
    ratings, hides and retractions.  Kept open, each page answers exactly
    what re-opening it every cycle answers, for a fifth of the work or less.
    The ratio is measured under the default planner: written-order bodies
    re-open a page for 4.5 times the work, not 12."""

    USERS, PICTURES, RATINGS, CYCLES = 6, 40, 120, 10

    def pages(self):
        users = [f"user{index % self.USERS:02d}" for index in range(12)]
        shapes = [
            'picks($id, $n) :- rate@w("{u}", $id, 5), pictures@w($id, $n, $o)',
            'wall($id, $n, $o) :- pictures@w($id, $n, $o), rate@w("{u}", $id, $s), '
            'not hidden@w($id)',
            'agree($id, $v) :- rate@w("{u}", $id, $s), rate@w($v, $id, $s)',
            'agree($id, $v) :- rate@w("{u}", $id, $s), rate@w($v, $id, $s)',
            "board($id, avg($s), count($s)) :- rate@w($u, $id, $s)",
            "profile($u, min($s), max($s), count($s)) :- rate@w($u, $id, $s)",
        ]
        return [shapes[index % 6].format(u=user) for index, user in enumerate(users)]

    def picture(self, number):
        return f'pictures@w({number}, "p{number}.jpg", "user{number % self.USERS:02d}")'

    def deployment(self):
        builder = system().peer("w").program("""
        collection extensional persistent pictures@w(id, name, owner);
        collection extensional persistent rate@w(user, id, stars);
        collection extensional persistent hidden@w(id);
        """)
        for index in range(self.USERS):
            builder.peer(f"user{index:02d}")
        deployment = builder.build()
        for number in range(self.PICTURES):
            deployment.peer("w").insert(self.picture(number))
        for index in range(self.RATINGS):
            user = f"user{index % self.USERS:02d}"
            deployment.peer(user).insert(
                f'rate@w("{user}", {index % self.PICTURES}, {index % 5 + 1})')
        deployment.converge()
        return deployment

    def churn(self, deployment, cycle):
        hub = deployment.peer("w")
        newest = self.PICTURES + cycle
        hub.insert(self.picture(newest))
        for offset in range(2):
            user = f"user{(cycle + offset) % self.USERS:02d}"
            deployment.peer(user).insert(
                f'rate@w("{user}", {(cycle * 3 + offset) % newest}, '
                f'{(cycle + offset) % 5 + 1})')
        if cycle % 6 == 2:
            hub.insert(f"hidden@w({cycle})")
        if cycle % 6 == 5:
            hub.delete(f"hidden@w({cycle - 3})")
            hub.delete(self.picture(newest - 3))
        deployment.converge()

    @staticmethod
    def work(deployment):
        return sum(peer.engine.metrics["core", "substitutions_explored"]
                   for peer in deployment.runtime.peers.values())

    def test_standing_pages_answer_as_reopened_ones_for_a_fifth_of_the_work(self):
        standing = self.deployment()
        views = [standing.query("w", page) for page in self.pages()]
        standing.converge()
        reopened = self.deployment()
        before = self.work(standing), self.work(reopened)
        for cycle in range(1, self.CYCLES + 1):
            self.churn(standing, cycle)
            self.churn(reopened, cycle)
            for view, page in zip(views, self.pages()):
                with reopened.query("w", page) as fresh:
                    reopened.converge()
                    assert sorted(fresh.rows()) == sorted(view.rows())
        kept = self.work(standing) - before[0]
        assert self.work(reopened) - before[1] >= 5 * kept
