"""Tests of the WepicApp, ranking and the headless UI."""

import pytest

from repro.core.facts import Fact
from repro.wepic.pictures import generate_picture
from repro.wepic.ranking import collect_ratings, rank_pictures
from repro.wepic.scenario import build_demo_scenario
from repro.wepic.ui import WepicUI


class TestUploadAndView:
    def test_upload_and_local_pictures(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        before = len(jules.local_pictures())
        uploaded = jules.upload_picture(name="custom.jpg", picture_id=500)
        assert uploaded.owner == "Jules"
        assert len(jules.local_pictures()) == before + 1
        assert jules.remove_picture(uploaded.picture_id) == 1
        assert len(jules.local_pictures()) == before

    def test_select_and_view_attendee_pictures(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        jules.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        pictures = jules.attendee_pictures()
        assert pictures
        assert all(p.owner == "Emilien" for p in pictures)
        assert jules.selected_attendees() == ("Emilien",)
        jules.deselect_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        assert jules.attendee_pictures() == ()

    def test_selecting_multiple_attendees_merges_views(self):
        scenario = build_demo_scenario(attendees=("Emilien", "Jules", "Julia"),
                                       pictures_per_attendee=1)
        julia = scenario.app("Julia")
        julia.select_attendee("Emilien")
        julia.select_attendee("Jules")
        scenario.api.converge(max_steps=60)
        owners = {p.owner for p in julia.attendee_pictures()}
        assert owners == {"Emilien", "Jules"}


class TestTransfer:
    def test_email_transfer(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        emilien.set_protocol("email")
        jules.select_attendee("Emilien")
        jules.select_picture_for_transfer(jules.local_pictures()[0])
        demo_scenario.api.converge(max_steps=60)
        assert demo_scenario.email.sent_count >= 1

    def test_wepic_transfer_lands_in_wepic_relation(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        emilien.set_protocol("wepic")
        jules.select_attendee("Emilien")
        picture = jules.local_pictures()[0]
        jules.select_picture_for_transfer(picture)
        demo_scenario.api.converge(max_steps=60)
        received = emilien.received_transfers()
        assert any(picture.name in fact.values for fact in received)

    def test_clear_transfer_selection(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        jules.select_picture_for_transfer(jules.local_pictures()[0])
        jules.clear_transfer_selection()
        assert jules.peer.query("selectedPictures") == ()


class TestAnnotationsAndRanking:
    def test_rating_pushed_to_owner(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        target = emilien.local_pictures()[0]
        jules.rate_picture(target.picture_id, 5, owner="Emilien")
        demo_scenario.api.converge(max_steps=60)
        owner_side = [r for r in emilien.ratings() if r.picture_id == target.picture_id]
        assert owner_side and owner_side[0].value == 5

    def test_comment_and_tag(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        target = emilien.local_pictures()[0]
        jules.comment_picture(target.picture_id, "great shot", owner="Emilien")
        jules.tag_picture(target.picture_id, "Julia", owner="Emilien")
        demo_scenario.api.converge(max_steps=60)
        assert emilien.peer.query("comment")
        assert emilien.peer.query("tag")

    def test_gathered_ratings_view(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        target = emilien.local_pictures()[0]
        emilien.rate_picture(target.picture_id, 4)
        jules.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        gathered = jules.gathered_ratings()
        assert Fact("attendeeRatings", "Jules", (target.picture_id, 4)) in gathered

    def test_ranked_attendee_pictures(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        pictures = emilien.local_pictures()
        emilien.rate_picture(pictures[0].picture_id, 5)
        emilien.rate_picture(pictures[1].picture_id, 2)
        jules.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        ranking = jules.ranked_attendee_pictures()
        assert ranking[0].picture.picture_id == pictures[0].picture_id
        assert ranking[0].average_rating == 5.0


class TestRankingHelpers:
    def make_pictures(self):
        return [generate_picture("Emilien", index=i) for i in (1, 2, 3)]

    def test_collect_ratings(self):
        facts = [Fact("rate", "p", (1, 5)), Fact("rate", "q", (1, 3)), Fact("rate", "p", (2, 4))]
        assert collect_ratings(facts) == {1: [5, 3], 2: [4]}

    def test_rank_orders_by_average(self):
        pictures = self.make_pictures()
        facts = [Fact("rate", "p", (1, 3)), Fact("rate", "p", (2, 5)), Fact("rate", "p", (3, 4))]
        ranking = rank_pictures(pictures, facts)
        assert [r.picture.picture_id for r in ranking] == [2, 3, 1]

    def test_unrated_pictures_at_bottom_or_dropped(self):
        pictures = self.make_pictures()
        facts = [Fact("rate", "p", (1, 4))]
        with_unrated = rank_pictures(pictures, facts)
        assert len(with_unrated) == 3
        assert with_unrated[0].picture.picture_id == 1
        without = rank_pictures(pictures, facts, include_unrated=False)
        assert len(without) == 1

    def test_min_rating_threshold(self):
        pictures = self.make_pictures()
        facts = [Fact("rate", "p", (1, 2)), Fact("rate", "p", (2, 5))]
        ranking = rank_pictures(pictures, facts, min_rating=4.0)
        assert [r.picture.picture_id for r in ranking] == [2]

    def test_top_pictures(self):
        pictures = self.make_pictures()
        facts = [Fact("rate", "p", (i, i + 2)) for i in (1, 2, 3)]
        top = rank_pictures(pictures, facts)[:2]
        assert len(top) == 2
        assert top[0].picture.picture_id == 3


class TestRuleCustomisation:
    def test_rating_filter_changes_attendee_pictures_frame(self, demo_scenario):
        """The paper's 'Customizing rules' scenario."""
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        pictures = emilien.local_pictures()
        emilien.rate_picture(pictures[0].picture_id, 5)
        emilien.rate_picture(pictures[1].picture_id, 3)
        jules.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        assert len(jules.attendee_pictures()) == 2
        # Customise: only pictures rated 5 by their owner.
        jules.restrict_to_rating(5)
        demo_scenario.api.converge(max_steps=60)
        filtered = jules.attendee_pictures()
        assert [p.picture_id for p in filtered] == [pictures[0].picture_id]
        # Restore the original rule.
        jules.reset_attendee_pictures_rule()
        demo_scenario.api.converge(max_steps=60)
        assert len(jules.attendee_pictures()) == 2

    def test_owner_filter(self):
        scenario = build_demo_scenario(attendees=("Emilien", "Jules", "Julia"),
                                       pictures_per_attendee=1)
        julia = scenario.app("Julia")
        julia.select_attendee("Emilien")
        julia.select_attendee("Jules")
        julia.restrict_to_owner("Emilien")
        scenario.api.converge(max_steps=60)
        owners = {p.owner for p in julia.attendee_pictures()}
        assert owners == {"Emilien"}

    def test_add_custom_rule(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        rule = jules.add_rule("ownerNames@Jules($o) :- pictures@Jules($i, $n, $o, $d)")
        demo_scenario.api.converge(max_steps=60)
        assert rule in jules.installed_rules()
        assert jules.peer.query("ownerNames")

    def test_rule_id_lookup(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        assert jules.rule_id("attendee_pictures")
        with pytest.raises(KeyError):
            jules.rule_id("nonexistent")


class TestUI:
    def test_frames_reflect_state(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        jules.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        ui = WepicUI(jules)
        summary = ui.summary()
        assert summary["my_pictures"] == len(jules.local_pictures())
        assert summary["selected_attendees"] == 1
        assert summary["attendee_pictures"] == len(jules.attendee_pictures())
        assert summary["rules"] >= 3

    def test_render_contains_all_frames(self, demo_scenario):
        ui = demo_scenario.ui("Jules")
        text = ui.render()
        for title in ("My pictures", "Selected attendees", "Attendee pictures",
                      "Ranked pictures", "Program of Jules", "Delegated rules",
                      "Pending delegations"):
            assert title in text

    def test_empty_frame_rendering(self, demo_scenario):
        ui = demo_scenario.ui("Jules")
        frame = ui.pending_delegations_frame()
        assert "(empty)" in frame.render()


class TestLiveViewPages:
    def test_rating_summary_view_is_a_standing_aggregate(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        jules.select_attendee("Emilien")
        view = jules.rating_summary_view()
        demo_scenario.api.converge(max_steps=60)
        assert view.rows() == ()
        emilien.rate_picture(1, 5)
        emilien.rate_picture(1, 3)
        demo_scenario.api.converge(max_steps=60)
        assert view.rows() == ((1, 4.0, 2),)
        # Standing: the same handle keeps tracking later churn.
        emilien.rate_picture(2, 4)
        demo_scenario.api.converge(max_steps=60)
        assert sorted(view.rows()) == [(1, 4.0, 2), (2, 4.0, 1)]
        # The factory caches the open view.
        assert jules.rating_summary_view() is view

    def test_wall_view_filters_by_owner_and_rating(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        jules.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        wall = jules.wall_view(owner="Emilien")
        demo_scenario.api.converge(max_steps=60)
        assert sorted(row[0] for row in wall.rows()) == [1, 2]
        rated = jules.wall_view(owner="Emilien", rating=5)
        jules.rate_picture(2, 5)
        demo_scenario.api.converge(max_steps=60)
        assert sorted(rated.rows()) == [(2, "keynote-2.jpg")]

    def test_close_views_uninstalls_everything(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        rules_before = len(jules.peer.rules())
        jules.rating_summary_view()
        jules.wall_view(owner="Emilien")
        assert len(jules.peer.rules()) == rules_before + 2
        assert jules.close_views() == 2
        assert len(jules.peer.rules()) == rules_before
        assert jules.close_views() == 0

    def test_ui_frames_render_the_live_views(self, demo_scenario):
        jules = demo_scenario.app("Jules")
        emilien = demo_scenario.app("Emilien")
        jules.select_attendee("Emilien")
        ui = demo_scenario.ui("Jules")
        # No view opened yet: the frames render empty (and stay read-only).
        assert ui.rating_summary_frame().lines == []
        assert ui.filtered_wall_frame("Emilien").lines == []
        jules.rating_summary_view()
        jules.wall_view(owner="Emilien")
        emilien.rate_picture(3, 5)
        demo_scenario.api.converge(max_steps=60)
        assert ui.rating_summary_frame().lines == \
            ["picture 3: 5.00 stars (1 ratings)"]
        assert ui.filtered_wall_frame("Emilien").lines
        assert "Rating summary (live view)" in ui.render()

    def test_rendering_never_mutates_the_program(self, demo_scenario):
        # Regression: drawing the UI must not install rules — the Rules tab
        # on the same screen would otherwise show internal view rules the
        # user never wrote.
        jules = demo_scenario.app("Jules")
        ui = demo_scenario.ui("Jules")
        rules_before = [r.rule_id for r in jules.peer.rules()]
        ui.render()
        ui.frames()
        ui.summary()
        ui.filtered_wall_frame("Emilien")
        assert [r.rule_id for r in jules.peer.rules()] == rules_before
