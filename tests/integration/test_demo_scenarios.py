"""End-to-end reproduction of the four demonstration scenarios of Section 4.

Each test walks through one of the scenarios the demo presents to the SIGMOD
audience, asserting the observable outcome the paper describes.
"""

import random

import pytest

from repro.core.facts import Fact
from repro.wepic.scenario import build_demo_scenario


class TestInteractionViaFacebook:
    """Section 4, 'Interaction via Facebook'."""

    def test_upload_propagates_to_sigmod_then_to_facebook_group(self):
        scenario = build_demo_scenario(pictures_per_attendee=0)
        emilien = scenario.app("Emilien")
        # Émilien uploads a photo and authorises its Facebook publication.
        picture = emilien.upload_picture(name="keynote.jpg", picture_id=1)
        emilien.authorize_facebook(picture)
        scenario.api.converge(max_steps=60)
        # ... it is published to pictures@sigmod ...
        sigmod_names = {f.values[1] for f in scenario.sigmod_pictures()}
        assert "keynote.jpg" in sigmod_names
        # ... and propagated to pictures@SigmodFB (the Facebook group).
        group_photos = scenario.facebook.photos_in_group("sigmod")
        assert [p.name for p in group_photos] == ["keynote.jpg"]
        assert group_photos[0].owner == "Emilien"

    def test_unauthorized_pictures_stay_off_facebook(self):
        scenario = build_demo_scenario(pictures_per_attendee=0)
        emilien = scenario.app("Emilien")
        emilien.upload_picture(name="private.jpg", picture_id=2)
        scenario.api.converge(max_steps=60)
        assert {f.values[1] for f in scenario.sigmod_pictures()} == {"private.jpg"}
        assert scenario.facebook.photos_in_group("sigmod") == ()

    def test_facebook_content_flows_back_without_facebook_account(self):
        """Any Wepic user sees SigmodFB pictures via the sigmod peer."""
        scenario = build_demo_scenario(pictures_per_attendee=0)
        # A photo posted directly on Facebook by some member...
        scenario.facebook.add_user("Gerome")
        scenario.facebook.join_group("sigmod", "Gerome")
        scenario.facebook.post_photo("Gerome", "banquet.jpg", "1100", group="sigmod")
        scenario.api.converge(max_steps=60)
        # ...reaches the sigmod peer, from which any attendee can read it.
        names = {f.values[1] for f in scenario.sigmod_pictures()}
        assert "banquet.jpg" in names
        jules = scenario.app("Jules")
        jules.select_attendee("sigmod")
        scenario.api.converge(max_steps=60)
        assert "banquet.jpg" in {p.name for p in jules.attendee_pictures()}


class TestCustomizingRules:
    """Section 4, 'Customizing rules'."""

    def test_rating_filter_changes_the_attendee_pictures_frame(self):
        scenario = build_demo_scenario(pictures_per_attendee=3)
        jules = scenario.app("Jules")
        emilien = scenario.app("Emilien")
        pictures = emilien.local_pictures()
        emilien.rate_picture(pictures[0].picture_id, 5)
        emilien.rate_picture(pictures[1].picture_id, 4)
        jules.select_attendee("Emilien")
        scenario.api.converge(max_steps=60)
        assert len(jules.attendee_pictures()) == 3
        jules.restrict_to_rating(5)
        scenario.api.converge(max_steps=60)
        assert [p.picture_id for p in jules.attendee_pictures()] == [pictures[0].picture_id]
        ui_summary = scenario.ui("Jules").summary()
        assert ui_summary["attendee_pictures"] == 1


class TestControlOfDelegation:
    """Section 4, 'Illustration of the control of delegation'."""

    def test_emilien_installs_a_rule_at_jules_after_approval(self):
        scenario = build_demo_scenario(pictures_per_attendee=1, control_delegation=True)
        jules = scenario.app("Jules")
        emilien = scenario.app("Emilien")
        # Let the initial setup (including the trusted sigmod peer's own
        # delegations) settle before measuring Jules' installed program.
        scenario.api.converge(max_steps=60)
        rules_before = len(jules.peer.engine.state.all_rules())
        # Émilien writes a rule whose body lives at Jules' peer: evaluating it
        # requires installing a delegation at Jules.
        emilien.add_rule("julesPictureNames@Emilien($n) :- pictures@Jules($i, $n, $o, $d)")
        scenario.api.converge(max_steps=60)
        # The delegation is pending, not installed; Émilien sees nothing yet.
        assert emilien.peer.query("julesPictureNames") == ()
        pending = jules.pending_delegations()
        assert len(pending) == 1
        assert pending[0].delegator == "Emilien"
        # Jules approves: his program changes and Émilien's view fills up.
        jules.approve_delegation(pending[0].delegation_id)
        scenario.api.converge(max_steps=60)
        assert len(jules.peer.engine.state.all_rules()) == rules_before + 1
        assert len(emilien.peer.query("julesPictureNames")) == 1


class TestInteractionViaTheWeb:
    """Section 4, 'Interaction via the Web' (audience peers joining)."""

    def test_new_peers_join_and_use_all_features(self):
        scenario = build_demo_scenario(pictures_per_attendee=1)
        scenario.api.converge(max_steps=60)
        audience = [scenario.add_attendee(f"Guest{i}", pictures=1) for i in range(3)]
        scenario.api.converge(max_steps=60)
        assert len(scenario.api) == 4 + 3  # 2 attendees + sigmod + FB + guests
        # Every guest is registered at the sigmod peer.
        registered = {f.values[0] for f in scenario.sigmod_peer.query("attendees")}
        assert {"Guest0", "Guest1", "Guest2"} <= registered
        # A guest selects an original attendee and sees their pictures.
        guest = audience[0]
        guest.select_attendee("Emilien")
        scenario.api.converge(max_steps=60)
        assert {p.owner for p in guest.attendee_pictures()} == {"Emilien"}
        # And guests' own uploads reach the sigmod peer too.
        owners_at_sigmod = {f.values[2] for f in scenario.sigmod_pictures()}
        assert {"Guest0", "Guest1", "Guest2"} <= owners_at_sigmod


class TestWorkloadDrivenScenario:
    def test_generated_workload_converges_and_views_are_consistent(self):
        attendees = ("Emilien", "Jules", "Julia", "Serge")
        scenario = build_demo_scenario(attendees=attendees, pictures_per_attendee=3)
        rng = random.Random(5)
        pictures = [p for library in scenario.libraries.values()
                    for p in library.pictures]
        selections = {}
        for attendee in attendees:
            app = scenario.app(attendee)
            others = [p for p in pictures if p.owner != attendee]
            for picture in rng.sample(others, 3):
                app.rate_picture(picture.picture_id, rng.randint(1, 5),
                                 owner=picture.owner)
            selections[attendee] = rng.sample(
                [name for name in attendees if name != attendee], 2)
            for other in selections[attendee]:
                app.select_attendee(other)
        summary = scenario.api.converge(max_steps=80)
        assert summary.converged
        # Every attendee's view equals the pictures of the attendees they selected.
        for attendee in attendees:
            expected = {p.picture_id for other in selections[attendee]
                        for p in scenario.libraries[other].pictures}
            got = {p.picture_id for p in scenario.app(attendee).attendee_pictures()}
            assert got == expected


def _peer_ring(peers, pictures, publish_to_sigmod=False):
    names = [f"peer{i}" for i in range(peers)]
    scenario = build_demo_scenario(attendees=names, pictures_per_attendee=pictures,
                                   with_facebook=False,
                                   publish_to_sigmod=publish_to_sigmod)
    return scenario, names


class TestQualitativeShapes:
    """The shapes the paper argues for, asserted as counts (never as timings)."""

    @pytest.mark.parametrize("attendees", [2, 4, 8])
    def test_delegations_grow_with_the_selection_not_the_data(self, attendees):
        """Figure 1: one attendeePictures delegation per selected attendee."""
        scenario, names = _peer_ring(attendees, pictures=4)
        viewer = scenario.app(names[0])
        for other in names[1:]:
            viewer.select_attendee(other)
        scenario.api.converge(max_steps=80)
        assert len(viewer.attendee_pictures()) == 4 * (attendees - 1)
        # One delegation per selected attendee per Wepic rule whose body
        # reaches them: attendeePictures, attendeeRatings and the transfer rule.
        assert scenario.api.totals()["installed_delegations"] == 3 * (attendees - 1)
        picture_delegations = sum(
            1 for name in names
            for d in scenario.app(name).peer.installed_delegations()
            if d.rule.head.relation_constant() == "attendeePictures")
        assert picture_delegations == attendees - 1

    def test_propagation_rounds_do_not_depend_on_the_upload_count(self):
        """Figure 2: the Émilien → sigmod → SigmodFB pipeline depth fixes the
        round count; uploads batch per stage."""
        rounds = {}
        for uploads in (1, 20):
            scenario = build_demo_scenario(pictures_per_attendee=0)
            emilien = scenario.app("Emilien")
            scenario.api.converge(max_steps=60)
            for index in range(uploads):
                emilien.authorize_facebook(
                    emilien.upload_picture(picture_id=1000 + index))
            rounds[uploads] = scenario.api.converge(max_steps=100).round_count
            assert len(scenario.sigmod_pictures()) == uploads
            assert len(scenario.facebook.photos_in_group("sigmod")) == uploads
        assert rounds[20] <= rounds[1] + 1

    def test_exactly_the_authorised_pictures_reach_the_facebook_group(self):
        scenario = build_demo_scenario(attendees=("Emilien", "Jules", "Julia"),
                                       pictures_per_attendee=4)
        rng = random.Random(17)
        authorised = 0
        for attendee, library in scenario.libraries.items():
            for picture in library.pictures:
                if rng.random() < 0.5:
                    scenario.app(attendee).authorize_facebook(picture)
                    authorised += 1
        scenario.api.converge(max_steps=100)
        assert 0 < authorised < 12
        assert len(scenario.facebook.photos_in_group("sigmod")) == authorised
        assert len(scenario.sigmod_pictures()) == 12

    def test_each_rule_swap_retracts_and_reinstalls_the_delegation(self):
        """'Customizing rules', repeated: every swap replaces the delegation
        installed at the selected attendee (never stacks a second one), and
        the frame comes back whole."""
        scenario = build_demo_scenario(attendees=("Emilien", "Jules"),
                                       pictures_per_attendee=8,
                                       with_facebook=False, publish_to_sigmod=False)
        jules = scenario.app("Jules")
        emilien = scenario.app("Emilien")
        jules.select_attendee("Emilien")

        def installed_bodies():
            scenario.api.converge(max_steps=40)
            return [len(d.rule.body) for d in emilien.peer.installed_delegations()
                    if d.rule.head.relation_constant() == "attendeePictures"]

        (plain,) = installed_bodies()
        for _ in range(3):
            jules.restrict_to_rating(5)
            assert installed_bodies() == [plain + 1]  # + the rate@$owner literal
            jules.reset_attendee_pictures_rule()
            assert installed_bodies() == [plain]
        assert len(jules.attendee_pictures()) == 8

    def test_convergence_depth_is_flat_in_the_peer_count(self):
        """All-to-all selection: messages grow with the selected pairs, the
        rounds to convergence do not."""
        rounds = {}
        for peers in (2, 8):
            scenario, names = _peer_ring(peers, pictures=2)
            for name in names:
                for other in names:
                    if other != name:
                        scenario.app(name).select_attendee(other)
            rounds[peers] = scenario.api.converge(max_steps=120).round_count
            for name in names:
                assert len(scenario.app(name).attendee_pictures()) == (peers - 1) * 2
        assert abs(rounds[2] - rounds[8]) <= 1

    def test_selective_delegation_moves_less_data_than_centralising(self):
        """The introduction's argument: with one attendee of seven selected,
        delegation ships well under half of what publishing everything to a
        central peer does, for the same view."""
        scenario, names = _peer_ring(8, pictures=4)
        viewer = scenario.app(names[0])
        viewer.select_attendee(names[1])
        scenario.api.converge(max_steps=100)
        delegated_view = len(viewer.attendee_pictures())
        delegated_payload = scenario.api.stats.payload_items

        scenario, names = _peer_ring(8, pictures=4, publish_to_sigmod=True)
        sigmod = scenario.sigmod_peer
        sigmod.insert_fact(Fact("selectedAttendee", "sigmod", (names[1],)))
        sigmod.add_rule("attendeeView@sigmod($id, $n, $a, $d) :- "
                        "selectedAttendee@sigmod($a), pictures@sigmod($id, $n, $a, $d)")
        scenario.api.converge(max_steps=100)
        assert delegated_view == len(sigmod.query("attendeeView")) == 4
        assert delegated_payload * 2 < scenario.api.stats.payload_items
