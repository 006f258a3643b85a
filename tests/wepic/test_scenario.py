"""Tests of the Figure-2 demo scenario builder."""

import pytest

from repro.core.facts import Fact
from repro.wepic.scenario import build_demo_scenario


class TestScenarioConstruction:
    def test_default_topology_matches_figure_2(self, demo_scenario):
        names = demo_scenario.api.peer_names()
        assert set(names) == {"Emilien", "Jules", "sigmod", "SigmodFB"}
        assert demo_scenario.attendees() == ("Emilien", "Jules")
        # Every attendee is registered at the sigmod peer.
        registered = {f.values[0] for f in demo_scenario.sigmod_peer.query("attendees")}
        assert registered == {"Emilien", "Jules"}

    def test_attendees_have_libraries_and_rules(self, demo_scenario):
        for name in demo_scenario.attendees():
            app = demo_scenario.app(name)
            assert len(app.local_pictures()) == 2
            assert len(app.installed_rules()) >= 3

    def test_facebook_accounts_and_membership(self, demo_scenario):
        assert set(demo_scenario.facebook.users()) >= {"Emilien", "Jules"}
        assert demo_scenario.facebook.group_members("sigmod") == ("Emilien", "Jules")

    def test_without_facebook(self):
        scenario = build_demo_scenario(with_facebook=False, pictures_per_attendee=1)
        assert "SigmodFB" not in scenario.api.peer_names()
        summary = scenario.api.converge(max_steps=60)
        assert summary.converged

    def test_custom_attendee_list(self):
        scenario = build_demo_scenario(attendees=("Alice", "Bob", "Carol"),
                                       pictures_per_attendee=1)
        assert scenario.attendees() == ("Alice", "Bob", "Carol")


class TestScenarioDynamics:
    def test_pictures_published_to_sigmod(self, demo_scenario):
        demo_scenario.api.converge(max_steps=60)
        published = demo_scenario.sigmod_pictures()
        assert len(published) == 4  # 2 attendees x 2 pictures

    def test_upload_propagates_to_sigmod(self, demo_scenario):
        demo_scenario.api.converge(max_steps=60)
        emilien = demo_scenario.app("Emilien")
        emilien.upload_picture(name="new.jpg", picture_id=77)
        demo_scenario.api.converge(max_steps=60)
        names = {f.values[1] for f in demo_scenario.sigmod_pictures()}
        assert "new.jpg" in names

    def test_no_publication_when_disabled(self):
        scenario = build_demo_scenario(pictures_per_attendee=1, publish_to_sigmod=False)
        scenario.api.converge(max_steps=60)
        assert scenario.sigmod_pictures() == ()

    def test_add_attendee_at_runtime(self, demo_scenario):
        demo_scenario.api.converge(max_steps=60)
        newcomer = demo_scenario.add_attendee("Julia", pictures=2)
        demo_scenario.api.converge(max_steps=60)
        assert "Julia" in demo_scenario.api.peer_names()
        assert len(newcomer.local_pictures()) == 2
        registered = {f.values[0] for f in demo_scenario.sigmod_peer.query("attendees")}
        assert "Julia" in registered
        # The newcomer can immediately use the delegation-based view.
        newcomer.select_attendee("Emilien")
        demo_scenario.api.converge(max_steps=60)
        assert newcomer.attendee_pictures()

    def test_control_delegation_scenario(self, controlled_scenario):
        """Delegations between attendees need explicit approval (Figure 3)."""
        jules = controlled_scenario.app("Jules")
        emilien = controlled_scenario.app("Emilien")
        jules.select_attendee("Emilien")
        controlled_scenario.api.converge(max_steps=60)
        # Jules is untrusted at Emilien, so the delegations (one per Jules rule
        # whose body reaches Emilien) are pending, and the view stays empty.
        assert jules.attendee_pictures() == ()
        pending = emilien.pending_delegations()
        assert len(pending) >= 1
        assert all(p.delegator == "Jules" for p in pending)
        # Approve the delegation behind the attendee-pictures rule.
        pictures_delegation = [
            p for p in pending
            if p.rule.head.relation_constant() == "attendeePictures"
        ]
        assert len(pictures_delegation) == 1
        emilien.approve_delegation(pictures_delegation[0].delegation_id)
        controlled_scenario.api.converge(max_steps=60)
        assert len(jules.attendee_pictures()) == 2

    def test_rejected_delegation_never_installs(self, controlled_scenario):
        jules = controlled_scenario.app("Jules")
        emilien = controlled_scenario.app("Emilien")
        jules.select_attendee("Emilien")
        controlled_scenario.api.converge(max_steps=60)
        for pending in emilien.pending_delegations():
            emilien.reject_delegation(pending.delegation_id)
        controlled_scenario.api.converge(max_steps=60)
        assert jules.attendee_pictures() == ()
        # No delegation from Jules was installed (delegations from the trusted
        # sigmod peer, e.g. the Facebook-publication rule, are unaffected).
        from_jules = [d for d in emilien.peer.installed_delegations()
                      if d.delegator == "Jules"]
        assert from_jules == []

    def test_facebook_publication_requires_authorization(self, demo_scenario):
        demo_scenario.api.converge(max_steps=60)
        assert demo_scenario.facebook.photos_in_group("sigmod") == ()
        emilien = demo_scenario.app("Emilien")
        emilien.authorize_all_facebook()
        demo_scenario.api.converge(max_steps=60)
        group_photos = demo_scenario.facebook.photos_in_group("sigmod")
        assert len(group_photos) == 2
        assert all(photo.owner == "Emilien" for photo in group_photos)

    def test_facebook_comments_flow_back_to_sigmod(self, demo_scenario):
        emilien = demo_scenario.app("Emilien")
        emilien.authorize_all_facebook()
        demo_scenario.api.converge(max_steps=60)
        photo = demo_scenario.facebook.photos_in_group("sigmod")[0]
        demo_scenario.facebook.add_comment(photo.photo_id, "Jules", "nice")
        demo_scenario.facebook.add_tag(photo.photo_id, "Julia")
        demo_scenario.api.converge(max_steps=60)
        comments = demo_scenario.sigmod_peer.query("comments")
        tags = demo_scenario.sigmod_peer.query("tags")
        assert any("nice" in f.values for f in comments)
        assert any("Julia" in f.values for f in tags)
