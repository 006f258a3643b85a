"""What a wrapper may rely on under the default (work-driven) driver.

The driver runs a stage only at a peer with something to do, so a wrapper is
no longer polled just for being attached: it says when it needs a poll
(``wants_stage``).  These tests pin the contract from the wrapper's side —
external changes still surface, writes still reach the service, refusals are
still observable — and from the driver's: a wrapper that cannot answer is
polled every cycle, one that has nothing to do costs no stage at all.
"""

from repro.core.facts import Fact
from repro.runtime.system import WebdamLogSystem
from repro.wepic.scenario import build_demo_scenario
from repro.wrappers.dropbox import DropboxService, DropboxWrapper
from repro.wrappers.facebook import FacebookGroupWrapper, FacebookService

from tests.runtime.test_scheduler import build_ping_pong


def stages_of(summary, peer):
    return [report.peer_reports[peer] for report in summary.rounds
            if peer in report.peer_reports]


class TestServiceChangesSurface:
    def test_delegated_picture_reaches_facebook_in_the_same_converge(self):
        scenario = build_demo_scenario(pictures_per_attendee=1)
        scenario.run()
        assert scenario.facebook.photo_count() == 0
        app = scenario.app("Emilien")
        picture = app.upload_picture(name="beach.jpg", picture_id=77)
        app.authorize_facebook(picture)
        assert scenario.api.converge().converged
        posted = scenario.facebook.photos_in_group("sigmod")
        assert [(p.photo_id, p.name, p.owner) for p in posted] == \
            [(picture.picture_id, "beach.jpg", "Emilien")]

    def test_comment_added_outside_surfaces_on_the_next_converge(self):
        scenario = build_demo_scenario(pictures_per_attendee=1)
        app = scenario.app("Emilien")
        picture = app.local_pictures()[0]
        app.authorize_facebook(picture)
        scenario.run()
        assert scenario.group_peer.query("comments") == ()
        # Nothing but the service changes between the two converges.
        scenario.facebook.add_comment(picture.picture_id, "Jules", "great shot")
        assert scenario.api.converge().converged
        expected = (picture.picture_id, "Jules", "great shot")
        assert [f.values for f in scenario.group_peer.query("comments")] == [expected]
        # ... and the sigmod peer's retrieval rule carried it on.
        assert [f.values for f in scenario.sigmod_peer.query("comments")] == [expected]

    def test_dropbox_upload_outside_surfaces_on_the_next_converge(self):
        service = DropboxService()
        system = WebdamLogSystem()
        box = system.add_peer("JulesDropbox")
        box.attach_wrapper(DropboxWrapper(service, "Jules", peer_name="JulesDropbox"))
        system.converge()
        assert box.query("files") == ()
        service.upload("Jules", "/photos/sea.jpg", "sea.jpg", 64)
        assert system.converge().converged
        assert box.query("files") == (
            Fact("files", "JulesDropbox", ("/photos/sea.jpg", "sea.jpg", 64)),)

    def test_unchanged_service_costs_no_stage(self):
        service = DropboxService()
        service.upload("Jules", "/photos/sea.jpg", "sea.jpg", 64)
        system = WebdamLogSystem()
        box = system.add_peer("JulesDropbox")
        box.attach_wrapper(DropboxWrapper(service, "Jules", peer_name="JulesDropbox"))
        system.converge()
        summary = system.converge()
        assert summary.converged and summary.total_stages() == 0


class TestRefusedWrite:
    def test_refused_write_is_dropped_from_the_relation(self):
        service = FacebookService()
        service.add_user("Mallory")          # has an account, is not a member
        system = WebdamLogSystem()
        group = system.add_peer("SigmodFB")
        group.attach_wrapper(FacebookGroupWrapper(
            service, "sigmod", peer_name="SigmodFB", require_membership=True))
        publisher = system.add_peer("sigmod")
        publisher.insert_fact(Fact("pictures", "SigmodFB", (5, "x.jpg", "Mallory", "01")))
        assert system.converge().converged
        assert service.photos_in_group("sigmod") == ()
        assert group.query("pictures") == ()


class CountingWrapper:
    """A third-party wrapper written before ``wants_stage`` existed."""

    def __init__(self):
        self.polls = 0

    def before_stage(self, peer):
        self.polls += 1


class TestDriverSide:
    def test_wrapper_without_wants_stage_is_polled_every_cycle(self):
        system = build_ping_pong()
        bystander = system.add_peer("legacy")
        wrapper = CountingWrapper()
        bystander.attach_wrapper(wrapper)
        summary = system.converge()
        assert summary.converged and summary.round_count > 2
        assert wrapper.polls == summary.round_count
        assert len(stages_of(summary, "legacy")) == summary.round_count

    def test_email_only_peer_is_not_staged_and_a_transfer_sends_one_email(self):
        scenario = build_demo_scenario(attendees=("Emilien", "Jules", "Julia"),
                                       pictures_per_attendee=1)
        for name in ("Emilien", "Jules", "Julia"):
            scenario.app(name).set_protocol("email")
        scenario.run()
        assert scenario.email.sent_count == 0
        sender = scenario.app("Jules")
        sender.select_attendee("Emilien")
        sender.select_picture_for_transfer(sender.local_pictures()[0])
        summary = scenario.api.converge()
        assert summary.converged
        assert scenario.email.sent_count == 1
        assert scenario.email.inbox_size("Emilien@wepic.example") == 1
        # Julia hosts an EmailWrapper and received nothing: no stage at all.
        assert stages_of(summary, "Julia") == []
        # Emilien ran only when something reached the peer or its engine
        # (under causal replication also while an ack is outstanding: the
        # digest timer counts the peer's own stages).
        if scenario.system.peer("Emilien").replication is None:
            for stage in stages_of(summary, "Emilien"):
                assert (stage.delivered_messages
                        or stage.stage_result.evaluation_path != "skip")
        # Once delivered, nothing is left to do anywhere.
        again = scenario.api.converge()
        assert again.total_stages() == 0 and scenario.email.sent_count == 1
