"""Tests of the wrapper classes bridging services and WebdamLog relations."""

import pytest

from repro.core.facts import Fact
from repro.runtime.peer import Peer
from repro.runtime.system import WebdamLogSystem
from repro.wrappers.base import PseudoPeerWrapper, RelationWatchingWrapper, Wrapper
from repro.wrappers.dropbox import DropboxService, DropboxWrapper
from repro.wrappers.email import EmailService, EmailWrapper
from repro.wrappers.facebook import (
    FacebookGroupWrapper,
    FacebookService,
    FacebookUserWrapper,
)


class TestFacebookUserWrapper:
    def test_exports_friends_and_pictures(self):
        service = FacebookService()
        service.add_user("Emilien")
        service.add_user("Jules")
        service.add_friendship("Emilien", "Jules")
        service.post_photo("Emilien", "sea.jpg", "0101")

        system = WebdamLogSystem()
        fb_peer = system.add_peer("EmilienFB")
        wrapper = FacebookUserWrapper(service, "Emilien", peer_name="EmilienFB")
        fb_peer.attach_wrapper(wrapper)
        system.step()

        friends = fb_peer.query("friends")
        pictures = fb_peer.query("pictures")
        assert friends == (Fact("friends", "EmilienFB", ("Emilien", "Jules")),)
        assert len(pictures) == 1
        assert pictures[0].values[1] == "Emilien"

    def test_rules_can_read_wrapper_relations(self):
        service = FacebookService()
        service.add_user("Emilien")
        service.add_user("Jules")
        service.add_friendship("Emilien", "Jules")

        system = WebdamLogSystem()
        fb_peer = system.add_peer("EmilienFB")
        fb_peer.attach_wrapper(FacebookUserWrapper(service, "Emilien", peer_name="EmilienFB"))
        me = system.add_peer("Emilien")
        me.add_rule("friendNames@Emilien($f) :- friends@EmilienFB($me, $f)")
        system.converge()
        assert me.query("friendNames") == (Fact("friendNames", "Emilien", ("Jules",)),)


class TestFacebookGroupWrapper:
    def test_photos_posted_into_group_become_facts(self):
        service = FacebookService()
        service.add_user("Emilien")
        service.create_group("sigmod")
        service.join_group("sigmod", "Emilien")
        service.post_photo("Emilien", "sea.jpg", "0101", group="sigmod")

        system = WebdamLogSystem()
        group = system.add_peer("SigmodFB")
        group.attach_wrapper(FacebookGroupWrapper(service, "sigmod", peer_name="SigmodFB"))
        system.step()
        assert len(group.query("pictures")) == 1

    def test_facts_inserted_by_peers_are_posted_to_group(self):
        service = FacebookService()
        system = WebdamLogSystem()
        group = system.add_peer("SigmodFB")
        group.attach_wrapper(FacebookGroupWrapper(service, "sigmod", peer_name="SigmodFB"))
        publisher = system.add_peer("sigmod")
        publisher.insert_fact(Fact("pictures", "SigmodFB", (5, "sea.jpg", "Emilien", "01")))
        system.converge()
        photos = service.photos_in_group("sigmod")
        assert len(photos) == 1
        assert photos[0].owner == "Emilien"

    def test_comments_and_tags_exported(self):
        service = FacebookService()
        service.add_user("Emilien")
        service.create_group("sigmod")
        service.join_group("sigmod", "Emilien")
        photo = service.post_photo("Emilien", "sea.jpg", "0", group="sigmod")
        service.add_comment(photo.photo_id, "Jules", "great")
        service.add_tag(photo.photo_id, "Julia")

        system = WebdamLogSystem()
        group = system.add_peer("SigmodFB")
        group.attach_wrapper(FacebookGroupWrapper(service, "sigmod", peer_name="SigmodFB"))
        system.step()
        assert len(group.query("comments")) == 1
        assert len(group.query("tags")) == 1


class TestEmailWrapper:
    def test_facts_in_email_relation_are_sent(self):
        service = EmailService()
        peer = Peer("Jules")
        peer.attach_wrapper(EmailWrapper(service))
        peer.insert_fact(Fact("email", "Jules", ("Emilien", "sea.jpg", 1, "Jules")))
        peer.run_stage()
        assert service.sent_count == 1
        inbox = service.inbox("Emilien@wepic.example")
        assert len(inbox) == 1
        assert "sea.jpg" in inbox[0].body
        # The outbox relation is consumed.
        assert peer.query("email") == ()

    def test_each_fact_sent_exactly_once(self):
        service = EmailService()
        peer = Peer("Jules")
        peer.attach_wrapper(EmailWrapper(service))
        peer.insert_fact(Fact("email", "Jules", ("Emilien", "a.jpg", 1, "Jules")))
        peer.run_stage()
        peer.run_stage()
        assert service.sent_count == 1

    def test_explicit_address_kept(self):
        service = EmailService()
        peer = Peer("Jules")
        peer.attach_wrapper(EmailWrapper(service, sender_address="jules@conference.org"))
        peer.insert_fact(Fact("email", "Jules", ("emilien@inria.fr", "a.jpg", 1, "Jules")))
        peer.run_stage()
        message = service.inbox("emilien@inria.fr")[0]
        assert message.sender == "jules@conference.org"


class TestDropboxWrapper:
    def test_service_files_become_facts(self):
        service = DropboxService()
        service.upload("Jules", "/photos/sea.jpg", "sea.jpg", 64)
        system = WebdamLogSystem()
        box = system.add_peer("JulesDropbox")
        box.attach_wrapper(DropboxWrapper(service, "Jules", peer_name="JulesDropbox"))
        system.step()
        files = box.query("files")
        assert files == (Fact("files", "JulesDropbox", ("/photos/sea.jpg", "sea.jpg", 64)),)

    def test_facts_pushed_back_to_service(self):
        service = DropboxService()
        system = WebdamLogSystem()
        box = system.add_peer("JulesDropbox")
        box.attach_wrapper(DropboxWrapper(service, "Jules", peer_name="JulesDropbox"))
        uploader = system.add_peer("Jules")
        uploader.insert_fact(Fact("files", "JulesDropbox", ("/backup/a.jpg", "a.jpg", 12)))
        system.converge()
        assert service.get("Jules", "/backup/a.jpg") is not None


class TestWrapperBase:
    def test_base_wrapper_hooks_are_noops(self):
        wrapper = Wrapper()
        peer = Peer("alice")
        peer.attach_wrapper(wrapper)
        assert wrapper.peer is peer
        wrapper.before_stage(peer)
        wrapper.after_stage(peer, None)

    def test_pseudo_peer_wrapper_requires_overrides(self):
        wrapper = PseudoPeerWrapper()
        with pytest.raises(NotImplementedError):
            wrapper.service_facts()
        with pytest.raises(NotImplementedError):
            wrapper.push_to_service(Fact("r", "p", ()))

    def test_relation_watching_wrapper_requires_handle_fact(self):
        wrapper = RelationWatchingWrapper()
        with pytest.raises(NotImplementedError):
            wrapper.handle_fact(None, Fact("r", "p", ()))
