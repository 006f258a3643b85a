"""Delegations as data: a delegation is one binding fact of a per-shape
template, so installing and retracting one edits no program.

The receiver holds one template per shape (delegator, rule, split point,
target, located values); each delegation is a fact of the template's binding
relation.  These tests pin what that changes — no rule installed by an
upload or a re-selection, a retract and re-install as a fact delete and
insert, bindings that survive a reopen at both ends — and what it must not
change: trust per delegation, what a user sees, the answers.
"""

from repro.acl.trust import TrustStore
from repro.api import system
from repro.core.delegation import binding_relation, is_binding
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.replication.dots import Op
from repro.runtime.messages import DeltaEnvelopeMessage, FactMessage
from repro.runtime.peer import Peer
from repro.wepic import build_demo_scenario

PROGRAM_EDITS = ("core", "program_edits")


def edits(deployment) -> int:
    """Every peer's program edits (ProgramAnalysis rebuilds), summed."""
    return deployment.metrics()[PROGRAM_EDITS]


def bindings_at(deployment, peer):
    """The binding facts installed at ``peer``."""
    return sorted(deployment.runtime.peer(peer).engine.state.bindings.all_facts(), key=str)


class TestAnUploadInstallsNoRule:
    def test_uploads_and_reselections_after_setup_edit_no_program(self):
        scenario = build_demo_scenario(pictures_per_attendee=2)
        api = scenario.api
        jules, emilien = scenario.app("Jules"), scenario.app("Emilien")
        # Set-up: every shape meets its first binding once.
        emilien.authorize_facebook(emilien.upload_picture(name="first.jpg", picture_id=50))
        jules.select_attendee("Emilien")
        api.converge()
        selected = len(api.runtime.peer("Emilien").installed_delegations())
        jules.deselect_attendee("Emilien")
        api.converge()
        before = edits(api)

        picture = emilien.upload_picture(name="second.jpg", picture_id=51)
        emilien.authorize_facebook(picture)
        jules.select_attendee("Emilien")
        api.converge()

        assert edits(api) == before
        assert "second.jpg" in {p.name for p in jules.attendee_pictures()}
        assert "second.jpg" in {p.name for p in scenario.facebook.photos_in_group("sigmod")}
        # The re-selection's bindings and one more Facebook binding, as facts.
        assert len(api.runtime.peer("Emilien").installed_delegations()) == selected + 1


SCHEMAS = """
collection extensional persistent sel@a(p, y);
collection intensional pics@a(x);
rule pics@a($x) :- sel@a($p, $y), pic@$p($x, $y);
"""


def pair(**options):
    builder = system()
    if options.get("durable"):
        builder = builder.storage("sqlite", path=options["durable"])
    trust = options.get("trust", True)
    return (builder.auto_accept_delegations(trust)
            .peer("a").program(SCHEMAS)
            .peer("b").program("""
            collection extensional persistent pic@b(x, y);
            fact pic@b(1, 10); fact pic@b(2, 20); fact pic@b(3, 10);
            """)
            .build())


class TestShapes:
    def test_a_location_bound_shape(self):
        """``$p`` names the peer: its value is part of the shape, so the
        template reads ``pic@b`` (no variable location), and ``$y`` is the
        binding."""
        deployment = pair()
        a = deployment.peer("a")
        a.insert("sel@a(\"b\", 10)")
        a.insert("sel@a(\"b\", 20)")
        deployment.converge()
        (held,) = deployment.runtime.peer("b").engine.state.delegations_in.active()
        template = held.rule
        assert [atom.peer_constant() for atom in template.body] == ["b", "b"]
        assert template.body[0].relation_constant() == binding_relation(held.delegation_id)
        assert [b.values for b in bindings_at(deployment, "b")] == [(10,), (20,)]
        assert {f.values for f in deployment.query("a", "pics").facts()} == {
            (1,), (2,), (3,)}
        # Shown as the rules they stand for.
        shown = sorted(str(d.rule) for d in deployment.peer("b").installed_delegations())
        assert shown == ["pics@a($x) :- pic@b($x, 10)", "pics@a($x) :- pic@b($x, 20)"]

    def test_a_retract_then_reinstall_is_a_fact_delete_then_insert(self):
        deployment = pair()
        a = deployment.peer("a")
        a.insert("sel@a(\"b\", 10)")
        deployment.converge()
        engine = deployment.runtime.peer("b").engine
        changes = []
        feed_relation = bindings_at(deployment, "b")[0].relation
        store = engine.state.bindings
        insert, delete = store.insert, store.delete

        def recording(kind, write):
            def wrapped(fact):
                if is_binding(fact.relation):
                    changes.append((kind, fact.values))
                return write(fact)
            return wrapped

        store.insert, store.delete = recording("insert", insert), recording("delete", delete)
        before = edits(deployment)
        a.delete("sel@a(\"b\", 10)")
        deployment.converge()
        assert deployment.query("a", "pics").facts() == ()
        a.insert("sel@a(\"b\", 10)")
        deployment.converge()
        assert changes == [("delete", (10,)), ("insert", (10,))]
        assert edits(deployment) == before
        assert bindings_at(deployment, "b")[0].relation == feed_relation
        assert {f.values for f in deployment.query("a", "pics").facts()} == {(1,), (3,)}


class TestTrustStaysPerDelegation:
    def test_an_untrusted_binding_waits_shown_as_its_rule_then_installs(self):
        deployment = pair(trust=False)
        a, b = deployment.peer("a"), deployment.peer("b")
        a.insert("sel@a(\"b\", 10)")
        deployment.converge()
        (pending,) = b.pending_delegations()
        assert pending.describe() == "a wants to install: pics@a($x) :- pic@b($x, 10)"
        assert pending.delegation_id.startswith("deleg-")
        assert b.installed_delegations() == ()
        assert bindings_at(deployment, "b") == []
        assert deployment.query("a", "pics").facts() == ()

        b.approve_delegation(pending.delegation_id)
        deployment.converge()
        assert b.pending_delegations() == ()
        (installed,) = b.installed_delegations()
        assert installed.delegation_id == pending.delegation_id
        assert {f.values for f in deployment.query("a", "pics").facts()} == {(1,), (3,)}

        # A second binding of the now active template waits on its own.
        a.insert("sel@a(\"b\", 20)")
        deployment.converge()
        (second,) = b.pending_delegations()
        assert str(second.rule) == "pics@a($x) :- pic@b($x, 20)"
        b.reject_delegation(second.delegation_id)
        deployment.converge()
        assert {f.values for f in deployment.query("a", "pics").facts()} == {(1,), (3,)}


class TestDurableBindings:
    def test_a_durable_delegator_and_receiver_reopen_with_their_bindings(self, tmp_path):
        deployment = pair(durable=str(tmp_path))
        deployment.peer("a").insert("sel@a(\"b\", 10)")
        deployment.converge()
        held = bindings_at(deployment, "b")
        out = deployment.runtime.peer("a").engine.state.delegation_tracker.outstanding()
        assert [d.binding for d in out] == held
        deployment.close()

        reopened = pair(durable=str(tmp_path))
        assert bindings_at(reopened, "b") == held
        assert [d.binding for d in reopened.runtime.peer("a").engine.state
                .delegation_tracker.outstanding()] == held
        assert len(reopened.peer("b").installed_delegations()) == 1
        reopened.converge()
        assert {f.values for f in reopened.query("a", "pics").facts()} == {(1,), (3,)}
        # The delegator's program no longer derives it: the reopened
        # delegator retracts what the dead process sent.
        reopened.peer("a").delete("sel@a(\"b\", 10)")
        reopened.converge()
        assert bindings_at(reopened, "b") == []
        assert reopened.query("a", "pics").facts() == ()
        reopened.close()

        again = pair(durable=str(tmp_path))
        assert bindings_at(again, "b") == []
        assert again.peer("b").installed_delegations() == ()
        again.close()

    def test_rebuilding_with_its_programs_holds_each_rule_once(self, tmp_path):
        """Building the chain again over the stored path loads the programs
        into restored peers: each rule they name is one the store holds, so
        the peers hold what a fresh build holds.  A copy added on purpose
        stays a copy."""
        fresh = pair()
        expected = {name: fresh.peer(name).rules() for name in ("a", "b")}
        deployment = pair(durable=str(tmp_path))
        deployment.peer("a").insert("sel@a(\"b\", 10)")
        deployment.converge()
        deployment.close()

        reopened = pair(durable=str(tmp_path))
        assert {name: reopened.peer(name).rules() for name in ("a", "b")} == expected
        reopened.converge()
        assert {f.values for f in reopened.query("a", "pics").facts()} == {(1,), (3,)}
        reopened.peer("a").load_program(SCHEMAS)
        twice = reopened.peer("a").rules()
        assert [rule.rule_id for rule in twice] == [
            expected["a"][0].rule_id, expected["a"][0].rule_id + "#2"]
        reopened.close()

        again = pair(durable=str(tmp_path))
        assert again.peer("a").rules() == twice
        again.close()

    def test_the_bindings_are_rows_not_meta_records(self, tmp_path):
        deployment = pair(durable=str(tmp_path))
        deployment.peer("a").insert("sel@a(\"b\", 10)")
        deployment.converge()
        backend_a = deployment.runtime.peer("a").engine.state.backend
        backend_b = deployment.runtime.peer("b").engine.state.backend
        for backend in (backend_a, backend_b):
            assert backend.load_meta("delegation") == []
            assert backend.load_meta("delegated") == []
        assert len(backend_b.load_meta("template")) == 1
        assert Fact in {type(f) for f in bindings_at(deployment, "b")}
        deployment.close()


class TestTheMemoryBackendWritesNoDelegationRecord:
    def test_install_and_retract_write_no_meta_row(self):
        deployment = pair()
        backend = deployment.runtime.peer("b").engine.state.backend
        saved = []
        save = backend.save_meta

        def recording(kind, key, payload):
            saved.append(kind)
            return save(kind, key, payload)

        backend.save_meta = recording
        deployment.peer("a").insert("sel@a(\"b\", 10)")
        deployment.converge()
        deployment.peer("a").delete("sel@a(\"b\", 10)")
        deployment.converge()
        assert "template" not in saved and "delegation" not in saved


class TestABindingBeforeItsTemplate:
    def test_it_waits_at_the_peer_until_the_template_comes(self):
        """On a reordering channel a binding can overtake its template: it
        waits at the receiving peer, and installs when the template comes."""
        peer = Peer("b", trust=TrustStore("b", trust_all=True), replication=True)
        peer.load_program("collection extensional persistent pic@b(x, y);\n"
                          "fact pic@b(1, 10);")
        template = parse_rule(
            "pics@a($x) :- _bind_s1@b($y), pic@b($x, $y)", default_peer="b", author="a")
        binding = Fact(binding_relation("s1"), "b", (10,))
        peer.deliver(DeltaEnvelopeMessage(sender="a", recipient="b", frontier=2,
                                          ops=(Op(seq=2, kind="bind", fact=binding),)))
        peer.run_stage()
        assert peer.installed_delegations() == ()
        peer.deliver(DeltaEnvelopeMessage(
            sender="a", recipient="b", frontier=2,
            ops=(Op(seq=1, kind="delegate", delegation_id="s1", rule=template),)))
        result, _ = peer.run_stage()
        (installed,) = peer.installed_delegations()
        assert str(installed.rule) == "pics@a($x) :- pic@b($x, 10)"
        assert [str(f) for u in result.outgoing_updates for f in u.inserted] == [
            "pics@a(1)"]


class TestAShapeIsItsDelegatorsAlone:
    def test_an_untrusted_template_under_a_trusted_shape_changes_no_rule(self):
        """Another peer's template under a held shape's name is not taken:
        the program keeps the trusted rule, and the forged peer's binding of
        it installs nothing."""
        peer = Peer("b", trust=TrustStore("b", trusted=("a",)))
        peer.load_program("collection extensional persistent pic@b(x, y);\n"
                          "collection extensional persistent secret@b(x, y);\n"
                          "fact pic@b(1, 10); fact secret@b(7, 10);")
        template = parse_rule(
            "pics@a($x) :- _bind_s1@b($y), pic@b($x, $y)", default_peer="b", author="a")
        forged = parse_rule(
            "pics@a($x) :- _bind_s1@b($y), secret@b($x, $y)", default_peer="b", author="m")
        binding = Fact(binding_relation("s1"), "b", (10,))
        peer.deliver(FactMessage(sender="a", recipient="b", installs=(("s1", template, ()),),
                                 bound=(binding,)))
        peer.run_stage()
        rules = peer.rules()
        peer.deliver(FactMessage(sender="m", recipient="b", installs=(("s1", forged, ()),),
                                 bound=(Fact(binding_relation("s1"), "b", (11,)),)))
        result, _ = peer.run_stage()
        assert peer.rules() == rules
        held = peer.engine.state.delegations_in.get("s1")
        assert (held.delegator, held.rule) == ("a", template)
        assert list(peer.engine.state.bindings.all_facts()) == [binding]
        assert peer.pending_delegations() == ()
        assert [str(f) for u in result.outgoing_updates for f in u.inserted] == []
        # Nor may the forged peer retire it.
        peer.deliver(FactMessage(sender="m", recipient="b", retracts=("s1",)))
        peer.run_stage()
        assert peer.engine.state.delegations_in.is_active("s1")

    def test_another_peers_rule_under_the_shape_does_not_stand_for_its_template(self):
        """A rule delivered whole under a held, unbound shape's name is
        refused when the stage consumes it, so it must not spare the
        delegator's next binding the activation of its own template."""
        peer = Peer("b", trust=TrustStore("b", trust_all=True))
        peer.load_program("collection extensional persistent pic@b(x, y);\n"
                          "fact pic@b(1, 10);")
        template = parse_rule(
            "pics@a($x) :- _bind_s1@b($y), pic@b($x, $y)", default_peer="b", author="a")
        peer.deliver(FactMessage(sender="a", recipient="b", installs=(("s1", template, ()),)))
        whole = parse_rule("pics@a($x) :- pic@b($x, 10)", default_peer="b", author="m")
        peer.deliver(FactMessage(sender="m", recipient="b", installs=(("s1", whole, ()),)))
        peer.deliver(FactMessage(sender="a", recipient="b",
                                 bound=(Fact(binding_relation("s1"), "b", (10,)),)))
        result, _ = peer.run_stage()
        held = peer.engine.state.delegations_in.get("s1")
        assert (held.delegator, held.rule) == ("a", template)
        (installed,) = peer.installed_delegations()
        assert str(installed.rule) == "pics@a($x) :- pic@b($x, 10)"
        assert [str(f) for u in result.outgoing_updates for f in u.inserted] == ["pics@a(1)"]

    def test_a_parked_binding_waits_for_its_own_senders_template(self):
        peer = Peer("b", trust=TrustStore("b", trust_all=True), replication=True)
        peer.load_program("collection extensional persistent pic@b(x, y);\n"
                          "fact pic@b(1, 10);")
        binding = Fact(binding_relation("s1"), "b", (10,))
        peer.deliver(DeltaEnvelopeMessage(sender="x", recipient="b", frontier=2,
                                          ops=(Op(seq=2, kind="bind", fact=binding),)))
        peer.run_stage()
        other = parse_rule(
            "pics@y($x) :- _bind_s1@b($y), pic@b($x, $y)", default_peer="b", author="y")
        peer.deliver(DeltaEnvelopeMessage(
            sender="y", recipient="b", frontier=1,
            ops=(Op(seq=1, kind="delegate", delegation_id="s1", rule=other),)))
        result, _ = peer.run_stage()
        assert peer.installed_delegations() == ()
        assert peer.engine.state.delegations_in.is_active("s1") is False
        assert result.outgoing_updates == []


def reopen(path):
    """The durable pair of :func:`pair` as it was stored, built without
    its programs: what the store holds and nothing else."""
    return (system().storage("sqlite", path=path).auto_accept_delegations(True)
            .peer("a").peer("b").build())


def replaced(deployment):
    """Replace ``a``'s delegating rule by one that delegates another shape."""
    handle = deployment.peer("a")
    (rule,) = handle.rules()
    handle.replace_rule(rule.rule_id, "pics@a($x) :- sel@a($p, $y), pic@$p($y, $x)")


class TestARuleThatGoesRetiresItsTemplates:
    def test_a_template_whose_bindings_went_earlier(self):
        """The binding goes while the rule is live (the template stays);
        the rule is replaced later: the receiver holds no template, and its
        program is a fresh peer's."""
        deployment = pair()
        a = deployment.peer("a")
        a.insert("sel@a(\"b\", 10)")
        deployment.converge()
        a.delete("sel@a(\"b\", 10)")
        deployment.converge()
        receiver = deployment.runtime.peer("b").engine
        (held,) = receiver.state.delegations_in.active()
        replaced(deployment)
        deployment.converge()
        assert receiver.state.delegations_in.active() == ()
        assert held.delegation_id not in receiver.state.delegations_in
        fresh = pair().runtime.peer("b").engine
        assert receiver.rules() == fresh.rules()
        assert receiver.state.delegation_tracker.outstanding() == ()
        assert deployment.runtime.peer("a").engine.state.delegation_tracker._templates == {}

    def test_a_template_whose_bindings_went_before_a_reopen(self, tmp_path):
        deployment = pair(durable=str(tmp_path))
        a = deployment.peer("a")
        a.insert("sel@a(\"b\", 10)")
        deployment.converge()
        a.delete("sel@a(\"b\", 10)")
        deployment.converge()
        deployment.close()

        reopened = reopen(str(tmp_path))
        reopened.converge()
        backend_b = reopened.runtime.peer("b").engine.state.backend
        assert len(backend_b.load_meta("template")) == 1
        replaced(reopened)
        reopened.converge()
        assert reopened.runtime.peer("b").engine.state.delegations_in.active() == ()
        assert backend_b.load_meta("template") == []
        reopened.close()

        again = reopen(str(tmp_path))
        assert again.runtime.peer("b").engine.state.delegations_in.active() == ()
        assert again.runtime.peer("a").engine.state.delegation_tracker._templates == {}
        again.close()
