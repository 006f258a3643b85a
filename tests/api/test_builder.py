"""Builder round-trips: what the chain declares is what the system runs."""

import pytest

from repro.api import BuildError, PeerHandle, System, system
from repro.core.facts import Fact
from repro.core.schema import RelationKind, RelationSchema
from repro.wrappers.email import EmailService, EmailWrapper

QUICKSTART_JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $n) :-
    selectedAttendee@Jules($a), pictures@$a($id, $n);
"""

QUICKSTART_EMILIEN = """
collection extensional persistent pictures@Emilien(id, name);
fact pictures@Emilien(1, "sea.jpg");
fact pictures@Emilien(2, "boat.jpg");
"""


class TestPeerRoundTrips:
    def test_programs_rules_and_facts_reach_the_peers(self):
        built = (system()
                 .peer("Jules").program(QUICKSTART_JULES)
                 .peer("Emilien").program(QUICKSTART_EMILIEN)
                 .build())
        assert isinstance(built, System)
        assert built.peer_names() == ("Emilien", "Jules")
        assert len(built.peer("Jules").rules()) == 1
        assert built.peer("Emilien").query("pictures").facts() != ()
        built.converge()
        assert sorted(built.query("Jules", "attendeePictures").rows()) == [
            (1, "sea.jpg"), (2, "boat.jpg"),
        ]

    def test_schema_fact_and_rule_builders(self):
        schema = RelationSchema(name="friends", peer="alice", columns=("name",),
                                kind=RelationKind.EXTENSIONAL, persistent=True)
        built = (system()
                 .peer("alice")
                 .schema(schema)
                 .fact(Fact("friends", "alice", ("bob",)))
                 .rule("buddies@alice($x) :- friends@alice($x)")
                 .build())
        built.converge()
        assert built.query("alice", "buddies").rows() == (("bob",),)

    def test_trusts_round_trip(self):
        built = (system()
                 .auto_accept_delegations(False)
                 .peer("alice").trusts("bob", "carol")
                 .peer("bob")
                 .build())
        trust = built.peer("alice").unwrap().controller.trust
        assert trust.is_trusted("bob") and trust.is_trusted("carol")
        assert not built.peer("bob").unwrap().controller.trust.is_trusted("alice")

    def test_default_trusted_applies_to_every_peer(self):
        built = (system()
                 .default_trusted("sigmod")
                 .peer("alice")
                 .peer("bob")
                 .build())
        for name in ("alice", "bob"):
            assert built.peer(name).unwrap().controller.trust.is_trusted("sigmod")

    def test_wrapper_round_trip(self):
        service = EmailService()
        wrapper = EmailWrapper(service)
        built = system().peer("alice").wrapper(wrapper).build()
        assert wrapper in built.peer("alice").unwrap().wrappers

    def test_control_delegation_queues_untrusted_rules(self):
        built = (system()
                 .auto_accept_delegations(False)
                 .peer("Jules").program(QUICKSTART_JULES)
                 .peer("Emilien").program(QUICKSTART_EMILIEN)
                 .build())
        built.converge()
        # Émilien has not approved Jules' delegation: the view stays empty.
        assert len(built.query("Jules", "attendeePictures")) == 0
        pending = built.peer("Emilien").pending_delegations()
        assert len(pending) == 1
        built.peer("Emilien").approve_all_delegations("Jules")
        built.converge()
        assert len(built.query("Jules", "attendeePictures")) == 2


class TestTrustDecidesWhoInstallsADelegation:
    """Trust is the one delegation-acceptance setting: Jules' view rule
    delegates to Emilien, and Emilien's trust store alone decides."""

    @staticmethod
    def deploy(builder, configure_emilien):
        builder.peer("Jules").program(QUICKSTART_JULES)
        configure_emilien(builder.peer("Emilien").program(QUICKSTART_EMILIEN))
        built = builder.build()
        built.converge()
        return built

    def test_by_default_a_delegation_from_any_peer_installs(self):
        built = self.deploy(system(), lambda emilien: emilien)
        assert len(built.peer("Emilien").installed_delegations()) == 1
        assert built.peer("Emilien").pending_delegations() == ()
        assert len(built.query("Jules", "attendeePictures")) == 2

    def test_a_trust_all_peer_installs_at_once_under_control(self):
        built = self.deploy(system().auto_accept_delegations(False),
                            lambda emilien: emilien.trust_all())
        assert len(built.peer("Emilien").installed_delegations()) == 1
        assert built.peer("Emilien").pending_delegations() == ()
        assert len(built.query("Jules", "attendeePictures")) == 2

    def test_a_peer_trusting_someone_else_queues_the_delegation(self):
        built = self.deploy(system().auto_accept_delegations(False),
                            lambda emilien: emilien.trusts("sigmod"))
        assert built.peer("Emilien").installed_delegations() == ()
        (pending,) = built.peer("Emilien").pending_delegations()
        assert pending.delegator == "Jules"
        assert len(built.query("Jules", "attendeePictures")) == 0

    def test_the_system_default_trusts_past_a_peers_own_list(self):
        built = self.deploy(system(), lambda emilien: emilien.trusts("sigmod"))
        assert len(built.peer("Emilien").installed_delegations()) == 1
        assert built.peer("Emilien").pending_delegations() == ()

    def test_a_peer_trusting_the_delegator_installs_at_once_under_control(self):
        built = self.deploy(system().auto_accept_delegations(False),
                            lambda emilien: emilien.trusts("Jules"))
        assert len(built.peer("Emilien").installed_delegations()) == 1
        assert len(built.query("Jules", "attendeePictures")) == 2

    def test_a_system_wide_trusted_delegator_installs_under_control(self):
        built = self.deploy(
            system().auto_accept_delegations(False).default_trusted("Jules"),
            lambda emilien: emilien)
        assert len(built.peer("Emilien").installed_delegations()) == 1
        assert len(built.query("Jules", "attendeePictures")) == 2

    def test_a_peer_trusting_no_one_queues_under_control(self):
        built = self.deploy(system().auto_accept_delegations(False),
                            lambda emilien: emilien)
        assert built.peer("Emilien").installed_delegations() == ()
        (pending,) = built.peer("Emilien").pending_delegations()
        assert pending.delegator == "Jules"

    def test_an_approved_delegation_installs_and_feeds_the_view(self):
        built = self.deploy(system().auto_accept_delegations(False),
                            lambda emilien: emilien)
        emilien = built.peer("Emilien")
        (pending,) = emilien.pending_delegations()
        emilien.approve_delegation(pending.delegation_id)
        built.converge()
        assert emilien.pending_delegations() == ()
        assert len(emilien.installed_delegations()) == 1
        assert len(built.query("Jules", "attendeePictures")) == 2


class TestChainErgonomics:
    def test_done_returns_the_system_builder(self):
        builder = system()
        assert builder.peer("alice").done() is builder

    def test_duplicate_peer_is_rejected(self):
        builder = system().peer("alice").done()
        with pytest.raises(BuildError):
            builder.peer("alice")

    def test_named_inmemory_transport_takes_latency_and_loss(self):
        built = (system().transport("inmemory", latency=3, drop_probability=0.25,
                                    seed=9)
                 .peer("alice").build())
        transport = built.runtime.transport
        assert (transport.latency, transport.drop_probability) == (3, 0.25)

    def test_default_transport_is_one_round_and_lossless(self):
        from repro.api import InMemoryTransport

        transport = system().peer("alice").build().runtime.transport
        assert isinstance(transport, InMemoryTransport)
        assert (transport.latency, transport.drop_probability) == (1, 0.0)

    def test_explicit_transport_conflicts_with_latency_knobs(self):
        from repro.api import InMemoryTransport

        with pytest.raises(BuildError):
            system().transport(InMemoryTransport(), latency=5)

    def test_named_transport_rejects_unknown_options(self):
        builder = system().transport("inmemory", latncy=5).peer("a").done()
        with pytest.raises(BuildError, match="latncy"):
            builder.build()

    def test_build_from_peer_scope(self):
        built = system().peer("alice").peer("bob").build()
        assert built.peer_names() == ("alice", "bob")


class TestFacade:
    def test_add_peer_at_runtime_returns_handle(self):
        built = system().peer("alice").build()
        handle = built.add_peer("bob")
        assert isinstance(handle, PeerHandle)
        assert "bob" in built and len(built) == 2

    def test_peer_handle_is_cached(self):
        built = system().peer("alice").build()
        assert built.peer("alice") is built.peer("alice")

    def test_handle_insert_delete_and_query(self):
        built = system().peer("alice").program(
            "collection extensional persistent notes@alice(text);"
        ).build()
        alice = built.peer("alice")
        alice.insert('notes@alice("hello")')
        view = alice.query("notes")
        assert view.rows() == (("hello",),)
        alice.delete('notes@alice("hello")')
        assert view.rows() == ()

    def test_totals_and_stats_exposed(self):
        built = (system()
                 .peer("Jules").program(QUICKSTART_JULES)
                 .peer("Emilien").program(QUICKSTART_EMILIEN)
                 .build())
        summary = built.converge()
        assert summary.converged
        assert built.stats.messages_sent > 0
        assert built.metrics()["runtime", "peers"] == 2
