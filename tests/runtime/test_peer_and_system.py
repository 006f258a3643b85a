"""Tests of the runtime peer and the system orchestrator."""


import pytest


from repro.acl.trust import TrustStore
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema
from repro.replication.dots import Op
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.messages import (
    DeltaEnvelopeMessage,
    FactMessage,
)
from repro.runtime.peer import Peer
from repro.runtime.system import WebdamLogSystem
from repro.store.backend import StoreError
from repro.store.memory import MemoryBackend


class TestPeerMessageDispatch:
    # These tests pin the raw wire format (one FactMessage per recipient per
    # stage, delegations inside it) of a peer built without causal replication; with it stage outputs travel as
    # delta envelopes instead (covered by tests/replication).

    def test_fact_message_reaches_engine(self):
        peer = Peer("alice")
        peer.deliver(FactMessage(sender="bob", recipient="alice",
                                 inserted=frozenset({Fact("r", "alice", (1,))})))
        peer.run_stage()
        assert peer.query("r") == (Fact("r", "alice", (1,)),)

    def test_delegation_install_auto_accept(self):
        peer = Peer("alice", trust=TrustStore("alice", trust_all=True))
        rule = parse_rule("v@bob($x) :- r@alice($x)", author="bob")
        peer.deliver(FactMessage(sender="bob", recipient="alice",
                                 installs=(("d1", rule, ()),)))
        peer.run_stage()
        assert len(peer.installed_delegations()) == 1

    def test_delegation_install_pending_for_untrusted(self):
        peer = Peer("alice")
        rule = parse_rule("v@bob($x) :- r@alice($x)", author="bob")
        peer.deliver(FactMessage(sender="bob", recipient="alice",
                                 installs=(("d1", rule, ()),)))
        peer.run_stage()
        assert len(peer.installed_delegations()) == 0
        assert len(peer.pending_delegations()) == 1
        peer.approve_delegation("d1")
        peer.run_stage()
        assert len(peer.installed_delegations()) == 1

    def test_delegation_schemas_declared_on_install(self):
        peer = Peer("alice", trust=TrustStore("alice", trust_all=True))
        rule = parse_rule("view@bob($x) :- r@alice($x)", author="bob")
        schema = RelationSchema("view", "bob", ("x",), kind=RelationKind.INTENSIONAL)
        peer.deliver(FactMessage(sender="bob", recipient="alice",
                                 installs=(("d1", rule, (schema,)),)))
        assert peer.engine.state.schemas.get("view", "bob") is not None

    def test_delegation_retract_message(self):
        peer = Peer("alice", trust=TrustStore("alice", trust_all=True))
        rule = parse_rule("v@bob($x) :- r@alice($x)", author="bob")
        peer.deliver(FactMessage(sender="bob", recipient="alice",
                                 installs=(("d1", rule, ()),)))
        peer.run_stage()
        peer.deliver(FactMessage(sender="bob", recipient="alice", retracts=("d1",)))
        peer.run_stage()
        assert len(peer.installed_delegations()) == 0

    def test_outgoing_delegation_messages_carry_schemas(self):
        peer = Peer("Jules")
        peer.declare(RelationSchema("attendeePictures", "Jules", ("id",),
                                    kind=RelationKind.INTENSIONAL))
        peer.declare(RelationSchema("selectedAttendee", "Jules", ("attendee",)))
        peer.add_rule("attendeePictures@Jules($id) :- "
                      "selectedAttendee@Jules($a), pictures@$a($id)")
        peer.insert_fact(Fact("selectedAttendee", "Jules", ("Emilien",)))
        _result, outgoing = peer.run_stage()
        installs = [install for m in outgoing for install in m.installs]
        assert len(installs) == 1
        schema_names = {s.qualified_name for s in installs[0][2]}
        assert "attendeePictures@Jules" in schema_names


class _FailingMetaBackend(MemoryBackend):
    """A store whose metadata writes fail (a full disk, a locked database)."""

    def save_meta(self, kind, key, payload):
        raise StoreError(f"cannot persist {kind} {key}")


class TestLearningADelegatedRulesSchemas:
    """Both dispatchers (raw message, causal envelope effect) learn the
    schemas a delegated rule ships with through one helper."""

    RULE = "view@bob($x) :- r@alice($x)"

    def _deliver_install(self, peer, schema):
        rule = parse_rule(self.RULE, author="bob")
        if peer.replication is None:
            peer.deliver(FactMessage(
                sender="bob", recipient="alice", installs=(("d1", rule, (schema,)),)))
        else:
            peer.deliver(DeltaEnvelopeMessage(
                sender="bob", recipient="alice", frontier=1,
                ops=(Op(seq=1, kind="delegate", delegation_id="d1", rule=rule,
                        schemas=(schema,)),)))

    @pytest.mark.parametrize("replication", [False, True], ids=["raw", "causal"])
    def test_a_store_failure_while_persisting_a_schema_surfaces(self, replication):
        peer = Peer("alice", trust=TrustStore("alice", trust_all=True),
                    storage=_FailingMetaBackend(), replication=replication)
        schema = RelationSchema("view", "bob", ("x",), kind=RelationKind.INTENSIONAL)
        with pytest.raises(StoreError, match="cannot persist schema"):
            self._deliver_install(peer, schema)

    @pytest.mark.parametrize("replication", [False, True], ids=["raw", "causal"])
    def test_a_conflicting_schema_is_ignored_and_the_rule_still_installs(
            self, replication):
        peer = Peer("alice", trust=TrustStore("alice", trust_all=True),
                    replication=replication)
        local = peer.declare(RelationSchema("view", "bob", ("x",),
                                            kind=RelationKind.INTENSIONAL))
        conflicting = RelationSchema("view", "bob", ("x", "y"),
                                     kind=RelationKind.EXTENSIONAL)
        self._deliver_install(peer, conflicting)
        peer.run_stage()
        assert peer.engine.state.schemas.get("view", "bob") == local
        assert len(peer.installed_delegations()) == 1


class TestOneUpdatePerRecipientPerStage:
    """A stage ships each recipient one update: new facts, their lineage, an
    alternative derivation of a fact shipped earlier, a delegation installed
    and one retracted all ride one raw :class:`FactMessage` — and, under
    causal replication, become the same channel ops in the same order as
    when installs and retracts travelled as messages of their own."""

    PROGRAM = """
    collection extensional persistent src@a(x);
    collection extensional persistent alt@a(x);
    collection extensional persistent sel@a(p, y);
    collection intensional pics@a(x);
    rule out@b($x) :- src@a($x);
    rule out@b($x) :- alt@a($x);
    rule pics@a($x) :- sel@a($p, $y), pic@$p($x, $y);
    """

    #: The second stage's ops on the channel a -> b, as the separate install
    #: and retract messages produced them (the ids re-pinned when rules came
    #: to be named by their content; re-pinned again when a delegation became
    #: a binding of a template sent once, which the first stage's four ops
    #: carried).
    CAUSAL_OPS = [
        (5, "insert", "out@b(2)"),
        (6, "derivation", "out@b(2)", "rule-7001f5928c8504fb", ("src@a(2)",), True),
        (7, "derivation", "out@b(1)", "rule-60c8cf1b8db011ba", ("alt@a(1)",), False),
        (8, "bind", "_bind_deleg-0597b6b7fd4b02c3@b(2)"),
        (9, "unbind", "_bind_deleg-0597b6b7fd4b02c3@b(1)"),
    ]

    def _second_stage(self, replication):
        peer = Peer("a", provenance=True, replication=replication)
        peer.load_program(self.PROGRAM)
        peer.insert_fact(Fact("src", "a", (1,)))
        peer.insert_fact(Fact("sel", "a", ("b", 1)))
        peer.run_stage(1)
        peer.insert_fact(Fact("src", "a", (2,)))
        peer.insert_fact(Fact("alt", "a", (1,)))
        peer.delete_fact(Fact("sel", "a", ("b", 1)))
        peer.insert_fact(Fact("sel", "a", ("b", 2)))
        return peer.run_stage(2)[1]

    def test_the_raw_path_ships_one_message(self):
        (message,) = self._second_stage(replication=False)
        assert isinstance(message, FactMessage) and message.recipient == "b"
        assert message.inserted == {Fact("out", "b", (2,))}
        assert [(str(d.fact), d.support) for d in message.derivations] == [
            ("out@b(2)", (Fact("src", "a", (2,)),)),
            ("out@b(1)", (Fact("alt", "a", (1,)),))]
        # The template went with the first stage's binding: this stage
        # ships the new binding and retracts the old one, and no rule.
        assert message.installs == () and message.retracts == ()
        (bound,), (unbound,) = message.bound, message.unbound
        assert bound.relation == unbound.relation and bound.relation.startswith("_bind_")
        assert (bound.peer, bound.values, unbound.values) == ("b", (2,), (1,))
        assert message.payload_size() == 1 + 2 + 1 + 1

    def test_the_causal_path_emits_the_same_ops(self):
        (envelope,) = self._second_stage(replication=True)
        assert isinstance(envelope, DeltaEnvelopeMessage)
        assert [self._describe(op) for op in envelope.ops] == self.CAUSAL_OPS

    @staticmethod
    def _describe(op):
        if op.kind in ("insert", "bind", "unbind"):
            return (op.seq, op.kind, str(op.fact))
        if op.kind == "derivation":
            d = op.derivation
            return (op.seq, op.kind, str(d.fact), d.rule_id,
                    tuple(map(str, d.support)), op.anchor)
        if op.kind == "delegate":
            return (op.seq, op.kind, op.delegation_id, str(op.rule),
                    tuple(s.qualified_name for s in op.schemas))
        return (op.seq, op.kind, op.delegation_id)


class TestSystem:
    def test_duplicate_peer_rejected(self):
        system = WebdamLogSystem()
        system.add_peer("alice")
        with pytest.raises(ValueError):
            system.add_peer("alice")

    def test_unknown_peer_lookup(self):
        system = WebdamLogSystem()
        with pytest.raises(KeyError):
            system.peer("ghost")

    def test_membership_and_names(self, two_peer_system):
        assert "alice" in two_peer_system
        assert len(two_peer_system) == 2
        assert two_peer_system.peer_names() == ("alice", "bob")

    def test_fact_flow_between_peers(self, two_peer_system):
        alice = two_peer_system.peer("alice")
        bob = two_peer_system.peer("bob")
        alice.load_program("""
        collection extensional persistent local@alice(x);
        fact local@alice(1);
        rule mirror@bob($x) :- local@alice($x);
        """)
        summary = two_peer_system.converge()
        assert summary.converged
        assert bob.query("mirror") == (Fact("mirror", "bob", (1,)),)

    def test_convergence_reported_in_summary(self, two_peer_system):
        summary = two_peer_system.converge()
        assert summary.converged
        assert summary.round_count >= 1
        assert summary.total_messages() == 0

    def test_latency_increases_rounds(self):
        def build(latency):
            system = WebdamLogSystem(transport=InMemoryTransport(latency=latency))
            alice = system.add_peer("alice")
            system.add_peer("bob")
            alice.load_program("""
            collection extensional persistent local@alice(x);
            fact local@alice(1);
            rule mirror@bob($x) :- local@alice($x);
            """)
            return system.converge(max_steps=50).round_count

        assert build(latency=3) > build(latency=1)

    def test_steps_run_unconditionally(self, two_peer_system):
        reports = [two_peer_system.step() for _ in range(3)]
        assert len(reports) == 3
        assert two_peer_system.current_round == 3

    def test_metrics_and_snapshot(self, two_peer_system):
        alice = two_peer_system.peer("alice")
        alice.insert_fact(Fact("r", "alice", (1,)))
        two_peer_system.converge()
        metrics = two_peer_system.metrics()
        assert metrics["runtime", "peers"] == 2
        assert metrics["store", "extensional_facts"] == 1
        snapshot = two_peer_system.snapshot()
        assert "r@alice" in snapshot["alice"]

    def test_remove_peer(self, two_peer_system):
        removed = two_peer_system.remove_peer("bob")
        assert removed is not None
        assert "bob" not in two_peer_system
        assert two_peer_system.remove_peer("bob") is None

    def test_remove_peer_closes_its_backend(self):
        system = WebdamLogSystem(storage="sqlite")
        alice = system.add_peer("alice")
        bob = system.add_peer("bob")
        assert not bob.engine.state.backend.closed
        assert system.remove_peer("bob") is bob
        assert bob.engine.state.backend.closed
        assert not alice.engine.state.backend.closed
        system.close()

    def test_message_to_unknown_peer_does_not_crash_round(self):
        system = WebdamLogSystem()
        alice = system.add_peer("alice")
        alice.add_rule("copy@ghost($x) :- local@alice($x)")
        alice.insert_fact(Fact("local", "alice", (1,)))
        summary = system.converge()
        assert summary.converged


class TestSystemDelegationFlow:
    def test_delegation_round_trip_and_retraction(self):
        system = WebdamLogSystem()
        jules = system.add_peer("Jules")
        emilien = system.add_peer("Emilien")
        jules.declare(RelationSchema("attendeePictures", "Jules", ("id",),
                                     kind=RelationKind.INTENSIONAL))
        jules.add_rule("attendeePictures@Jules($id) :- "
                       "selectedAttendee@Jules($a), pictures@$a($id)")
        jules.insert_fact(Fact("selectedAttendee", "Jules", ("Emilien",)))
        emilien.insert_fact(Fact("pictures", "Emilien", (7,)))
        system.converge()
        assert jules.query("attendeePictures") == (Fact("attendeePictures", "Jules", (7,)),)
        assert len(emilien.installed_delegations()) == 1
        # Deselect: the delegation is retracted and the view empties.
        jules.delete_fact(Fact("selectedAttendee", "Jules", ("Emilien",)))
        system.converge()
        assert jules.query("attendeePictures") == ()
        assert len(emilien.installed_delegations()) == 0

    def test_new_picture_propagates_through_existing_delegation(self):
        system = WebdamLogSystem()
        jules = system.add_peer("Jules")
        emilien = system.add_peer("Emilien")
        jules.declare(RelationSchema("attendeePictures", "Jules", ("id",),
                                     kind=RelationKind.INTENSIONAL))
        jules.add_rule("attendeePictures@Jules($id) :- "
                       "selectedAttendee@Jules($a), pictures@$a($id)")
        jules.insert_fact(Fact("selectedAttendee", "Jules", ("Emilien",)))
        emilien.insert_fact(Fact("pictures", "Emilien", (1,)))
        system.converge()
        emilien.insert_fact(Fact("pictures", "Emilien", (2,)))
        system.converge()
        ids = {f.values[0] for f in jules.query("attendeePictures")}
        assert ids == {1, 2}
