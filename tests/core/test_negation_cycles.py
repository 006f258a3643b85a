"""A cycle through negation is refused, whichever rule closes it.

``a :- base, not b`` and ``b :- base, not a`` have no stratification: run
together, the written order of the two rules would pick the answer.  The
engine refuses the rule, the program or the delegation that closes such a
cycle with a :class:`StratificationError` naming it, and leaves the program
as it was.
"""

import pytest

from repro.acl.trust import TrustStore
from repro.api import system
from repro.core.engine import WebdamLogEngine
from repro.core.errors import StratificationError
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.schema import RelationKind, RelationSchema
from repro.replication.dots import Op
from repro.runtime.messages import DeltaEnvelopeMessage, FactMessage
from repro.runtime.peer import Peer

SCHEMAS = """
collection extensional persistent base@p(x);
collection intensional a@p(x);
collection intensional b@p(x);
"""

A_RULE = "a@p($x) :- base@p($x), not b@p($x)"
B_RULE = "b@p($x) :- base@p($x), not a@p($x)"


def engine_with_base():
    engine = WebdamLogEngine("p")
    engine.load_program(SCHEMAS + "fact base@p(1);")
    return engine


def answer(engine):
    engine.run_to_quiescence()
    return {name: {fact.values for fact in engine.query(name)} for name in ("a", "b")}


@pytest.mark.parametrize("first, second", [(A_RULE, B_RULE), (B_RULE, A_RULE)],
                         ids=["a-rule-first", "b-rule-first"])
class TestBothRuleOrders:
    def test_the_closing_rule_is_refused_and_names_the_cycle(self, first, second):
        engine = engine_with_base()
        kept = engine.add_rule(first)
        with pytest.raises(StratificationError) as refused:
            engine.add_rule(second)
        assert sorted(refused.value.rules) == sorted(
            str(parse_rule(text, default_peer="p")) for text in (first, second))
        assert sorted(refused.value.cycle[:-1]) == ["a@p", "b@p"]
        assert refused.value.cycle[0] == refused.value.cycle[-1]
        assert "not a@p($x)" in str(refused.value) and "not b@p($x)" in str(refused.value)
        # The program is the first rule alone, and so is its answer.
        assert engine.state.all_rules() == (kept,)
        derived = "a" if first == A_RULE else "b"
        assert answer(engine) == {derived: {(1,)},
                                  ("b" if derived == "a" else "a"): set()}

    def test_a_program_holding_both_is_refused_whole(self, first, second):
        engine = WebdamLogEngine("p")
        with pytest.raises(StratificationError):
            engine.load_program(SCHEMAS + "fact base@p(1);\n"
                                + f"rule {first};\nrule {second};")
        assert engine.state.all_rules() == ()
        assert engine.state.store.total_facts() == 0

    def test_a_replacement_that_closes_the_cycle_is_refused(self, first, second):
        engine = engine_with_base()
        engine.add_rule(first)
        harmless = engine.add_rule(second.split(", not")[0])
        with pytest.raises(StratificationError):
            engine.replace_rule(harmless.rule_id, second)
        assert [str(rule) for rule in engine.state.all_rules()] == [
            str(parse_rule(first, default_peer="p")), str(harmless)]


def test_a_self_negating_rule_is_refused():
    engine = engine_with_base()
    with pytest.raises(StratificationError) as refused:
        engine.add_rule("a@p($x) :- base@p($x), not a@p($x)")
    assert refused.value.cycle == ("a@p", "a@p")
    assert engine.state.all_rules() == ()


def test_a_cycle_through_a_positive_chain_is_refused():
    engine = engine_with_base()
    engine.add_rule(A_RULE)
    engine.add_rule("c@p($x) :- a@p($x)")
    with pytest.raises(StratificationError) as refused:
        engine.add_rule("b@p($x) :- base@p($x), c@p($x)")
    assert refused.value.cycle == ("a@p", "b@p", "c@p", "a@p")


class TestDelegationClosingACycle:
    def test_the_engine_refuses_the_install(self):
        engine = engine_with_base()
        engine.add_rule(A_RULE)
        with pytest.raises(StratificationError):
            engine.receive_delegation("q", "deleg-1", parse_rule(B_RULE, author="q"))
        engine.run_stage()
        assert engine.installed_delegations() == ()
        assert answer(engine) == {"a": {(1,)}, "b": set()}

    def test_a_waiting_install_counts_too(self):
        engine = engine_with_base()
        engine.receive_delegation("q", "deleg-1", parse_rule(A_RULE, author="q"))
        with pytest.raises(StratificationError):
            engine.receive_delegation("q", "deleg-2", parse_rule(B_RULE, author="q"))
        engine.run_stage()
        assert [d.delegation_id for d in engine.installed_delegations()] == ["deleg-1"]

    def test_a_waiting_install_refuses_an_own_rule_that_closes_the_cycle(self):
        engine = engine_with_base()
        engine.receive_delegation("q", "deleg-1", parse_rule(A_RULE, author="q"))
        with pytest.raises(StratificationError):
            engine.add_rule(B_RULE)
        assert engine.state.all_rules() == ()
        engine.run_stage()
        assert [d.delegation_id for d in engine.installed_delegations()] == ["deleg-1"]
        assert answer(engine) == {"a": {(1,)}, "b": set()}

    def test_a_waiting_retraction_no_longer_blocks_a_rule(self):
        engine = engine_with_base()
        engine.receive_delegation("q", "deleg-1", parse_rule(A_RULE, author="q"))
        engine.run_stage()
        engine.receive_delegation_retraction("q", "deleg-1")
        kept = engine.add_rule(B_RULE)
        engine.run_stage()
        assert engine.installed_delegations() == ()
        assert engine.state.all_rules() == (kept,)
        assert answer(engine) == {"a": set(), "b": {(1,)}}

    def test_a_retraction_from_a_non_delegator_leaves_the_rule_refused(self):
        engine = engine_with_base()
        engine.receive_delegation("q", "deleg-1", parse_rule(A_RULE, author="q"))
        engine.run_stage()
        engine.receive_delegation_retraction("mallory", "deleg-1")
        with pytest.raises(StratificationError):
            engine.add_rule(B_RULE)
        engine.run_stage()
        assert [d.delegation_id for d in engine.installed_delegations()] == ["deleg-1"]
        assert answer(engine) == {"a": {(1,)}, "b": set()}

    def test_an_install_and_its_retraction_both_waiting_block_nothing(self):
        engine = engine_with_base()
        engine.receive_delegation("q", "deleg-1", parse_rule(A_RULE, author="q"))
        engine.receive_delegation_retraction("q", "deleg-1")
        engine.receive_delegation("q", "deleg-2", parse_rule(B_RULE, author="q"))
        engine.run_stage()
        assert [d.delegation_id for d in engine.installed_delegations()] == ["deleg-2"]
        assert answer(engine) == {"a": set(), "b": {(1,)}}

    def test_an_approved_delegation_that_is_refused_stays_pending(self):
        peer = Peer("p")
        peer.engine.load_program(SCHEMAS + "fact base@p(1);\n" + f"rule {A_RULE};")
        peer.controller.submit("q", "deleg-1", parse_rule(B_RULE, author="q"))
        with pytest.raises(StratificationError):
            peer.approve_delegation("deleg-1")
        assert [p.delegation_id for p in peer.pending_delegations()] == ["deleg-1"]
        peer.reject_delegation("deleg-1")
        assert peer.pending_delegations() == ()

    def test_a_deployment_fails_loudly_instead_of_picking_an_answer(self):
        deployment = (
            system()
            .peer("p").program(SCHEMAS + "collection extensional persistent extra@p(x);\n"
                               + "fact base@p(1);\n" + f"rule {A_RULE};")
            .peer("q").program("""
            collection extensional persistent go@q(x);
            fact go@q(1);
            fact extra@p(7);
            rule b@p($x) :- go@q($y), base@p($x), not a@p($x);
            """)
            .build()
        )
        with pytest.raises(StratificationError) as refused:
            deployment.converge()
        assert sorted(refused.value.cycle[:-1]) == ["a@p", "b@p"]
        # The fact that travelled in the same batch was delivered all the same.
        deployment.converge()
        assert deployment.peer("p").installed_delegations() == ()
        assert {fact.values for fact in deployment.query("p", "a").facts()} == {(1,)}
        assert {fact.values for fact in deployment.query("p", "extra").facts()} == {(7,)}


def test_a_stratifiable_program_still_loads():
    engine = engine_with_base()
    engine.add_rule(A_RULE)
    engine.add_rule("b@p($x) :- base@p($x)")
    assert answer(engine) == {"a": set(), "b": {(1,)}}
    assert Fact("b", "p", (1,)) in engine.query("b")


class TestDeclarationClosingACycle:
    """A head with a variable relation derives into every local intensional
    relation: declaring one can close a cycle no rule change shows."""

    PROGRAM = """
    collection extensional persistent base@p(x);
    collection extensional persistent tgt@p(r);
    collection intensional a@p(x);
    fact base@p(1);
    rule a@p($x) :- base@p($x), not c@p($x);
    rule $r@p($x) :- tgt@p($r), a@p($x);
    """

    def test_the_declaration_is_refused(self):
        engine = WebdamLogEngine("p")
        engine.load_program(self.PROGRAM)
        engine.run_to_quiescence()
        with pytest.raises(StratificationError) as refused:
            engine.load_program("collection intensional c@p(x);")
        assert refused.value.cycle == ("a@p", "$r@p", "a@p")
        assert engine.state.schemas.get("c", "p") is None
        assert answer(engine)["a"] == {(1,)}

    def test_a_program_declaring_it_is_refused_whole(self):
        engine = WebdamLogEngine("p")
        with pytest.raises(StratificationError):
            engine.load_program("collection intensional c@p(x);\n" + self.PROGRAM)
        assert engine.state.all_rules() == ()
        assert engine.state.schemas.get("c", "p") is None


@pytest.mark.parametrize("replication", [False, True], ids=["raw", "causal"])
class TestARefusedInstallDropsNothingElse:
    """A refused install is dropped alone: the rest of the batch (or of the
    replication envelope) still arrives, and the refusal is raised after."""

    HARMLESS = "c@p($x) :- base@p($x)"

    def _peer(self, replication):
        peer = Peer("p", trust=TrustStore("p", trust_all=True), replication=replication)
        peer.engine.load_program(SCHEMAS + "collection intensional c@p(x);\n"
                                 + "fact base@p(1);\n" + f"rule {A_RULE};")
        return peer

    def _batch(self, replication, installs, fact):
        if not replication:
            # Two stages' updates from q: the refused install alone, then
            # the fact with the harmless install.
            (bad_id, bad_rule, bad_schemas), (ok_id, ok_rule, ok_schemas) = installs
            return [FactMessage(sender="q", recipient="p", installs=(
                        (bad_id, parse_rule(bad_rule, author="q"), bad_schemas),)),
                    FactMessage(sender="q", recipient="p", inserted=frozenset({fact}),
                                installs=((ok_id, parse_rule(ok_rule, author="q"),
                                           ok_schemas),))]
        ops = [Op(seq=1, kind="delegate", delegation_id=installs[0][0],
                  rule=parse_rule(installs[0][1], author="q"), schemas=installs[0][2]),
               Op(seq=2, kind="insert", fact=fact)]
        ops += [Op(seq=3 + i, kind="delegate", delegation_id=delegation_id,
                   rule=parse_rule(rule, author="q"), schemas=schemas)
                for i, (delegation_id, rule, schemas) in enumerate(installs[1:])]
        return [DeltaEnvelopeMessage(sender="q", recipient="p", frontier=len(ops),
                                     ops=tuple(ops))]

    def _check_the_rest_arrived(self, peer):
        peer.run_stage()
        assert [d.delegation_id for d in peer.installed_delegations()] == ["ok"]
        assert {fact.values for fact in peer.query("base")} == {(1,), (2,)}
        assert {fact.values for fact in peer.query("c")} == {(1,), (2,)}
        assert {fact.values for fact in peer.query("a")} == {(1,), (2,)}

    def test_a_refused_rule(self, replication):
        peer = self._peer(replication)
        batch = self._batch(replication, [("bad", B_RULE, ()), ("ok", self.HARMLESS, ())],
                            Fact("base", "p", (2,)))
        with pytest.raises(StratificationError):
            peer.deliver_all(batch)
        self._check_the_rest_arrived(peer)

    def test_a_refused_schema(self, replication):
        peer = self._peer(replication)
        peer.engine.load_program("""
        collection extensional persistent tgt@p(r);
        collection intensional e@p(x);
        rule e@p($x) :- base@p($x), not d@p($x);
        rule $r@p($x) :- tgt@p($r), e@p($x);
        """)
        # Declaring d@p intensional lets the variable head derive into it
        # from e@p, which reads d@p under negation.
        schema = RelationSchema("d", "p", ("x",), kind=RelationKind.INTENSIONAL)
        batch = self._batch(replication,
                            [("bad", "d@p($x) :- base@p($x)", (schema,)),
                             ("ok", self.HARMLESS, ())],
                            Fact("base", "p", (2,)))
        with pytest.raises(StratificationError):
            peer.deliver_all(batch)
        assert peer.engine.state.schemas.get("d", "p") is None
        self._check_the_rest_arrived(peer)
