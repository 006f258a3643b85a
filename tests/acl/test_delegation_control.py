"""Tests of the control-of-delegation model (pending queue, approval, rejection)."""

import pytest

from repro.acl.delegation_control import DelegationController, DelegationDecision
from repro.acl.trust import TrustStore
from repro.core.engine import WebdamLogEngine
from repro.core.errors import AccessControlError
from repro.core.facts import Fact
from repro.core.parser import parse_rule


def make_controller(trusted=(), trust_all=False):
    engine = WebdamLogEngine("Jules")
    trust = TrustStore("Jules", trusted=trusted, trust_all=trust_all)
    return engine, DelegationController(engine, trust=trust)


def delegated_rule(author="Julia"):
    return parse_rule("spam@Julia($x) :- pictures@Jules($x, $n)", author=author)


class TestSubmission:
    def test_trusted_delegator_auto_accepted(self):
        engine, controller = make_controller(trusted=["sigmod"])
        decision = controller.submit("sigmod", "d1", delegated_rule("sigmod"))
        assert decision is DelegationDecision.AUTO_ACCEPTED
        engine.run_stage()
        assert len(engine.installed_delegations()) == 1
        assert controller.pending() == ()

    def test_untrusted_delegator_goes_pending(self):
        engine, controller = make_controller()
        decision = controller.submit("Julia", "d1", delegated_rule())
        assert decision is DelegationDecision.PENDING
        engine.run_stage()
        assert len(engine.installed_delegations()) == 0
        assert len(controller.pending()) == 1
        (pending,) = controller.pending()
        assert (pending.delegator, pending.delegation_id) == ("Julia", "d1")

    def test_trust_all_bypasses_queue(self):
        engine, controller = make_controller(trust_all=True)
        decision = controller.submit("Julia", "d1", delegated_rule())
        assert decision is DelegationDecision.AUTO_ACCEPTED


class TestDecisions:
    def test_approve_installs_rule(self):
        engine, controller = make_controller()
        controller.submit("Julia", "d1", delegated_rule())
        approved = controller.approve("d1")
        assert approved.delegator == "Julia"
        engine.run_stage()
        assert len(engine.installed_delegations()) == 1
        assert controller.pending() == ()

    def test_reject_discards_rule(self):
        engine, controller = make_controller()
        controller.submit("Julia", "d1", delegated_rule())
        controller.reject("d1")
        engine.run_stage()
        assert len(engine.installed_delegations()) == 0

    def test_approve_unknown_raises(self):
        _engine, controller = make_controller()
        with pytest.raises(AccessControlError):
            controller.approve("nope")
        with pytest.raises(AccessControlError):
            controller.reject("nope")

    def test_approve_all_filtered_by_delegator(self):
        engine, controller = make_controller()
        controller.submit("Julia", "d1", delegated_rule())
        controller.submit("Emilien", "d2", delegated_rule("Emilien"))
        approved = controller.approve_all("Julia")
        assert [p.delegation_id for p in approved] == ["d1"]
        assert len(controller.pending()) == 1
        controller.approve_all()
        assert controller.pending() == ()


class TestRetraction:
    def test_retraction_of_pending_delegation_removes_it(self):
        engine, controller = make_controller()
        controller.submit("Julia", "d1", delegated_rule())
        decision = controller.submit_retraction("Julia", "d1")
        assert decision is DelegationDecision.RETRACTED
        assert controller.pending() == ()
        engine.run_stage()
        assert len(engine.installed_delegations()) == 0

    def test_only_original_delegator_may_retract_pending(self):
        _engine, controller = make_controller()
        controller.submit("Julia", "d1", delegated_rule())
        with pytest.raises(AccessControlError):
            controller.submit_retraction("Mallory", "d1")
        assert len(controller.pending()) == 1

    def test_retraction_of_installed_delegation_forwarded(self):
        engine, controller = make_controller(trusted=["sigmod"])
        controller.submit("sigmod", "d1", delegated_rule("sigmod"))
        engine.run_stage()
        controller.submit_retraction("sigmod", "d1")
        engine.run_stage()
        assert len(engine.installed_delegations()) == 0
