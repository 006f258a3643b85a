"""Tests of delegation bookkeeping (tracker, store, diffing)."""

import pytest

from repro.core.delegation import (
    Delegation,
    DelegationDiff,
    DelegationStore,
    DelegationTracker,
    InstalledDelegation,
)
from repro.core.errors import DelegationError
from repro.core.parser import parse_rule


def make_delegation(delegator="Jules", target="Emilien", body_peer=None, head="attendeePictures"):
    body_peer = body_peer or target
    rule = parse_rule(f"{head}@{delegator}($id) :- pictures@{body_peer}($id)",
                      author=delegator)
    return Delegation(target=target, rule=rule, delegator=delegator,
                      origin_rule_id=rule.rule_id)


class TestDelegation:
    def test_id_is_stable_and_content_based(self):
        rule = parse_rule("v@Jules($x) :- pictures@Emilien($x)", author="Jules")
        first = Delegation(target="Emilien", rule=rule, delegator="Jules",
                           origin_rule_id="origin-1")
        second = Delegation(target="Emilien", rule=rule, delegator="Jules",
                            origin_rule_id="origin-1")
        assert first.delegation_id == second.delegation_id
        assert first.delegation_id.startswith("deleg-")

    def test_id_differs_per_target_and_origin(self):
        a = make_delegation(target="Emilien")
        b = make_delegation(target="Julia", body_peer="Julia")
        assert a.delegation_id != b.delegation_id

    def test_str_rendering(self):
        delegation = make_delegation()
        assert "Jules -> Emilien" in str(delegation)


class TestDelegationTracker:
    def test_first_diff_installs_everything(self):
        tracker = DelegationTracker("Jules")
        delegation = make_delegation()
        diff = tracker.diff([delegation])
        assert [d.delegation_id for d in diff.to_install] == [delegation.delegation_id]
        assert not diff.to_retract
        assert diff.counts() == (1, 0)

    def test_commit_then_same_required_is_noop(self):
        tracker = DelegationTracker("Jules")
        delegation = make_delegation()
        tracker.commit(tracker.diff([delegation]))
        diff = tracker.diff([delegation])
        assert not diff
        assert tracker.outstanding_for("Emilien") == (delegation,)

    def test_vanished_delegation_is_retracted(self):
        tracker = DelegationTracker("Jules")
        delegation = make_delegation()
        tracker.commit(tracker.diff([delegation]))
        diff = tracker.diff([])
        assert [d.delegation_id for d in diff.to_retract] == [delegation.delegation_id]
        tracker.commit(diff)
        assert not tracker.outstanding()

    def test_mixed_install_and_retract(self):
        tracker = DelegationTracker("Jules")
        old = make_delegation(target="Emilien")
        new = make_delegation(target="Julia", body_peer="Julia")
        tracker.commit(tracker.diff([old]))
        diff = tracker.diff([new])
        assert {d.target for d in diff.to_install} == {"Julia"}
        assert {d.target for d in diff.to_retract} == {"Emilien"}

    def test_rejects_foreign_delegations(self):
        tracker = DelegationTracker("Jules")
        foreign = make_delegation(delegator="Julia")
        with pytest.raises(DelegationError):
            tracker.diff([foreign])


class TestDelegationStore:
    def test_install_and_rules(self):
        store = DelegationStore("Emilien")
        delegation = make_delegation()
        store.install(delegation.delegation_id, "Jules", delegation.rule)
        assert len(store) == 1
        assert delegation.delegation_id in store
        assert store.rules() == (delegation.rule,)

    def test_install_overwrites_same_id(self):
        store = DelegationStore("Emilien")
        delegation = make_delegation()
        other_rule = parse_rule("other@Jules($x) :- pictures@Emilien($x)", author="Jules")
        store.install(delegation.delegation_id, "Jules", delegation.rule)
        store.install(delegation.delegation_id, "Jules", other_rule)
        assert len(store) == 1
        assert store.rules()[0].head.relation_constant() == "other"

    def test_retract(self):
        store = DelegationStore("Emilien")
        delegation = make_delegation()
        store.install(delegation.delegation_id, "Jules", delegation.rule)
        removed = store.retract(delegation.delegation_id)
        assert removed is not None and removed.delegator == "Jules"
        assert store.retract(delegation.delegation_id) is None
        assert len(store) == 0

    def test_all_ordering_is_deterministic(self):
        store = DelegationStore("Emilien")
        delegations = [make_delegation(head=f"rel{i}") for i in range(5)]
        for delegation in delegations:
            store.install(delegation.delegation_id, "Jules", delegation.rule)
        ids = [d.delegation_id for d in store.all()]
        assert ids == sorted(ids)
