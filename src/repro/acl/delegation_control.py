"""Control of delegation: the pending-queue model demonstrated in the paper.

"The demonstration of Wepic will provide a simplified model for control of
delegation, in which each delegation sent by an untrusted peer will be
pending in a queue until the user explicitly accepts it via the Web
interface."  (Section 3 of the paper.)

:class:`DelegationController` sits between the transport and a peer's engine:

* a delegation install from a **trusted** delegator is forwarded to the
  engine immediately (decision ``AUTO_ACCEPTED``);
* a delegation install from an **untrusted** delegator is parked in the
  pending queue (decision ``PENDING``), which the headless UI model lists
  through :meth:`DelegationController.pending`;
* the user later calls :meth:`approve` or :meth:`reject`;
* a retraction for a delegation that is still pending simply removes it from
  the queue; a retraction for an installed delegation is forwarded.

A delegation is a binding of a template its delegator sent
(:mod:`repro.core.delegation`), or a rule delegated whole; either is
approved on its own, and waits shown as the rule it stands for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.acl.trust import TrustStore
from repro.core.engine import WebdamLogEngine
from repro.core.errors import AccessControlError
from repro.core.facts import Fact
from repro.core.rules import Rule


class DelegationDecision(enum.Enum):
    """Outcome of submitting a delegation to the controller."""

    AUTO_ACCEPTED = "auto-accepted"
    PENDING = "pending"
    RETRACTED = "retracted"


@dataclass
class PendingDelegation:
    """A delegation waiting for explicit user approval: ``rule`` is the rule
    it stands for, ``binding`` the binding fact it is (``None`` for a rule
    delegated whole)."""

    delegation_id: str
    delegator: str
    rule: Rule
    binding: Optional[Fact] = None

    def describe(self) -> str:
        """One-line description shown in the pending-delegations frame of the UI."""
        return f"{self.delegator} wants to install: {self.rule}"


class DelegationController:
    """Per-peer mediator between incoming delegations and the engine.

    Parameters
    ----------
    engine:
        The peer's engine; approved delegations are forwarded to it.
    trust:
        The peer's :class:`~repro.acl.trust.TrustStore`, the one setting that
        decides which delegations install at once.  When omitted, a store
        trusting only the peer itself is used (everything becomes pending);
        ``TrustStore(owner, trust_all=True)`` bypasses the queue entirely.
    """

    def __init__(self, engine: WebdamLogEngine, trust: Optional[TrustStore] = None):
        self.engine = engine
        self.trust = trust if trust is not None else TrustStore(engine.peer)
        self._pending: Dict[str, PendingDelegation] = {}

    # ------------------------------------------------------------------ #
    # incoming messages
    # ------------------------------------------------------------------ #

    def submit(self, delegator: str, delegation_id: str, rule: Rule
               ) -> DelegationDecision:
        """Handle an incoming install of a rule delegated whole."""
        if self.trust.is_trusted(delegator):
            self.engine.receive_delegation(delegator, delegation_id, rule)
            return DelegationDecision.AUTO_ACCEPTED
        self._pending[delegation_id] = PendingDelegation(
            delegation_id=delegation_id, delegator=delegator, rule=rule)
        return DelegationDecision.PENDING

    def submit_binding(self, delegator: str, binding: Fact) -> DelegationDecision:
        """Handle an incoming binding of a template ``delegator`` sent (a
        binding of another peer's template is dropped, never shown)."""
        if self.trust.is_trusted(delegator):
            self.engine.receive_binding(delegator, binding)
            return DelegationDecision.AUTO_ACCEPTED
        shown = self.engine.state.describe(binding)
        if shown is not None and shown.delegator == delegator:
            self._pending[shown.delegation_id] = PendingDelegation(
                shown.delegation_id, delegator, shown.rule, binding)
        return DelegationDecision.PENDING

    def submit_unbinding(self, delegator: str, binding: Fact) -> DelegationDecision:
        """Handle an incoming retraction of a binding."""
        if self._pending:
            shown = self.engine.state.describe(binding)
            if shown is not None and shown.delegation_id in self._pending:
                return self.submit_retraction(delegator, shown.delegation_id)
        self.engine.receive_unbinding(delegator, binding)
        return DelegationDecision.RETRACTED

    def submit_retraction(self, delegator: str, delegation_id: str) -> DelegationDecision:
        """Handle an incoming retraction of a rule delegated whole (or of a
        pending delegation, by the id it waits under)."""
        pending = self._pending.pop(delegation_id, None)
        if pending is not None:
            if pending.delegator != delegator:
                # Someone else trying to retract a pending delegation: put it back.
                self._pending[delegation_id] = pending
                raise AccessControlError(
                    f"peer {delegator} cannot retract a delegation submitted by "
                    f"{pending.delegator}"
                )
            return DelegationDecision.RETRACTED
        self.engine.receive_delegation_retraction(delegator, delegation_id)
        return DelegationDecision.RETRACTED

    # ------------------------------------------------------------------ #
    # user decisions
    # ------------------------------------------------------------------ #

    def pending(self) -> Tuple[PendingDelegation, ...]:
        """The delegations currently awaiting approval (deterministic order)."""
        return tuple(sorted(self._pending.values(), key=lambda p: p.delegation_id))

    def approve(self, delegation_id: str) -> PendingDelegation:
        """Approve a pending delegation: the rule is installed at the engine.

        A rule that would close a cycle through negation raises
        :class:`~repro.core.errors.StratificationError` and stays pending.
        """
        pending = self._pending.get(delegation_id)
        if pending is None:
            raise AccessControlError(f"no pending delegation with id {delegation_id!r}")
        if pending.binding is not None:
            self.engine.receive_binding(pending.delegator, pending.binding)
        else:
            self.engine.receive_delegation(pending.delegator, pending.delegation_id,
                                           pending.rule)
        del self._pending[delegation_id]
        return pending

    def approve_all(self, delegator: Optional[str] = None) -> List[PendingDelegation]:
        """Approve every pending delegation (optionally restricted to one delegator).

        Stops at the first refused one (see :meth:`approve`): it and the
        ones after it stay pending.
        """
        approved = []
        for pending in list(self.pending()):
            if delegator is None or pending.delegator == delegator:
                approved.append(self.approve(pending.delegation_id))
        return approved

    def reject(self, delegation_id: str) -> PendingDelegation:
        """Reject a pending delegation: the rule is discarded."""
        pending = self._pending.pop(delegation_id, None)
        if pending is None:
            raise AccessControlError(f"no pending delegation with id {delegation_id!r}")
        return pending
