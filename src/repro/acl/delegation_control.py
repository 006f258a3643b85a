"""Control of delegation: the pending-queue model demonstrated in the paper.

"The demonstration of Wepic will provide a simplified model for control of
delegation, in which each delegation sent by an untrusted peer will be
pending in a queue until the user explicitly accepts it via the Web
interface."  (Section 3 of the paper.)

:class:`DelegationController` sits between the transport and a peer's engine:

* a delegation install from a **trusted** delegator is forwarded to the
  engine immediately (decision ``AUTO_ACCEPTED``);
* a delegation install from an **untrusted** delegator is parked in the
  pending queue (decision ``PENDING``) and a notification is recorded — the
  headless UI model reads those notifications;
* the user later calls :meth:`approve` or :meth:`reject`;
* a retraction for a delegation that is still pending simply removes it from
  the queue; a retraction for an installed delegation is forwarded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.acl.trust import TrustStore
from repro.core.engine import WebdamLogEngine
from repro.core.errors import AccessControlError
from repro.core.rules import Rule


class DelegationDecision(enum.Enum):
    """Outcome of submitting a delegation to the controller."""

    AUTO_ACCEPTED = "auto-accepted"
    PENDING = "pending"
    APPROVED = "approved"
    REJECTED = "rejected"
    RETRACTED = "retracted"


@dataclass
class PendingDelegation:
    """A delegation waiting for explicit user approval."""

    delegation_id: str
    delegator: str
    rule: Rule
    received_at_round: Optional[int] = None

    def describe(self) -> str:
        """One-line description shown in the pending-delegations frame of the UI."""
        return f"{self.delegator} wants to install: {self.rule}"


@dataclass
class DelegationEvent:
    """An entry of the controller's audit log."""

    delegation_id: str
    delegator: str
    decision: DelegationDecision
    detail: str = ""


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
        self._log: List[DelegationEvent] = []
        self._notifications: List[str] = []

    # ------------------------------------------------------------------ #
    # incoming messages
    # ------------------------------------------------------------------ #

    def submit(self, delegator: str, delegation_id: str, rule: Rule,
               round_number: Optional[int] = None) -> DelegationDecision:
        """Handle an incoming delegation install."""
        if self.trust.is_trusted(delegator):
            self.engine.receive_delegation(delegator, delegation_id, rule)
            self._log.append(DelegationEvent(delegation_id, delegator,
                                             DelegationDecision.AUTO_ACCEPTED))
            return DelegationDecision.AUTO_ACCEPTED
        pending = PendingDelegation(delegation_id=delegation_id, delegator=delegator,
                                    rule=rule, received_at_round=round_number)
        self._pending[delegation_id] = pending
        self._log.append(DelegationEvent(delegation_id, delegator,
                                         DelegationDecision.PENDING))
        self._notifications.append(pending.describe())
        return DelegationDecision.PENDING

    def submit_retraction(self, delegator: str, delegation_id: str) -> DelegationDecision:
        """Handle an incoming delegation retraction."""
        pending = self._pending.pop(delegation_id, None)
        if pending is not None:
            if pending.delegator != delegator:
                # Someone else trying to retract a pending delegation: put it back.
                self._pending[delegation_id] = pending
                raise AccessControlError(
                    f"peer {delegator} cannot retract a delegation submitted by "
                    f"{pending.delegator}"
                )
            self._log.append(DelegationEvent(delegation_id, delegator,
                                             DelegationDecision.RETRACTED,
                                             "retracted while pending"))
            return DelegationDecision.RETRACTED
        self.engine.receive_delegation_retraction(delegator, delegation_id)
        self._log.append(DelegationEvent(delegation_id, delegator,
                                         DelegationDecision.RETRACTED))
        return DelegationDecision.RETRACTED

    # ------------------------------------------------------------------ #
    # user decisions
    # ------------------------------------------------------------------ #

    def pending(self) -> Tuple[PendingDelegation, ...]:
        """The delegations currently awaiting approval (deterministic order)."""
        return tuple(sorted(self._pending.values(), key=lambda p: p.delegation_id))

    def approve(self, delegation_id: str) -> PendingDelegation:
        """Approve a pending delegation: the rule is installed at the engine."""
        pending = self._pending.pop(delegation_id, None)
        if pending is None:
            raise AccessControlError(f"no pending delegation with id {delegation_id!r}")
        self.engine.receive_delegation(pending.delegator, pending.delegation_id, pending.rule)
        self._log.append(DelegationEvent(delegation_id, pending.delegator,
                                         DelegationDecision.APPROVED))
        return pending

    def approve_all(self, delegator: Optional[str] = None) -> List[PendingDelegation]:
        """Approve every pending delegation (optionally restricted to one delegator)."""
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
        self._log.append(DelegationEvent(delegation_id, pending.delegator,
                                         DelegationDecision.REJECTED))
        return pending

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def notifications(self, clear: bool = False) -> Tuple[str, ...]:
        """Human-readable notifications of pending delegations (Figure 3's banner)."""
        notes = tuple(self._notifications)
        if clear:
            self._notifications.clear()
        return notes

    def log(self) -> Tuple[DelegationEvent, ...]:
        """The full audit log of decisions taken by this controller."""
        return tuple(self._log)

    def counts(self) -> Dict[str, int]:
        """Counters per decision kind, plus ``pending_now``."""
        counters: Dict[str, int] = {decision.value: 0 for decision in DelegationDecision}
        for event in self._log:
            counters[event.decision.value] += 1
        counters["pending_now"] = len(self._pending)
        return counters
