"""Access control for WebdamLog.

Two layers are reproduced:

* **Control of delegation** (demonstrated in the paper): each delegation sent
  by an *untrusted* peer is held in a pending queue until the receiving user
  explicitly accepts it through the interface
  (:class:`~repro.acl.delegation_control.DelegationController`).  A
  deployment trusts every delegator by default
  (``system().auto_accept_delegations()`` is on); the demo's
  control-of-delegation scenario,
  ``build_demo_scenario(control_delegation=True)``, trusts only ``sigmod``.
* The **access-control model under investigation** sketched in Section 2 of
  the paper: discretionary grants on stored relations, default policies for
  derived relations (views) computed from the provenance of their base
  relations, and explicit declassification overrides
  (:mod:`repro.acl.policies`).
"""

from repro.acl.trust import TrustStore
from repro.acl.delegation_control import (
    DelegationController,
    DelegationDecision,
    PendingDelegation,
)
from repro.acl.policies import (
    AccessControlPolicy,
    Grant,
    PolicyEngine,
    PolicySet,
    Privilege,
    ViewPolicy,
)

__all__ = [
    "TrustStore",
    "DelegationController",
    "DelegationDecision",
    "PendingDelegation",
    "AccessControlPolicy",
    "Grant",
    "PolicyEngine",
    "PolicySet",
    "Privilege",
    "ViewPolicy",
]
