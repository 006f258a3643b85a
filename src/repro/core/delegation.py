"""Delegation: the distinguishing feature of WebdamLog.

When a rule's body refers to relations that live on a remote peer, the local
peer evaluates the longest *local prefix* of the body (left to right) and,
for every satisfying assignment of that prefix, installs the partially
instantiated *remainder* of the rule at the peer owning the first non-local
atom.  Example from the paper — the rule at peer ``Jules``::

    attendeePictures@Jules($id, $name, $owner, $data) :-
        selectedAttendee@Jules($attendee),
        pictures@$attendee($id, $name, $owner, $data)

together with the fact ``selectedAttendee@Jules("Émilien")`` leads Jules to
delegate to ``Émilien`` the rule::

    attendeePictures@Jules($id, $name, $owner, $data) :-
        pictures@Émilien($id, $name, $owner, $data)

Delegations are *provisional*: they remain installed only as long as the
facts that justified them hold at the delegator.  The engine therefore
re-computes the set of required delegations at every stage and the
:class:`DelegationTracker` diffs it against what was previously sent,
emitting install and retract messages as needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import DelegationError
from repro.core.rules import Rule


@dataclass(frozen=True)
class Delegation:
    """A rule to be installed at a remote peer.

    Attributes
    ----------
    target:
        Peer at which the rule must be installed.
    rule:
        The delegated rule (already partially instantiated).
    delegator:
        Peer that sends the delegation.
    origin_rule_id:
        Identifier of the rule at the delegator from which this delegation
        was derived.
    delegation_id:
        Stable identifier: a hash of (delegator, target, canonical rule).
        Re-deriving the same delegation at a later stage yields the same id,
        which is what allows the tracker to avoid re-sending it.
    """

    target: str
    rule: Rule
    delegator: str
    origin_rule_id: str
    delegation_id: str = field(default="")

    def __post_init__(self):
        if not self.delegation_id:
            object.__setattr__(self, "delegation_id", self.compute_id())

    def compute_id(self) -> str:
        """Stable content-based identifier of the delegation."""
        canonical = repr((self.delegator, self.target, self.origin_rule_id,
                          self.rule.canonical_key()))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return f"deleg-{digest}"

    def __str__(self) -> str:
        return f"[{self.delegator} -> {self.target}] {self.rule}"


@dataclass(frozen=True)
class InstalledDelegation:
    """A delegation as seen by the *receiving* peer."""

    delegation_id: str
    delegator: str
    rule: Rule

    def __str__(self) -> str:
        return f"[from {self.delegator}] {self.rule}"


@dataclass
class DelegationDiff:
    """Difference between the delegations required now and those already sent."""

    to_install: List[Delegation] = field(default_factory=list)
    to_retract: List[Delegation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.to_install) or bool(self.to_retract)

    def counts(self) -> Tuple[int, int]:
        """``(installs, retracts)``."""
        return len(self.to_install), len(self.to_retract)


class DelegationTracker:
    """Tracks, per target peer, which delegations this peer currently has outstanding.

    The engine computes the full set of delegations required by the current
    stage; :meth:`diff` compares it with the outstanding set and returns what
    must be newly installed and what must be retracted.  :meth:`commit`
    records the new outstanding set once the messages have actually been
    emitted.
    """

    def __init__(self, owner: str):
        self.owner = owner
        self._outstanding: Dict[str, Delegation] = {}
        # Set by :meth:`restore`: the next diff installs every required
        # delegation again, since what was in flight at the last commit is lost.
        self._resend = False

    def restore(self, delegations: Iterable[Delegation]) -> None:
        """Take back what a previous process had outstanding (a reopened
        durable peer): the next diff retracts what is no longer required
        and installs everything required, already outstanding or not."""
        for delegation in delegations:
            self._outstanding[delegation.delegation_id] = delegation
        self._resend = True

    def outstanding(self) -> Tuple[Delegation, ...]:
        """Every delegation currently believed to be installed remotely."""
        return tuple(self._outstanding.values())

    def outstanding_for(self, target: str) -> Tuple[Delegation, ...]:
        """Outstanding delegations for one target peer."""
        return tuple(d for d in self._outstanding.values() if d.target == target)

    def diff(self, required: Iterable[Delegation]) -> DelegationDiff:
        """Compare ``required`` with the outstanding set."""
        required_by_id: Dict[str, Delegation] = {}
        for delegation in required:
            if delegation.delegator != self.owner:
                raise DelegationError(
                    f"peer {self.owner} cannot send a delegation authored by "
                    f"{delegation.delegator}"
                )
            required_by_id[delegation.delegation_id] = delegation
        diff = DelegationDiff()
        for delegation_id, delegation in required_by_id.items():
            if self._resend or delegation_id not in self._outstanding:
                diff.to_install.append(delegation)
        for delegation_id, delegation in self._outstanding.items():
            if delegation_id not in required_by_id:
                diff.to_retract.append(delegation)
        diff.to_install.sort(key=lambda d: d.delegation_id)
        diff.to_retract.sort(key=lambda d: d.delegation_id)
        return diff

    def commit(self, diff: DelegationDiff) -> None:
        """Record that the install/retract messages of ``diff`` have been sent."""
        self._resend = False
        for delegation in diff.to_retract:
            self._outstanding.pop(delegation.delegation_id, None)
        for delegation in diff.to_install:
            self._outstanding[delegation.delegation_id] = delegation


class DelegationStore:
    """Delegations installed *at* this peer by remote delegators."""

    def __init__(self, owner: str):
        self.owner = owner
        self._installed: Dict[str, InstalledDelegation] = {}
        # (all(), rules()) in their deterministic order, rebuilt after an
        # install or a retraction: every stage of the engine asks for the rules.
        self._ordered: Optional[Tuple[Tuple[InstalledDelegation, ...],
                                      Tuple[Rule, ...]]] = None

    def __len__(self) -> int:
        return len(self._installed)

    def __contains__(self, delegation_id: str) -> bool:
        return delegation_id in self._installed

    def get(self, delegation_id: str) -> Optional[InstalledDelegation]:
        """The installed delegation with this id, or ``None``."""
        return self._installed.get(delegation_id)

    def install(self, delegation_id: str, delegator: str, rule: Rule) -> InstalledDelegation:
        """Install (or overwrite) a delegated rule."""
        installed = InstalledDelegation(delegation_id=delegation_id, delegator=delegator,
                                        rule=rule)
        self._installed[delegation_id] = installed
        self._ordered = None
        return installed

    def retract(self, delegation_id: str) -> Optional[InstalledDelegation]:
        """Remove a delegated rule; returns it if it was installed."""
        self._ordered = None
        return self._installed.pop(delegation_id, None)

    def rules(self) -> Tuple[Rule, ...]:
        """The delegated rules, in a deterministic order."""
        return self._ordering()[1]

    def all(self) -> Tuple[InstalledDelegation, ...]:
        """Every installed delegation, in a deterministic order."""
        return self._ordering()[0]

    def _ordering(self) -> Tuple[Tuple[InstalledDelegation, ...], Tuple[Rule, ...]]:
        if self._ordered is None:
            ordered = tuple(sorted(self._installed.values(),
                                   key=lambda d: d.delegation_id))
            self._ordered = (ordered, tuple(d.rule for d in ordered))
        return self._ordered
