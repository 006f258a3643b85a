"""Trust relationships between peers.

The demo's simplified model for controlling delegation needs only a binary
notion of trust: delegations from *trusted* peers are installed immediately,
delegations from *untrusted* peers are queued for explicit approval.  The
paper states that "by default, all peers except the sigmod peer will be
considered untrusted"; ``TrustStore(owner, trusted=["sigmod"])`` is exactly
that configuration.
"""

from __future__ import annotations

from typing import Iterable, Set


class TrustStore:
    """The set of peers that one peer trusts.

    A trust store belongs to a single peer (``owner``).  The owner always
    trusts itself.  Trust is directional and not transitive.
    """

    def __init__(self, owner: str, trusted: Iterable[str] = (),
                 trust_all: bool = False):
        self.owner = owner
        self._trusted: Set[str] = set(trusted)
        self._trusted.add(owner)
        self.trust_all = trust_all

    def is_trusted(self, peer: str) -> bool:
        """``True`` when ``peer`` is trusted by the owner."""
        return self.trust_all or peer in self._trusted

    def trust(self, peer: str) -> None:
        """Mark ``peer`` as trusted."""
        self._trusted.add(peer)

    def __contains__(self, peer: str) -> bool:
        return self.is_trusted(peer)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TrustStore(owner={self.owner!r}, trusted={sorted(self._trusted)!r})"
