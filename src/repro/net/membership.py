"""SWIM-style membership: who is in the deployment, and are they alive.

The model follows the SWIM paper's split: a *dissemination* component
(membership assertions piggybacked on regular traffic, each retransmitted a
bounded number of times) and a *failure detection* component (periodic
ping / ping-req probing — driven by :class:`~repro.net.node.GossipNode` —
whose verdicts feed back in as assertions).  Each member carries an
**incarnation number**: only the member itself may increment it, which is
how a live peer refutes a false suspicion (``alive`` at a higher
incarnation overrides ``suspect`` at a lower one).

The state machine per member::

    alive --(probe timeout)--> suspect --(suspect_timeout)--> dead
      ^                           |
      +--(alive @ higher inc)-----+          leave  -> left (graceful)

Everything here is pure state + virtual time: ``now`` is always passed in,
so the table runs identically under the simulator (virtual clock) and
direct unit tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.frames import MemberUpdate

#: Member statuses, in increasing "deadness" (used for same-incarnation
#: precedence: a later status in this order overrides an earlier one).
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
LEFT = "left"

_PRECEDENCE = {ALIVE: 0, SUSPECT: 1, DEAD: 2, LEFT: 2}


@dataclass
class SwimConfig:
    """Timing and fanout constants of the SWIM protocol.

    The defaults suit the virtual-clock simulator (all values in seconds); see ``docs/net-protocol.md`` for the tuning
    rationale.
    """

    #: Period between liveness probes issued by each node.
    ping_interval: float = 0.2
    #: How long a direct probe waits for its ack before going indirect.
    ping_timeout: float = 0.15
    #: How many intermediaries a ping-req round asks to probe the target.
    ping_req_fanout: int = 2
    #: Extra wait for an indirect ack before declaring suspicion.
    ping_req_timeout: float = 0.3
    #: How long a suspect may linger before being declared dead.
    suspect_timeout: float = 1.0
    #: Maximum membership updates piggybacked on one frame.
    piggyback_limit: int = 16
    #: How many times each membership update is piggybacked before retiring.
    retransmit: int = 6


@dataclass
class Member:
    """The local view of one peer.

    Written by its :class:`MembershipTable` only — every answer the table
    keeps ready is derived from these fields at the place they change.
    """

    name: str
    address: str
    status: str
    incarnation: int
    changed_at: float
    #: Position in the table's insertion order (this node itself is 0).
    ordinal: int = 0

    def is_routable(self) -> bool:
        """``True`` while the member is a valid gossip/probe target."""
        return self.status in (ALIVE, SUSPECT) and bool(self.address)

    def as_update(self) -> MemberUpdate:
        return MemberUpdate(peer=self.name, status=self.status,
                            incarnation=self.incarnation, address=self.address)


class MembershipTable:
    """One node's membership view plus its dissemination queue.

    **The table is the only writer of a** :class:`Member`.  Members are
    created and changed in four places — :meth:`apply`'s new-member and
    supersede branches, its stale-update-teaches-an-address branch, and this
    node's own row in :meth:`leave` / self-refutation — and each of the
    first three ends in :meth:`_reindex`, which keeps ready what callers
    used to recompute by scanning ``members`` on every tick and frame:

    * ``_routable`` — the names :meth:`knows` answers ``True`` for, this
      node excluded, as a name-sorted list (``bisect``);
    * ``_suspects`` — the names whose status is ``suspect``;
    * ``_peer_status`` — ``name -> status`` of every member but this node,
      in insertion order;
    * ``Member.ordinal`` — the member's position in ``members``.

    Invariant: after every public call each of them equals what a rescan of
    ``members`` would give.  This node's own row is in none of them (nobody
    routes to, suspects or lists itself), which is why the two places that
    touch only that row maintain no index.  Members are never removed — the
    dead and the departed stay as tombstones.
    """

    def __init__(self, self_name: str, self_address: str,
                 config: Optional[SwimConfig] = None, now: float = 0.0):
        self.self_name = self_name
        self.config = config or SwimConfig()
        self.members: Dict[str, Member] = {
            self_name: Member(self_name, self_address, ALIVE, 0, now),
        }
        self._routable: List[str] = []
        self._suspects: Set[str] = set()
        self._peer_status: Dict[str, str] = {}
        # peer -> [update, remaining retransmissions], oldest first —
        # drained by piggyback().
        self._queue: Dict[str, List] = {}

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def incarnation(self) -> int:
        """This node's own incarnation number."""
        return self.members[self.self_name].incarnation

    @property
    def self_address(self) -> str:
        return self.members[self.self_name].address

    def member(self, name: str) -> Optional[Member]:
        return self.members.get(name)

    def address_of(self, name: str) -> Optional[str]:
        member = self.members.get(name)
        return member.address if member is not None and member.address else None

    @property
    def routable(self) -> Sequence[str]:
        """The maintained list behind :meth:`routable_peers` — read-only.

        For callers that index or bisect it in place (target sampling);
        anything that wants to keep or reorder the names takes the copy.
        """
        return self._routable

    def routable_peers(self) -> List[str]:
        """Peers this node may probe or gossip to (alive or suspect), sorted."""
        return list(self._routable)

    def alive_peers(self) -> List[str]:
        """Peers currently believed alive (excluding self), sorted."""
        return sorted(name for name, status in self._peer_status.items()
                      if status == ALIVE)

    def peer_statuses(self) -> Dict[str, str]:
        """``peer -> status`` of every member but this node (a copy)."""
        return dict(self._peer_status)

    def status_of(self, name: str) -> Optional[str]:
        member = self.members.get(name)
        return member.status if member is not None else None

    def knows(self, name: str) -> bool:
        """``True`` when ``name`` appears in the table with a routable state."""
        member = self.members.get(name)
        return member is not None and member.is_routable()

    # ------------------------------------------------------------------ #
    # assertions (local verdicts and piggybacked remote updates)
    # ------------------------------------------------------------------ #

    def apply(self, update: MemberUpdate, now: float) -> Optional[str]:
        """Merge one membership assertion; returns the transition or ``None``.

        The return value is the *new status* when the assertion changed this
        table (``"alive"``, ``"suspect"``, ``"dead"``, ``"left"``,
        ``"refuted"`` for a self-suspicion that was refuted), ``None`` when
        it was stale or redundant.  Accepted changes are queued for further
        piggybacked dissemination.
        """
        if update.peer == self.self_name:
            return self._apply_about_self(update)
        current = self.members.get(update.peer)
        if current is None:
            # Dead and left peers we never saw are recorded like any other
            # (as tombstones): a stale "alive" arriving later must not
            # resurrect them.
            current = Member(update.peer, update.address, update.status,
                             update.incarnation, now,
                             ordinal=len(self.members))
            self.members[update.peer] = current
            self._reindex(current)
            self._enqueue(update)
            return update.status
        if not _supersedes(update.incarnation, update.status, current):
            # Stale — but an address we lack is still worth learning.
            if update.address and not current.address:
                current.address = update.address
                self._reindex(current)
            return None
        current.status = update.status
        current.incarnation = update.incarnation
        current.changed_at = now
        if update.address:
            current.address = update.address
        self._reindex(current)
        self._enqueue(current.as_update())
        return update.status

    def merge_wire(self, encoded_updates: Iterable[Dict[str, Any]],
                   now: float) -> List[Tuple[str, str]]:
        """:meth:`apply` a frame's ``updates`` list straight from its wire form.

        Returns ``(peer, transition)`` for the assertions that changed the
        table, in order.  The merge is a join: an assertion the table
        already dominates changes nothing, so it is rejected from its wire
        dictionary — a :class:`MemberUpdate` is built only for one that
        supersedes, teaches a missing address or is about this node.  (On
        an anti-entropy digest, which repeats the sender's whole view, that
        is a few in a hundred.)
        """
        members, self_name = self.members, self.self_name
        transitions: List[Tuple[str, str]] = []
        for encoded in encoded_updates:
            peer = encoded["peer"]
            current = members.get(peer)
            if (current is not None and peer != self_name
                    and not _supersedes(encoded.get("incarnation", 0),
                                        encoded["status"], current)
                    and (current.address or not encoded.get("address"))):
                continue
            transition = self.apply(MemberUpdate.from_wire(encoded), now)
            if transition:
                transitions.append((peer, transition))
        return transitions

    def _apply_about_self(self, update: MemberUpdate) -> Optional[str]:
        """Assertions about *this* node: refute suspicion/death by
        out-incarnating it (only the member itself may bump its number)."""
        me = self.members[self.self_name]
        if update.status in (SUSPECT, DEAD) and update.incarnation >= me.incarnation:
            me.incarnation = update.incarnation + 1
            self._enqueue(me.as_update())
            return "refuted"
        return None

    def _reindex(self, member: Member) -> None:
        """Bring every index in line with ``member`` as it now stands.

        Called wherever a member other than this node is created or
        changed; it looks only at the member's current fields, so calling
        it again is harmless.
        """
        name = member.name
        self._peer_status[name] = member.status
        if member.status == SUSPECT:
            self._suspects.add(name)
        else:
            self._suspects.discard(name)
        routable = self._routable
        position = bisect_left(routable, name)
        listed = position < len(routable) and routable[position] == name
        if member.is_routable():
            if not listed:
                routable.insert(position, name)
        elif listed:
            del routable[position]

    def suspect(self, name: str, now: float) -> Optional[str]:
        """Local failure-detector verdict: ``name`` missed its probes."""
        member = self.members.get(name)
        if member is None or member.status != ALIVE:
            return None
        return self.apply(MemberUpdate(name, SUSPECT, member.incarnation,
                                       member.address), now)

    def declare_dead(self, name: str, now: float) -> Optional[str]:
        """Local verdict: ``name``'s suspicion timed out."""
        member = self.members.get(name)
        if member is None or member.status in (DEAD, LEFT):
            return None
        return self.apply(MemberUpdate(name, DEAD, member.incarnation,
                                       member.address), now)

    def expire_suspects(self, now: float) -> List[str]:
        """Promote suspects older than ``suspect_timeout`` to dead."""
        if not self._suspects:
            return []
        members, timeout = self.members, self.config.suspect_timeout
        expired = [name for name in self._suspects
                   if now - members[name].changed_at >= timeout]
        # Verdicts go out in the table's insertion order, whatever order
        # the suspicions arose in: it is the order of the ``dead`` events
        # and of the dissemination queue.
        expired.sort(key=lambda name: members[name].ordinal)
        for name in expired:
            self.declare_dead(name, now)
        return expired

    def leave(self, now: float) -> MemberUpdate:
        """Mark this node as gracefully departed; returns the leave update."""
        me = self.members[self.self_name]
        me.incarnation += 1
        me.status = LEFT
        me.changed_at = now
        update = me.as_update()
        self._enqueue(update)
        return update

    # ------------------------------------------------------------------ #
    # dissemination
    # ------------------------------------------------------------------ #

    def _enqueue(self, update: MemberUpdate) -> None:
        # Replace any queued entry about the same peer: the new assertion
        # supersedes it, and stale retransmissions would only be rejected.
        # (Popped first so the new entry goes to the back of the queue.)
        self._queue.pop(update.peer, None)
        self._queue[update.peer] = [update, self.config.retransmit]

    def piggyback(self, limit: Optional[int] = None) -> Tuple[MemberUpdate, ...]:
        """Updates to attach to an outgoing frame (decrements their budget)."""
        if not self._queue:
            return ()
        limit = self.config.piggyback_limit if limit is None else limit
        selected = list(islice(self._queue.values(), limit))
        for entry in selected:
            entry[1] -= 1
            if entry[1] <= 0:
                del self._queue[entry[0].peer]
        return tuple(entry[0] for entry in selected)

    def wire_view(self) -> List[Dict[str, Any]]:
        """Every member in wire form, name-sorted: a digest's ``updates``.

        The same records, in the same order, as encoding
        :meth:`full_view` — built without the :class:`MemberUpdate` in
        between, because anti-entropy sends the whole view every time.
        """
        return [{"peer": name, "status": member.status,
                 "incarnation": member.incarnation, "address": member.address}
                for name, member in sorted(self.members.items())]

    def full_view(self) -> Tuple[MemberUpdate, ...]:
        """Every member as an update, name-sorted."""
        return tuple(member.as_update()
                     for _, member in sorted(self.members.items()))

    def pending_updates(self) -> int:
        """Number of updates still awaiting dissemination."""
        return len(self._queue)


def _supersedes(incarnation: int, status: str, current: Member) -> bool:
    """Does ``status`` at ``incarnation`` override what ``current`` records?"""
    if incarnation > current.incarnation:
        # A higher incarnation always wins — it is newer information
        # from the member itself (alive refutation or rejoin).
        return True
    if incarnation < current.incarnation:
        return False
    return _PRECEDENCE[status] > _PRECEDENCE[current.status]
