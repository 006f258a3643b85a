"""Watching a running system: subscriptions.

Scenarios, benchmarks and tests used to reach into ``peer.engine.state`` to
see what a peer derived.  Reads now go through
:class:`~repro.api.views.LiveView` — what ``System.query`` /
``PeerHandle.query`` return — and watching goes through the class here:

* :class:`Subscription` — a callback fired **exactly once per fact** that
  becomes visible in a watched relation.  Subscriptions are **feed-driven**:
  the stores fill the relation's change feed at the write
  (:meth:`~repro.core.state.PeerState.watch`), and the subscription drains
  it after every completed stage at its host and whenever the facade
  resumes execution — a callback costs O(changes), not a relation re-scan,
  and a stage run behind the facade's back is reported at the next run.
  A ``viewer=`` view's observer (:class:`_ViewerSubscription`) also drains
  the provenance graph's change feed of the relation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.facts import ChangeFeed, Fact

#: Signature of a subscription callback: it receives each newly visible fact.
FactCallback = Callable[[Fact], None]


class Subscription:
    """A callback over the facts appearing in one relation.

    The subscription remembers which facts it has already reported (per
    hosting peer), so each fact fires the callback exactly once — even across
    multiple runs — until it is retracted; a fact that is retracted and later
    re-derived fires again, mirroring the visible change.

    Deliveries are driven by the relation's change feed at each host: the
    facade calls :meth:`notify_stage` after every completed stage and
    :meth:`flush_backlog` before execution resumes, and each drains the feed
    — a fed fact visible now and not reported yet fires ``callback``, a
    reported one no longer visible fires ``on_remove``.  A fact deleted and
    re-inserted between two drains fires neither: its visibility did not
    change.  Facts that were already visible at subscription time are either
    marked seen (:meth:`prime`, the default) or queued for delivery
    (``include_existing=True``; see :meth:`prime`).

    ``on_remove`` (optional) is the retraction-side callback: it fires when a
    fact previously reported (or primed as visible) stops being visible —
    this is what feeds :meth:`repro.api.views.LiveView.on_change` removal
    notifications.  A fact that is later re-derived fires ``callback`` again.
    """

    def __init__(self, relation: str, callback: FactCallback,
                 peer: Optional[str] = None,
                 on_remove: Optional[FactCallback] = None):
        self.relation = relation
        self.callback = callback
        self.on_remove = on_remove  # fired when a reported fact is retracted
        self.peer = peer  # None: watch the relation at every peer
        self.active = True
        self.delivered = 0
        self.removals = 0
        self._seen: Dict[str, Set[Fact]] = {}
        self._backlog: Dict[str, List[Fact]] = {}
        # The runtime's peers by name, and per host the peer state watched
        # there with the change feed of the relation it fills.
        self._peers: Mapping[str, object] = {}
        self._feeds: Dict[str, Tuple[object, ChangeFeed]] = {}
        # Set by the owning System so cancel() detaches itself; cleared on
        # the first cancellation, making repeated cancels (or cancels after
        # the deployment dropped the subscription) harmless no-ops.
        self._detach: Optional[Callable[["Subscription"], None]] = None

    def cancel(self) -> None:
        """Stop firing.  Idempotent: cancelling an already-cancelled (or
        already-detached) subscription is a no-op, never an error."""
        self.active = False
        self._backlog.clear()
        for host in list(self._feeds):
            self._unwatch(host)
        detach, self._detach = self._detach, None
        if detach is not None:
            try:
                detach(self)
            except Exception:  # pragma: no cover - defensive (torn-down system)
                pass

    # ------------------------------------------------------------------ #
    # initial visibility
    # ------------------------------------------------------------------ #

    def prime(self, peers: Mapping[str, object], include_existing: bool = False) -> None:
        """Watch the relation at each host of ``peers`` (a live name -> peer
        map) from now on.  Every fact visible now is marked seen (no firing)
        or, with ``include_existing``, queued for delivery: the queued facts
        fire when the backlog is flushed — at the host peer's next completed
        stage, or when the facade resumes execution."""
        self._peers = peers
        for name, state in self._targets():
            facts = state.query(self.relation)  # already in rendering order
            self._watch(name, state).drain(len(facts))
            if include_existing:
                self._backlog.setdefault(name, []).extend(facts)
            else:
                self._seen[name] = set(facts)

    # ------------------------------------------------------------------ #
    # feed-driven delivery
    # ------------------------------------------------------------------ #

    def flush_backlog(self) -> int:
        """Deliver the queued existing facts and whatever the feed of each
        watched host names; returns the number of callbacks fired."""
        if not self.active:
            self._backlog.clear()
            return 0
        return sum(self._drain(host)
                   for host in sorted(self._backlog.keys() | self._feeds.keys()))

    def notify_stage(self, host: str) -> int:
        """Facade entry point: a stage completed at ``host``; deliver its
        backlog and what its feed names."""
        if not self.active or (self.peer is not None and host != self.peer):
            return 0
        return self._drain(host)

    def _drain(self, host: str) -> int:
        """Fire ``host``'s backlog, then the fed facts that appeared, then
        those that vanished, each in rendering order.  A feed that
        overflowed, a host not watched yet and a peer re-added under the
        name diff the relation against what was reported.  Returns the
        number of ``callback`` calls."""
        fired = sum(self._fire(host, fact) for fact in self._backlog.pop(host, ()))
        peer = self._peers.get(host)
        state = None if peer is None else peer.engine.state
        kept = self._feeds.get(host)
        if kept is None or kept[0] is not state:
            self._unwatch(host)
            if state is None:
                return fired
            feed, changed = self._watch(host, state), None
        elif not kept[1]:
            return fired
        else:
            feed = kept[1]
            changed = None if None in feed else tuple(feed)
        seen = self._seen.setdefault(host, set())
        if changed is None:
            visible = state.query(self.relation)
            appeared = [fact for fact in visible if fact not in seen]
            vanished = seen.difference(visible)
        else:
            held = state.held
            appeared = [objects[0] for fact in changed
                        if fact not in seen and (objects := held(fact))]
            vanished = [fact for fact in changed if fact in seen and not held(fact)]
        # Drained before any callback runs: what a callback writes is fed
        # to the next drain.
        feed.drain(len(seen))
        for fact in sorted(appeared, key=str):
            fired += self._fire(host, fact)
        for fact in sorted(vanished, key=str):
            seen.discard(fact)
            if self.on_remove is not None and self.active:
                self.on_remove(fact)
                self.removals += 1
        return fired

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _fire(self, host: str, fact: Fact) -> int:
        seen = self._seen.setdefault(host, set())
        if fact in seen:
            return 0
        seen.add(fact)
        self.callback(fact)
        self.delivered += 1
        return 1

    def _watch(self, host: str, state) -> ChangeFeed:
        """Watch the relation at ``host`` from now on.  A process death drops
        the feed (its ``forget``); the next drain then diffs the relation."""
        feed = state.watch(self.relation, host, lambda: self._unwatch(host, state))
        self._feeds[host] = (state, feed)
        return feed

    def _unwatch(self, host: str, state=None) -> None:
        """Stop the feed watched at ``host`` (if it is ``state``'s, when given)."""
        kept = self._feeds.get(host)
        if kept is not None and (state is None or kept[0] is state):
            del self._feeds[host]
            kept[0].unwatch(self.relation, host, kept[1])

    def _targets(self) -> List[Tuple[str, object]]:
        """The hosts watched now, with their peer states, in name order."""
        names = sorted(self._peers) if self.peer is None else [self.peer]
        return [(name, self._peers[name].engine.state)
                for name in names if name in self._peers]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = self.peer or "*"
        return (f"Subscription({self.relation}@{scope}, "
                f"delivered={self.delivered}, active={self.active})")


class _ViewerSubscription(Subscription):
    """What ``LiveView.on_change`` returns for a ``viewer=`` view: it ends
    every stage holding what the view's ``rows()`` returns — the facts of
    ``relation`` at ``owner`` that ``viewer`` may read under the owner's
    policy engine in ``policies``.

    A fact is decided when it is delivered (or primed) and the decision is
    remembered: a retracted fact has no lineage left to check, so its
    removal is reported exactly when it was delivered.  A stage can also
    move the lineage of a fact whose visibility it leaves alone, so each
    drain at the owner also drains the provenance graph's change feed of
    the relation and decides again the facts it names — a delivered one the
    viewer may no longer read fires ``on_remove``, a visible undelivered one
    it now may read fires ``on_add``.  A grant or revoke is not a stage and
    moves nothing here.
    """

    def __init__(self, relation: str, owner: str, policies, viewer: str,
                 on_add: FactCallback, on_remove: Optional[FactCallback]):
        # `_withdraw` is installed even without a user callback, so the
        # delivered set stays in sync across retract-and-re-derive.
        super().__init__(relation, self._deliver, peer=owner,
                         on_remove=self._withdraw)
        self._policies = policies
        self._viewer = viewer
        self._on_add, self._on_remove = on_add, on_remove
        self._delivered: Set[Fact] = set()
        # (graph, its change feed of the relation) drained so far.
        self._lineage: Optional[Tuple[object, ChangeFeed]] = None
        self._moved(self._policies.engine(self.peer).graph)

    def _readable(self, fact: Fact) -> bool:
        return self._policies.engine(self.peer).can_read_fact(fact, self._viewer)

    def _deliver(self, fact: Fact) -> None:
        if self._readable(fact):
            self._delivered.add(fact)
            self._on_add(fact)

    def _withdraw(self, fact: Fact) -> None:
        if fact in self._delivered:
            self._delivered.discard(fact)
            if self._on_remove is not None:
                self._on_remove(fact)

    def prime(self, peers, include_existing: bool = False) -> None:
        super().prime(peers, include_existing)
        self._delivered = {fact for fact in self._seen.get(self.peer, ())
                           if self._readable(fact)}

    def cancel(self) -> None:
        super().cancel()
        self._moved(None)

    def _drain(self, host: str) -> int:
        fired = super()._drain(host)
        if self.active and host == self.peer:
            fired += self._recheck()
        return fired

    def _moved(self, graph) -> Optional[Tuple[Fact, ...]]:
        """What ``graph``'s change feed of the relation names since the last
        call; ``None`` when it cannot say (a first read, a cleared graph,
        another tracker, an overflow).  No graph: stop watching."""
        kept = self._lineage
        if kept is not None and kept[0] is not graph:
            kept[0].unwatch(self.relation, self.peer, kept[1])
            kept = self._lineage = None
        if graph is None:
            return ()
        if kept is None:
            kept = self._lineage = (graph, graph.watch(self.relation, self.peer))
            changed = None
        else:
            changed = None if None in kept[1] else tuple(kept[1])
        kept[1].drain(len(self._seen.get(self.peer, ())))
        return changed

    def _recheck(self) -> int:
        seen = self._seen.get(self.peer, set())
        changed = self._moved(self._policies.engine(self.peer).graph)
        candidates = seen if changed is None else changed
        delivered, fired = self._delivered, 0
        for fact in sorted(candidates, key=str):
            if fact in delivered:
                if not self._readable(fact):
                    self._withdraw(fact)
                    self.removals += 1
            elif fact in seen and self._readable(fact):
                delivered.add(fact)
                self._on_add(fact)
                fired += 1
        self.delivered += fired
        return fired
