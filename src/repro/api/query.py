"""Reading results out of a running system: query handles and subscriptions.

Scenarios, benchmarks and tests used to reach into ``peer.engine.state`` to
see what a peer derived.  The two classes here replace that:

* :class:`QueryHandle` — the base of a re-runnable, lazily evaluated view
  over one relation at one peer.  Every read reflects the current state of
  the system, so a handle created before a run can be read after it.
  :class:`~repro.api.views.LiveView` — what ``System.query`` /
  ``PeerHandle.query`` return — is its one implementation: it supplies the
  reads, a **streaming** :meth:`~repro.api.views.LiveView.iter_facts` that
  drives the system's scheduler step by step and yields each fact as the
  stage that derived it completes, compiled-view maintenance, ``on_change``
  observation, ACL filtering and the ``close()`` lifecycle.
* :class:`Subscription` — a callback fired **exactly once per fact** that
  becomes visible in a watched relation.  Subscriptions are **delta-driven**:
  the :class:`~repro.api.facade.System` facade feeds them the
  :attr:`~repro.core.engine.StageResult.visible_delta` of every completed
  stage (through the orchestrator's stage-observer hook), so a callback costs
  O(changes) per stage instead of an O(total facts) relation re-scan per
  round, and fires as soon as the deriving stage completes rather than at
  the next round boundary.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.facts import Delta, Fact

#: Signature of a subscription callback: it receives each newly visible fact.
FactCallback = Callable[[Fact], None]


class QueryHandle:
    """A lazily evaluated view over the facts of one relation.

    The handle holds no data itself; every access re-reads the peer, so the
    same handle can be consulted before and after runs.  Subclasses supply
    :meth:`facts`.
    """

    def __init__(self, description: str):
        self.description = description

    def facts(self) -> Tuple[Fact, ...]:
        """The facts currently visible, in the peer's storage order."""
        raise NotImplementedError

    def rows(self) -> Tuple[Tuple, ...]:
        """The value tuples of the visible facts (relation/peer stripped)."""
        return tuple(fact.values for fact in self.facts())

    def sorted(self) -> Tuple[Fact, ...]:
        """The visible facts in a deterministic (string) order."""
        return tuple(sorted(self.facts(), key=str))

    def first(self) -> Optional[Fact]:
        """The first visible fact, or ``None`` when the relation is empty."""
        facts = self.facts()
        return facts[0] if facts else None

    def plan(self) -> Optional[Dict[str, object]]:
        """The query plan behind this handle, for observability.

        Plain relation handles have no plan (the read is a direct relation
        scan), so the base implementation returns ``None``.
        :class:`~repro.api.views.LiveView` overrides this with the compiled
        view's plan: the installed rules, the magic/demand relations the
        demand transformation added, and the per-rule literal orders (with
        estimated vs. actual cardinalities) the cost-based planner chose.
        See ``docs/planner.md``.
        """
        return None

    def iter_facts(self) -> Iterator[Fact]:
        """Stream the relation: yield facts while driving the system to fixpoint.

        :class:`~repro.api.views.LiveView` iterates the facts already
        visible, then **steps the system's scheduler** and yields each new
        fact as the stage that made it visible completes — interleaving
        consumption with execution, the way a client tails a live feed.  The
        base handle iterates the currently visible facts.
        """
        return iter(self.facts())

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def __len__(self) -> int:
        return len(self.facts())

    def __bool__(self) -> bool:
        return bool(self.facts())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryHandle({self.description}, {len(self)} facts)"


class Subscription:
    """A callback over the facts appearing in one relation.

    The subscription remembers which facts it has already reported (per
    hosting peer), so each fact fires the callback exactly once — even across
    multiple runs — until it is retracted; a fact that is retracted and later
    re-derived fires again, mirroring the visible change.

    Deliveries are driven by stage deltas (:meth:`on_delta`): the facade
    pushes every completed stage's visible delta to the active subscriptions.
    Facts that were already visible at subscription time are either marked
    seen (:meth:`prime`, the default) or queued for delivery
    (:meth:`enqueue_existing`, for ``include_existing=True``).

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
        # Set by the owning System so cancel() detaches itself; cleared on
        # the first cancellation, making repeated cancels (or cancels after
        # the deployment dropped the subscription) harmless no-ops.
        self._detach: Optional[Callable[["Subscription"], None]] = None

    def cancel(self) -> None:
        """Stop firing.  Idempotent: cancelling an already-cancelled (or
        already-detached) subscription is a no-op, never an error."""
        self.active = False
        self._backlog.clear()
        detach, self._detach = self._detach, None
        if detach is not None:
            try:
                detach(self)
            except Exception:  # pragma: no cover - defensive (torn-down system)
                pass

    # ------------------------------------------------------------------ #
    # initial visibility
    # ------------------------------------------------------------------ #

    def prime(self, peers: Dict[str, "object"]) -> None:
        """Mark every currently visible fact as already seen (no firing)."""
        for name, peer in self._targets(peers):
            self._seen[name] = set(peer.query(self.relation))

    def enqueue_existing(self, peers: Dict[str, "object"]) -> None:
        """Queue every currently visible fact for delivery (``include_existing``).

        The queued facts fire when the backlog is flushed — at the host
        peer's next completed stage, or when the facade resumes execution.
        """
        for name, peer in self._targets(peers):
            facts = peer.query(self.relation)  # already in rendering order
            if facts:
                self._backlog.setdefault(name, []).extend(facts)

    def flush_backlog(self, host: Optional[str] = None) -> int:
        """Deliver queued existing facts (for ``host``, or every host)."""
        if not self.active:
            self._backlog.clear()
            return 0
        hosts = [host] if host is not None else list(self._backlog)
        fired = 0
        for name in hosts:
            for fact in self._backlog.pop(name, ()):
                fired += self._fire(name, fact)
        self.delivered += fired
        return fired

    # ------------------------------------------------------------------ #
    # delta-driven delivery
    # ------------------------------------------------------------------ #

    def on_delta(self, host: str, delta: Delta) -> int:
        """Process the visible delta of one completed stage at ``host``.

        Insertions of the watched relation fire the callback (once per fact);
        deletions clear the fact from the seen set, so a later re-derivation
        fires again.  Returns the number of callbacks fired.
        """
        if not self.active or (self.peer is not None and host != self.peer):
            return 0
        flushed = self.flush_backlog(host)
        fired = 0
        # Filter first: a stage's delta spans every relation of the peer, a
        # subscription watches one — only its own facts are worth ordering.
        relation = self.relation
        for fact in sorted((fact for fact in delta.inserted
                            if fact.relation == relation and fact.peer == host),
                           key=str):
            fired += self._fire(host, fact)
        seen = self._seen.get(host)
        if seen:
            for fact in sorted((fact for fact in delta.deleted
                                if fact.relation == relation and fact in seen),
                               key=str):
                seen.discard(fact)
                if (self.on_remove is not None and fact.peer == host
                        and self.active):
                    self.on_remove(fact)
                    self.removals += 1
        self.delivered += fired
        return flushed + fired

    def notify_stage(self, host: str, delta: Delta) -> int:
        """Facade entry point: backlog flush + delta processing for one stage."""
        if not self.active:
            return 0
        if self.peer is not None and host != self.peer:
            return 0
        if not delta and not self._backlog:
            return 0
        return self.on_delta(host, delta)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _fire(self, host: str, fact: Fact) -> int:
        seen = self._seen.setdefault(host, set())
        if fact in seen:
            return 0
        seen.add(fact)
        self.callback(fact)
        return 1

    def _targets(self, peers: Dict[str, "object"]) -> List[Tuple[str, "object"]]:
        if self.peer is not None:
            peer = peers.get(self.peer)
            return [(self.peer, peer)] if peer is not None else []
        return sorted(peers.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = self.peer or "*"
        return (f"Subscription({self.relation}@{scope}, "
                f"delivered={self.delivered}, active={self.active})")
