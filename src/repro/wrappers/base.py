"""Wrapper base classes.

A wrapper participates in the peer's computation stage through two hooks
called by :class:`~repro.runtime.peer.Peer`:

* ``before_stage(peer)`` — runs before step 1 of the stage; typically pulls
  fresh data from the external service into the peer's relations;
* ``after_stage(peer, stage_result)`` — runs after step 3; typically pushes
  facts that rules or remote peers wrote into designated relations back to
  the external service.

Both hooks are optional; subclasses override what they need.

The hooks only run when the host peer runs a stage, and the reactive driver
(:class:`~repro.runtime.scheduler.ReactiveScheduler`) runs a stage only at a
peer that has something to do.  A wrapper whose input lives *outside* the
peer — an external service that can change on its own — therefore tells the
driver when it needs one: ``wants_stage(peer)`` is asked once per scheduling
cycle and a ``True`` activates the host even if its engine is idle.  The
default answer is ``True`` (poll me every cycle); a wrapper class without
the method is treated the same way.  Override it with a cheap check — it
runs every cycle for every wrapper, so compare a counter, do not fetch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.engine import StageResult
from repro.core.errors import WrapperError
from repro.core.facts import ChangeFeed, Fact
from repro.core.schema import RelationSchema


class Wrapper:
    """Base class of all wrappers."""

    #: Human-readable name of the wrapped service (e.g. ``"facebook"``).
    service_name: str = "service"

    def __init__(self):
        self._peer = None

    def attach(self, peer) -> None:
        """Called by :meth:`Peer.attach_wrapper`; declares the exported schemas."""
        self._peer = peer
        for schema in self.exported_schemas():
            peer.declare(schema)

    @property
    def peer(self):
        """The runtime peer the wrapper is attached to (``None`` before attach)."""
        return self._peer

    def exported_schemas(self) -> Tuple[RelationSchema, ...]:
        """The relation schemas this wrapper exports to WebdamLog."""
        return ()

    def wants_stage(self, peer) -> bool:
        """Whether the host peer must run a stage for this wrapper's sake.

        Asked by the work-driven drivers once per cycle.  ``True`` — the
        default — means "my hooks may find something new even though nothing
        reached the peer": the wrapper is polled every cycle.  Return
        ``False`` while the hooks are known to have nothing to do; writes to
        the host's relations and incoming messages activate the peer anyway.
        """
        return True

    def before_stage(self, peer) -> None:
        """Hook run before each computation stage of the host peer."""

    def after_stage(self, peer, stage_result: StageResult) -> None:
        """Hook run after each computation stage of the host peer."""


class PseudoPeerWrapper(Wrapper):
    """A wrapper that impersonates an entire peer backed by an external service.

    Subclasses implement :meth:`service_facts` (the current contents of the
    service, rendered as facts of the pseudo-peer's relations) and
    :meth:`push_to_service` (called with facts that appeared in the peer's
    relations but are not yet in the service — e.g. a photo posted by another
    peer).  The default ``before_stage`` performs a bidirectional
    reconciliation between the two, and :meth:`wants_stage` asks for one
    exactly when its inputs moved: the service (see :meth:`service_version`)
    or a reconciled relation of the host.
    """

    #: Relations whose locally-inserted facts are pushed back to the service.
    writable_relations: Tuple[str, ...] = ()

    def __init__(self):
        super().__init__()
        # What the last reconciliation saw — the service's change counter
        # when it was read, the host's state, and a change feed of every
        # relation it compared, drained when it finished; ``None`` before the
        # first one (or after the host's process died).
        self._reconciled: Optional[Tuple[object, object, Dict[str, ChangeFeed]]] = None

    def service_facts(self) -> Set[Fact]:
        """The current contents of the service as facts of the pseudo-peer."""
        raise NotImplementedError

    def push_to_service(self, fact: Fact) -> None:
        """Write one fact back into the external service."""
        raise NotImplementedError

    def service_version(self) -> Optional[object]:
        """The wrapped service's change counter, or ``None`` if it keeps none.

        A service object (``self.service``) that bumps a ``version``
        attribute in every mutator is only read again after it changed; one
        without is polled at every cycle.
        """
        return getattr(getattr(self, "service", None), "version", None)

    def wants_stage(self, peer) -> bool:
        """``True`` when a reconciliation could find something to do.

        That is: none has run yet, the service changed since the last one
        read it (the wrapper's own pushes count — the service decides how a
        write is rendered), or a reconciled relation of the host was written
        since (a stage stores the facts it receives *after* ``before_stage``,
        so they are pushed by the next one).
        """
        if self._reconciled is None:
            return True
        version, state, feeds = self._reconciled
        if version is None or version != self.service_version():
            return True
        return state is not peer.engine.state or any(feeds.values())

    def before_stage(self, peer) -> None:
        """Reconcile the service and the pseudo-peer's relations in both directions."""
        version = self.service_version()
        service_side = self.service_facts()
        state = peer.engine.state
        store = state.store
        local_side: Set[Fact] = set()
        relations = {f.relation for f in service_side} | set(self.writable_relations)
        for relation in relations:
            local_side |= set(store.facts(relation, peer.name))
        # Facts present in the service but missing locally: import them.
        for fact in service_side - local_side:
            store.insert(fact)
        # Facts written locally (by rules or remote peers) but missing in the
        # service: export them, restricted to the writable relations.
        for fact in local_side - service_side:
            if fact.relation in self.writable_relations:
                try:
                    self.push_to_service(fact)
                except WrapperError:
                    # The service refused the write (e.g. unauthorised user);
                    # drop the fact so the rejection is observable.
                    store.delete(fact)
        self._reconciled = (version, state, self._watch(state, peer.name, relations))

    def _watch(self, state, host: str, relations: Set[str]) -> Dict[str, ChangeFeed]:
        """Drained change feeds of ``relations`` at the host: the ones the
        last reconciliation watched, new ones for relations it did not."""
        last = self._reconciled
        watched = dict(last[2]) if last is not None and last[1] is state else {}
        feeds = {}
        for relation in relations:
            feed = watched.pop(relation, None)
            if feed is None:
                feed = state.watch(relation, host, self._forget)
            feed.drain(0)
            feeds[relation] = feed
        for relation, feed in watched.items():
            state.unwatch(relation, host, feed)
        return feeds

    def _forget(self) -> None:
        """The host's process died: the next cycle reconciles again."""
        self._reconciled = None


class RelationWatchingWrapper(Wrapper):
    """A wrapper that watches one relation of its host peer and reacts to new facts.

    Subclasses implement :meth:`handle_fact`.  Facts are processed exactly
    once (the wrapper remembers what it has already seen); by default the
    processed facts are removed from the relation, treating it as an outbox.
    """

    #: Name of the watched relation (located at the host peer).
    watched_relation: str = "outbox"
    #: Whether processed facts are removed from the relation.
    consume_facts: bool = True

    def __init__(self):
        super().__init__()
        self._processed: Set[Fact] = set()

    def wants_stage(self, peer) -> bool:
        """Never: the only input is what a stage left in the watched relation,
        and a write to that relation between stages activates the peer."""
        return False

    def handle_fact(self, peer, fact: Fact) -> None:
        """React to one new fact of the watched relation."""
        raise NotImplementedError

    def after_stage(self, peer, stage_result: StageResult) -> None:
        """Process every new fact of the watched relation."""
        store = peer.engine.state.store
        new_facts = [
            fact for fact in store.facts(self.watched_relation, peer.name)
            if fact not in self._processed
        ]
        for fact in new_facts:
            self.handle_fact(peer, fact)
            self._processed.add(fact)
            if self.consume_facts:
                store.delete(fact)
