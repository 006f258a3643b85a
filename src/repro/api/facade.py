"""The runtime facades behind :func:`repro.api.system`.

:class:`System` wraps a :class:`~repro.runtime.system.WebdamLogSystem` and is
what :meth:`SystemBuilder.build() <repro.api.builder.SystemBuilder.build>`
returns: one object through which deployments are driven (runs), inspected
(queries, stats, metrics) and observed (subscriptions).  :class:`PeerHandle`
is the per-peer slice of that surface.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter, deque
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.acl.policies import AccessControlPolicy, PolicySet, Privilege
from repro.core.errors import SchemaError
from repro.core.facts import Fact
from repro.core.parser import parse_fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Explanation
from repro.runtime.inmemory import NetworkStats
from repro.runtime.peer import Peer, PeerStageReport
from repro.runtime.scheduler import drive
from repro.runtime.system import RoundReport, RunSummary, WebdamLogSystem
from repro.runtime.transport import Transport
from repro.api.errors import ReproApiError
from repro.api.query import FactCallback, Subscription
from repro.api.views import (CompiledView, LiveView, QueryLike, compile_query,
                             is_declarative)

#: The relations of an auto-named view (:meth:`System._next_view_name`): its
#: answer ``_viewN``, an auxiliary ``_viewN_<name>``, a magic
#: ``_magic__viewN_<name>``; and its demand anchor ``_demand__viewN``.
_AUTO_VIEW_HEAD = re.compile(r"(?:_magic_)?_view\d+(?:_.*)?")
_AUTO_VIEW_ANCHOR = re.compile(r"_demand__view\d+")


class PeerHandle:
    """The public face of one peer inside a built :class:`System`."""

    def __init__(self, system: "System", peer: Peer):
        self._system = system
        self._peer = peer

    @property
    def name(self) -> str:
        """The peer's name."""
        return self._peer.name

    def unwrap(self) -> Peer:
        """The underlying runtime :class:`~repro.runtime.peer.Peer`."""
        return self._peer

    # -- programs and rules -------------------------------------------- #

    def load_program(self, program: str):
        """Load a WebdamLog program text at this peer."""
        return self._peer.load_program(program)

    def add_rule(self, rule: Union[str, Rule]) -> Rule:
        """Add one rule to the peer's own program."""
        return self._peer.add_rule(rule)

    def replace_rule(self, rule_id: str, new_rule: Union[str, Rule]) -> Rule:
        """Replace one of the peer's own rules."""
        return self._peer.replace_rule(rule_id, new_rule)

    def rules(self) -> Tuple[Rule, ...]:
        """The peer's own rules."""
        return self._peer.rules()

    def declare(self, schema: RelationSchema) -> RelationSchema:
        """Declare a relation schema."""
        return self._peer.declare(schema)

    # -- facts ----------------------------------------------------------- #

    def insert(self, fact: Union[str, Fact]):
        """Insert a base fact (local) or queue a remote update."""
        return self._peer.insert_fact(fact)

    def insert_many(self, facts: Sequence[Union[str, Fact]]):
        """Insert many base facts at once (bulk-load fast path).

        Local facts hit the store through one batched write per relation
        (``executemany`` on SQL backends); remote facts are queued as
        individual updates, exactly as :meth:`insert` would.
        """
        return self._peer.insert_facts(facts)

    def delete(self, fact: Union[str, Fact]):
        """Delete a base fact (local) or queue a remote deletion."""
        return self._peer.delete_fact(fact)

    # -- reading --------------------------------------------------------- #

    def query(self, query: QueryLike, peer: Optional[str] = None,
              viewer: Optional[str] = None,
              name: Optional[str] = None) -> LiveView:
        """Ask a declarative query at this peer; returns a :class:`LiveView`.

        ``query`` is either a bare relation name (the degenerate one-literal
        case — the relation is read directly, nothing is installed) or a full
        Webdamlog query: a rule body with joins, negation, bound arguments
        and cross-peer ``relation@peer`` literals, or an explicit
        ``ans(...) :- body`` rule (optionally with ``count``/``sum``/``min``/
        ``max``/``avg`` head aggregates).  Declarative queries are compiled
        into an ephemeral intensional view installed into this peer's engine
        and incrementally maintained until :meth:`LiveView.close`.

        ``peer`` (single-relation form only) is the **location qualifier** of
        the relation — ``query("pictures", peer="bob")`` asks for
        ``pictures@bob`` *as visible at this peer*.  Facts of a relation
        located at another peer are never visible locally (they can only be
        reached through delegation), so a remote qualifier names what the
        relation is, not a remote fetch; an unknown qualifier raises
        :class:`~repro.api.errors.ReproApiError`.  ``viewer`` filters every
        read through the owner's access-control policy; ``name`` overrides
        the generated view-relation name.
        """
        if not is_declarative(query):
            return self._system._degenerate_view(
                self, query.strip(), location=peer, viewer=viewer)
        if peer is not None:
            raise ReproApiError(
                "peer= is the location qualifier of a single-relation query; "
                "a declarative query names its peers inline (rel@peer literals)"
            )
        return self._system._install_view(self, query, viewer=viewer, name=name)

    def subscribe(self, relation: str, callback: FactCallback,
                  on_remove: Optional[FactCallback] = None) -> Subscription:
        """Watch ``relation`` at this peer (see :meth:`System.subscribe`)."""
        return self._system.subscribe(relation, callback, peer=self._peer.name,
                                      on_remove=on_remove)

    # -- access control ---------------------------------------------------- #

    @property
    def access_policy(self) -> AccessControlPolicy:
        """This peer's discretionary access-control policy (see :mod:`repro.acl`)."""
        return self._system.access_policy(self._peer.name)

    def grant(self, relation: str, grantee: str,
              privilege: Union[str, Privilege] = Privilege.READ) -> "PeerHandle":
        """Grant a privilege on one of this peer's relations; returns ``self``.

        ``relation`` may be bare (qualified with this peer's name) or a full
        ``name@peer`` identifier.
        """
        if "@" not in relation:
            relation = f"{relation}@{self._peer.name}"
        if isinstance(privilege, str):
            privilege = Privilege(privilege.lower())
        self.access_policy.grant(relation, grantee, privilege)
        return self

    def declassify(self, view_relation: str, grantee: str = "*") -> "PeerHandle":
        """Declassify a derived relation (view) for ``grantee``; returns ``self``."""
        if "@" not in view_relation:
            view_relation = f"{view_relation}@{self._peer.name}"
        self.access_policy.declassify(view_relation, grantee)
        return self

    def explain(self, fact: Union[str, Fact]) -> Explanation:
        """Why/lineage story of ``fact`` (see :meth:`System.explain`)."""
        return self._system.explain(self._peer.name, fact)

    def snapshot(self) -> Dict[str, Tuple[Fact, ...]]:
        """Every non-empty relation visible at this peer."""
        return self._peer.engine.snapshot()

    # -- trust and delegation control ------------------------------------ #

    def trust(self, peer: str) -> "PeerHandle":
        """Add ``peer`` to this peer's trusted set; returns ``self``."""
        self._peer.trust_peer(peer)
        return self

    def pending_delegations(self):
        """Delegations waiting for this user's approval."""
        return self._peer.pending_delegations()

    def approve_delegation(self, delegation_id: str):
        """Approve one pending delegation."""
        return self._peer.approve_delegation(delegation_id)

    def approve_all_delegations(self, delegator: Optional[str] = None):
        """Approve every pending delegation (optionally from one delegator)."""
        return self._peer.approve_all_delegations(delegator)

    def reject_delegation(self, delegation_id: str):
        """Reject one pending delegation."""
        return self._peer.reject_delegation(delegation_id)

    def installed_delegations(self):
        """Delegations installed at this peer."""
        return self._peer.installed_delegations()

    # -- wrappers --------------------------------------------------------- #

    def attach_wrapper(self, wrapper) -> "PeerHandle":
        """Attach a wrapper (simulated external service); returns ``self``."""
        self._peer.attach_wrapper(wrapper)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerHandle({self._peer.name!r})"


class System:
    """A built WebdamLog deployment: peers + transport + observation hooks.

    Constructed by :meth:`SystemBuilder.build()
    <repro.api.builder.SystemBuilder.build>`; wraps (and exposes, as
    :attr:`runtime`) a :class:`~repro.runtime.system.WebdamLogSystem`.
    """

    def __init__(self, runtime: WebdamLogSystem):
        self.runtime = runtime
        self._handles: Dict[str, PeerHandle] = {}
        self._subscriptions: List[Subscription] = []
        #: Per-owner access-control policies and cached decision engines,
        #: used by ``query(..., viewer=...)`` / :class:`LiveView` filtering.
        self.policies = PolicySet(self._tracker_of)
        #: Compiled views hold installed rules until closed, so they are kept;
        #: a single-relation handle holds nothing and is only remembered
        #: while its caller keeps it (a page polling ``query("rel")`` every
        #: second must not grow the deployment).
        self._views: List[LiveView] = []
        self._relation_views: "weakref.WeakSet[LiveView]" = weakref.WeakSet()
        self._view_counter = 0
        runtime.add_stage_observer(self._on_stage)

    def _tracker_of(self, owner: str):
        peer = self.runtime.peers.get(owner)
        return None if peer is None else peer.engine.provenance

    # -- topology --------------------------------------------------------- #

    def add_peer(self, name: str, program: Optional[str] = None,
                 trusted: Sequence[str] = (), trust_all: bool = False) -> PeerHandle:
        """Create and register a new peer at run time; returns its handle."""
        peer = self.runtime.add_peer(name, trusted=trusted, trust_all=trust_all)
        if peer.engine.state.restored:
            self._drop_orphaned_views(peer)
        if program:
            peer.load_program(program)
        handle = PeerHandle(self, peer)
        self._handles[name] = handle
        return handle

    def remove_peer(self, name: str) -> Optional[Peer]:
        """Remove a peer, detaching everything the facade attached to it.

        Beyond dropping the runtime peer and its transport registration
        (undelivered messages to it are dropped) and closing its storage
        backend (a durable peer keeps its writes), removal closes the live
        views hosted at the peer (uninstalling their compiled rules while
        the engine still exists), cancels the subscriptions scoped to it,
        and forgets its handle — so a departed peer leaves no observer or
        view residue that would fire on a name later reused.
        """
        for view in (*self._views, *self._relation_views):
            if view.owner == name:
                # settle=False: the peer is leaving, driving the deployment
                # to fixpoint on its behalf is the caller's decision.
                view.close(settle=False)
        for subscription in tuple(self._subscriptions):
            if subscription.peer == name:
                subscription.cancel()
                self._drop_subscription(subscription)
        self._handles.pop(name, None)
        return self.runtime.remove_peer(name)

    def peer(self, name: str) -> PeerHandle:
        """The handle of one peer."""
        if name not in self._handles:
            self._handles[name] = PeerHandle(self, self.runtime.peer(name))
        return self._handles[name]

    def peer_names(self) -> Tuple[str, ...]:
        """Sorted names of the registered peers."""
        return self.runtime.peer_names()

    def __contains__(self, name: str) -> bool:
        return name in self.runtime

    def __len__(self) -> int:
        return len(self.runtime)

    # -- execution --------------------------------------------------------- #

    def converge(self, max_steps: Optional[int] = None,
                 extra_rounds: int = 0) -> RunSummary:
        """Drive the deployment to a fixpoint.

        This is the primary execution verb: a cycle runs stages only at the
        peers with pending work, so the returned summary's ``peer_reports``
        list only those.  Pending ``include_existing`` subscription
        deliveries are flushed before execution resumes.
        """
        self._flush_subscription_backlogs()
        return self.runtime.converge(max_steps=max_steps, extra_rounds=extra_rounds)

    def step(self) -> RoundReport:
        """Execute one scheduling cycle."""
        self._flush_subscription_backlogs()
        return self.runtime.step()

    async def aconverge(self, max_steps: Optional[int] = None,
                        extra_rounds: int = 0) -> RunSummary:
        """:meth:`converge` from asyncio, yielding to the event loop after
        every stage (see :meth:`WebdamLogSystem.aconverge
        <repro.runtime.system.WebdamLogSystem.aconverge>`)."""
        self._flush_subscription_backlogs()
        return await self.runtime.aconverge(max_steps=max_steps,
                                            extra_rounds=extra_rounds)

    @property
    def current_round(self) -> int:
        """Number of scheduling cycles executed so far."""
        return self.runtime.current_round

    # -- reading ----------------------------------------------------------- #

    def query(self, at: str, query: QueryLike, peer: Optional[str] = None,
              viewer: Optional[str] = None,
              name: Optional[str] = None) -> LiveView:
        """Ask a declarative query at peer ``at``; returns a :class:`LiveView`.

        ``at`` is the peer the question is asked at (the view's owner);
        ``peer`` is the *location qualifier* of a single-relation query —
        ``query("alice", "pictures", peer="bob")`` reads ``pictures@bob`` as
        visible at ``alice``.  See :meth:`PeerHandle.query` for the accepted
        query shapes.  An unknown ``at`` (or qualifier) raises
        :class:`~repro.api.errors.ReproApiError` rather than ``KeyError``.
        """
        if at not in self.runtime.peers:
            raise ReproApiError(
                f"cannot query at unknown peer {at!r}; registered peers: "
                f"{', '.join(self.runtime.peer_names()) or '(none)'}"
            )
        return self.peer(at).query(query, peer=peer, viewer=viewer, name=name)

    # -- live-view plumbing (used by PeerHandle.query) ---------------------- #

    def _next_view_name(self, owner: str) -> str:
        """A fresh auto-generated view name at ``owner``.

        Names the owner already declares are skipped: a reopened durable
        store still holds the schemas of the auto-named views that were open
        when it shut down, while this counter restarts at zero.
        """
        schemas = self.runtime.peer(owner).engine.state.schemas
        while True:
            self._view_counter += 1
            name = f"_view{self._view_counter}"
            if schemas.get(name, owner) is None:
                return name

    def _drop_orphaned_views(self, peer: Peer) -> None:
        """Drop the rules and demand anchors that the auto-named views open
        when a durable ``peer`` last ran left in its store.  A view handle
        never outlives its ``System``, so nothing reaches them any more (a
        named view's rules are adopted again by :meth:`_view_rules`).  Their
        schemas stay, so :meth:`_next_view_name` still skips those names."""
        peer.remove_rules([rule.rule_id for rule in peer.rules()
                           if _AUTO_VIEW_HEAD.fullmatch(rule.head.relation_constant() or "")])
        for schema in peer.engine.state.schemas:
            if schema.peer == peer.name and _AUTO_VIEW_ANCHOR.fullmatch(schema.name):
                for fact in peer.query(schema.name):
                    peer.delete_fact(fact)

    def _degenerate_view(self, handle: PeerHandle, relation: str,
                         location: Optional[str],
                         viewer: Optional[str]) -> LiveView:
        owner = handle.name
        if location is not None and location != owner \
                and location not in self.runtime.peers:
            raise ReproApiError(
                f"cannot query {relation}@{location}: unknown peer "
                f"{location!r} (peer= is the location qualifier of the "
                "relation, not a remote fetch)"
            )
        view = LiveView(self, owner, relation, location=location, viewer=viewer)
        self._relation_views.add(view)
        return view

    def _install_view(self, handle: PeerHandle, query: QueryLike,
                      viewer: Optional[str], name: Optional[str]) -> LiveView:
        owner = handle.name
        peer = self.runtime.peer(owner)
        compiled = compile_query(
            query, owner=owner, view_name=name or self._next_view_name(owner))
        try:
            peer.declare(compiled.schema)
            for schema in compiled.extra_schemas:
                peer.declare(schema)
        except SchemaError as exc:
            raise ReproApiError(
                f"cannot install view {compiled.view_name!r} at {owner}: {exc}"
            ) from exc
        compiled = replace(compiled, rules=self._view_rules(peer, compiled))
        for fact in compiled.anchor_facts:
            peer.insert_fact(fact)
        view = LiveView(self, owner, compiled.view_name, compiled=compiled,
                        viewer=viewer)
        self._views.append(view)
        return view

    def _view_rules(self, peer: Peer, compiled: CompiledView) -> Tuple[Rule, ...]:
        """Install ``compiled``'s rules at ``peer``; return the installed ones.

        A durable owner reopened while a view was open restores that view's
        rules with its program: an own rule equal to a compiled one up to
        variable names (:meth:`~repro.core.rules.Rule.canonical_key`) that no
        open view holds is adopted instead of installed twice, so closing
        the view asked again removes it.
        """
        held = {rule_id for view in self._views for rule_id in view.compiled.rule_ids()}
        heads = {rule.head.relation for rule in compiled.rules}
        restored = {rule.canonical_key(): rule for rule in peer.rules()
                    if rule.head.relation in heads and rule.rule_id not in held}
        installed = []
        for rule in compiled.rules:
            adopted = restored.pop(rule.canonical_key(), None) if restored else None
            installed.append(adopted if adopted is not None else peer.add_rule(rule))
        return tuple(installed)

    def _forget_view(self, view: LiveView) -> None:
        self._relation_views.discard(view)
        try:
            self._views.remove(view)
        except ValueError:
            pass

    def open_views(self) -> Tuple[LiveView, ...]:
        """The compiled live views currently open, in opening order.

        Single-relation handles (``query("rel")``) install nothing and are
        not listed; they are still closed with their peer or the deployment
        while somebody holds them.
        """
        return tuple(self._views)

    # -- access control ------------------------------------------------------ #

    def access_policy(self, owner: str) -> AccessControlPolicy:
        """The access-control policy governing relations owned by ``owner``."""
        return self.policies.policy(owner)

    def subscribe(self, relation: str, callback: FactCallback,
                  peer: Optional[str] = None,
                  include_existing: bool = False,
                  on_remove: Optional[FactCallback] = None) -> Subscription:
        """Fire ``callback(fact)`` once for each fact appearing in ``relation``.

        ``peer`` restricts the watch to one hosting peer (default: every
        peer).  Facts already visible at subscription time are skipped unless
        ``include_existing=True`` — in which case they are queued and fire
        when execution resumes.  Deliveries are **feed-driven**: the
        callback fires as soon as the stage that made a fact visible
        completes, from the relation's change feed
        (:class:`~repro.core.facts.ChangeFeed`) — never from a relation
        re-scan; what a stage run behind the facade's back changed fires
        when execution resumes.  ``on_remove`` (optional) fires once per
        reported fact that stops being visible.
        """
        return self._attach(Subscription(relation, callback, peer=peer,
                                         on_remove=on_remove),
                            include_existing)

    def _attach(self, subscription: Subscription,
                include_existing: bool = False) -> Subscription:
        """Start feeding a built subscription (see :meth:`subscribe`)."""
        subscription.prime(self.runtime.peers, include_existing)
        subscription._detach = self._drop_subscription
        self._subscriptions.append(subscription)
        return subscription

    def explain(self, at: str, fact: Union[str, Fact]) -> Explanation:
        """Why/lineage story of ``fact`` as known at peer ``at``.

        Requires the deployment to have been built with
        ``system().provenance()``.  Returns an
        :class:`~repro.provenance.graph.Explanation` — the alternative
        immediate supports (*why*), the transitive lineage down to base
        facts, the base relations the lineage draws from (the input of the
        access-control view policy) and every peer that contributed.
        Derivations received from remote peers are included, so lineage
        crosses peer boundaries.
        """
        if isinstance(fact, str):
            fact = parse_fact(fact, default_peer=at)
        return self.runtime.peer(at).explain(fact)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Cancel and forget a subscription (idempotent)."""
        subscription.cancel()
        self._drop_subscription(subscription)

    def _drop_subscription(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def _on_stage(self, name: str, report: PeerStageReport) -> None:
        """Stage observer: let the subscriptions drain their change feeds
        of the peer that ran the stage."""
        for subscription in tuple(self._subscriptions):
            if not subscription.active:
                self._drop_subscription(subscription)
                continue
            subscription.notify_stage(name)

    def _flush_subscription_backlogs(self) -> None:
        for subscription in tuple(self._subscriptions):
            subscription.flush_backlog()

    def stream_facts(self, at: str, relation: str,
                     max_steps: Optional[int] = None) -> Iterator[Fact]:
        """Stream ``relation`` at peer ``at`` while driving the system to fixpoint.

        Yields the facts already visible, then runs the deployment's cycles
        and yields each fact as the stage that derived it completes, until
        the system converges (or ``max_steps`` cycles ran).  This is the
        engine behind :meth:`LiveView.iter_facts`.
        """
        buffer: deque = deque()
        subscription = self.subscribe(relation, buffer.append, peer=at,
                                      include_existing=True)
        try:
            subscription.flush_backlog()
            while buffer:
                yield buffer.popleft()
            for _ in drive(self.runtime, max_steps=max_steps):
                while buffer:
                    yield buffer.popleft()
        finally:
            self.unsubscribe(subscription)

    # -- transport and reporting ------------------------------------------- #

    @property
    def transport(self) -> Transport:
        """The transport the deployment runs over."""
        return self.runtime.transport

    @property
    def stats(self) -> NetworkStats:
        """The transport's accumulated counters."""
        return self.runtime.transport.stats

    def reset_stats(self) -> NetworkStats:
        """Return the transport counters so far and start fresh ones."""
        return self.runtime.transport.reset_stats()

    def metrics(self, peer: Optional[str] = None) -> Counter:
        """Work counts and gauges keyed ``(layer, name)``: every peer's
        summed with the transport's, or one ``peer``'s (see
        :meth:`WebdamLogSystem.metrics`)."""
        return self.runtime.metrics(peer)

    def snapshot(self) -> Dict[str, Dict[str, Tuple[Fact, ...]]]:
        """Per-peer snapshot of every visible relation."""
        return self.runtime.snapshot()

    # -- lifecycle ---------------------------------------------------------- #

    def close(self) -> None:
        """Tear the deployment down; idempotent.

        Closes every open live view (without settling), cancels every
        subscription, detaches the facade's stage observer, commits and
        releases every peer's storage backend, and — when the transport owns
        external resources (the TCP transport's sockets and event loop) —
        closes the transport.  A deployment built on the in-memory transport
        and memory storage works without ever calling ``close``; a durable
        (``storage("sqlite", path=...)``) or networked one should use the
        context-manager form::

            with system().transport("tcp").build() as deployment:
                ...
        """
        for view in (*self._views, *self._relation_views):
            view.close(settle=False)
        for subscription in tuple(self._subscriptions):
            subscription.cancel()
        self._subscriptions.clear()
        self.runtime.remove_stage_observer(self._on_stage)
        self.runtime.close()
        transport_close = getattr(self.runtime.transport, "close", None)
        if callable(transport_close):
            transport_close()

    def __enter__(self) -> "System":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"System({len(self.runtime)} peers, "
                f"round {self.runtime.current_round}, "
                f"scheduler {self.runtime.scheduler.name}, "
                f"transport {type(self.runtime.transport).__name__})")
