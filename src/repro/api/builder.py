"""The fluent construction API: :func:`system` and :class:`SystemBuilder`.

One chain describes a whole deployment — peers, trust, wrappers, programs,
transport — and ``build()`` turns it into a running
:class:`~repro.api.facade.System`::

    from repro.api import system

    deployment = (
        system()
        .peer("alice").trusts("bob").program('''
            collection extensional persistent friends@alice(name);
            fact friends@alice("bob");
        ''')
        .peer("bob").wrapper(FacebookUserWrapper(service, "bob"))
        .build()
    )
    deployment.converge()

Peer-scoped calls (``trusts``, ``wrapper``, ``program``, ``rule``, ``fact``,
``schema``…) apply to the most recently introduced peer; ``peer(name)``
starts the next one; ``build()`` may be called from anywhere in the chain.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.runtime.inmemory import InMemoryTransport
from repro.runtime.system import WebdamLogSystem
from repro.runtime.transport import Transport
from repro.api.facade import PeerHandle, System

#: Transport names ``transport(...)`` resolves (besides explicit instances).
TRANSPORTS = ("inmemory", "tcp")


class BuildError(ValueError):
    """A builder chain described something that cannot be built."""


def system() -> "SystemBuilder":
    """Start describing a WebdamLog deployment (the entry point of the API)."""
    return SystemBuilder()


@dataclass
class _PeerSpec:
    """Everything the chain said about one peer, in declaration order."""

    name: str
    trusted: List[str] = field(default_factory=list)
    trust_all: bool = False
    schemas: List[RelationSchema] = field(default_factory=list)
    programs: List[str] = field(default_factory=list)
    rules: List[Union[str, Rule]] = field(default_factory=list)
    wrappers: List[object] = field(default_factory=list)
    facts: List[Union[str, Fact]] = field(default_factory=list)
    grants: List[Tuple[str, str, str]] = field(default_factory=list)
    declassifications: List[Tuple[str, str]] = field(default_factory=list)


class SystemBuilder:
    """Accumulates a deployment description; ``build()`` realises it."""

    def __init__(self):
        self._transport: Optional[Transport] = None
        self._transport_name: Optional[str] = None
        self._transport_options: dict = {}
        self._default_trusted: Tuple[str, ...] = ()
        self._auto_accept = True
        self._provenance = False
        self._storage: Optional[str] = None
        self._storage_options: dict = {}
        self._specs: List[_PeerSpec] = []

    # -- system-wide configuration ------------------------------------- #

    def transport(self, transport: Union[str, Transport],
                  **options) -> "SystemBuilder":
        """Choose the transport the deployment runs over.

        Pass an explicit :class:`~repro.runtime.transport.Transport`
        instance, or a name:

        * ``"inmemory"`` — the deterministic in-memory transport (the
          default); ``options`` are its constructor arguments (``latency``,
          ``drop_probability``, ``seed``, ``shuffle_seed``, ...);
        * ``"tcp"`` — the asyncio TCP transport
          (:class:`~repro.net.tcp.TcpTransport`): every peer gets a gossip
          node and a real localhost socket, with SWIM failure detection and
          dynamic churn.  ``options`` are its constructor arguments
          (``events``, ``quiet_period``, ``gossip``, ``swim``, ``seed``,
          ...).

        Named transports are constructed at ``build()`` time, so one builder
        chain can be built more than once without sharing sockets (an
        ``events`` log given here is shared: closing a deployment leaves it
        open for the next build).

        The transport also decides how updates travel: a fault-free
        in-memory transport carries raw messages, any other (a fault, or
        ``"tcp"``) causal replication — see ``docs/replication.md``.
        """
        if isinstance(transport, str):
            if transport not in TRANSPORTS:
                raise BuildError(
                    f"unknown transport {transport!r}; choose from "
                    f"{TRANSPORTS} (or pass a Transport instance)"
                )
            self._transport_name = transport
            self._transport_options = dict(options)
            self._transport = None
        else:
            if options:
                raise BuildError(
                    "transport options are only accepted with a named "
                    "transport; configure the explicit instance directly"
                )
            self._transport = transport
            self._transport_name = None
            self._transport_options = {}
        return self

    def default_trusted(self, *peers: str) -> "SystemBuilder":
        """Peers that every peer of the deployment trusts by default."""
        self._default_trusted = self._default_trusted + tuple(peers)
        return self

    def auto_accept_delegations(self, enabled: bool = True) -> "SystemBuilder":
        """Make every peer trust every delegator (the default).

        ``False`` leaves each peer trusting only the peers it names
        (``trusts``, ``trust_all``, ``default_trusted``); a delegation from
        any other peer waits in its pending queue for explicit approval.
        """
        self._auto_accept = enabled
        return self

    def provenance(self, enabled: bool = True) -> "SystemBuilder":
        """Track why-provenance at every peer of the deployment.

        Each peer gets a :class:`~repro.provenance.graph.ProvenanceTracker`
        maintained incrementally by the engine; fact updates ship their
        derivations across peers, ``deployment.explain(peer, fact)`` answers
        why/lineage queries, and the :mod:`repro.acl` view policies can
        filter query results by lineage.
        """
        self._provenance = enabled
        return self

    def storage(self, name: str, **options) -> "SystemBuilder":
        """Choose the storage backend every peer's fact store runs on.

        * ``"memory"`` — plain Python dicts with hash indexes (the default);
        * ``"sqlite"`` — each peer keeps its relations in a SQLite database
          and rule bodies compile to single SQL statements executed in-store.
          Pass ``path="some/dir"`` to make the deployment **durable**: each
          peer gets its own database file ``<path>/<peer>.db``, facts, rules
          and delegations survive :meth:`~repro.api.facade.System.close` (or
          process death), and rebuilding the deployment over the same path
          restores and re-converges it.  Without a path SQLite runs on a
          private in-memory database (same SQL engine, no durability).

        When this method is not called, the ``REPRO_STORE_BACKEND``
        environment variable picks the backend (defaulting to ``memory``) —
        that is how CI runs the whole suite once per backend.
        """
        if name not in ("memory", "sqlite"):
            raise BuildError(
                f"unknown storage backend {name!r}; choose from "
                "('memory', 'sqlite')"
            )
        if name != "sqlite" and options:
            raise BuildError("storage options are only accepted for 'sqlite'")
        self._storage = name
        self._storage_options = dict(options)
        return self

    # -- peers ----------------------------------------------------------- #

    def peer(self, name: str) -> "PeerBuilder":
        """Introduce a peer; subsequent peer-scoped calls configure it."""
        if any(spec.name == name for spec in self._specs):
            raise BuildError(f"peer {name!r} declared twice")
        spec = _PeerSpec(name=name)
        self._specs.append(spec)
        return PeerBuilder(self, spec)

    # -- realisation ------------------------------------------------------ #

    def build(self) -> System:
        """Assemble the described deployment and return its facade."""
        transport = self._transport if self._transport is not None else (
            self._make_named_transport()
        )
        runtime = WebdamLogSystem(
            default_trusted=self._default_trusted,
            auto_accept_delegations=self._auto_accept,
            transport=transport,
            provenance=self._provenance,
            storage=self._storage,
            storage_options=dict(self._storage_options),
        )
        built = System(runtime)
        for spec in self._specs:
            handle = built.add_peer(
                spec.name, trusted=tuple(spec.trusted),
                trust_all=spec.trust_all,
            )
            self._populate(handle, spec)
        return built

    def _make_named_transport(self) -> Transport:
        if self._transport_name == "tcp":
            # Imported lazily: the net subsystem (asyncio servers, gossip,
            # SWIM) is only paid for by deployments that ask for it.
            from repro.net.tcp import TcpTransport
            factory = TcpTransport
        else:
            factory = InMemoryTransport
        try:
            inspect.signature(factory).bind(**self._transport_options)
        except TypeError as error:
            # e.g. the in-memory ``latency`` passed to ``transport("tcp")``.
            raise BuildError(
                f"transport {self._transport_name or 'inmemory'!r}: {error}"
            ) from None
        return factory(**self._transport_options)

    def _populate(self, handle: PeerHandle, spec: _PeerSpec) -> None:
        for schema in spec.schemas:
            handle.declare(schema)
        for program in spec.programs:
            handle.load_program(program)
        for rule in spec.rules:
            handle.add_rule(rule)
        for wrapper in spec.wrappers:
            handle.attach_wrapper(wrapper)
        for fact in spec.facts:
            handle.insert(fact)
        for relation, grantee, privilege in spec.grants:
            handle.grant(relation, grantee, privilege)
        for view_relation, grantee in spec.declassifications:
            handle.declassify(view_relation, grantee)


class PeerBuilder:
    """The peer-scoped section of a builder chain.

    Every configuration method returns ``self``; ``peer(...)`` and
    ``build()`` hand control back to the owning :class:`SystemBuilder`, so
    chains read linearly.  ``done()`` returns the system builder explicitly.
    """

    def __init__(self, parent: SystemBuilder, spec: _PeerSpec):
        self._parent = parent
        self._spec = spec

    # -- peer-scoped configuration ----------------------------------------- #

    def trusts(self, *peers: str) -> "PeerBuilder":
        """Trust delegations from the given peers."""
        self._spec.trusted.extend(peers)
        return self

    def trust_all(self) -> "PeerBuilder":
        """Trust delegations from everybody."""
        self._spec.trust_all = True
        return self

    def wrapper(self, wrapper: object) -> "PeerBuilder":
        """Attach a wrapper (simulated external service) to this peer."""
        self._spec.wrappers.append(wrapper)
        return self

    def program(self, text: str) -> "PeerBuilder":
        """Load a WebdamLog program text at this peer."""
        self._spec.programs.append(text)
        return self

    def rule(self, rule: Union[str, Rule]) -> "PeerBuilder":
        """Add one rule to the peer's own program."""
        self._spec.rules.append(rule)
        return self

    def fact(self, fact: Union[str, Fact]) -> "PeerBuilder":
        """Insert one base fact at this peer."""
        self._spec.facts.append(fact)
        return self

    def schema(self, schema: RelationSchema) -> "PeerBuilder":
        """Declare a relation schema at this peer."""
        self._spec.schemas.append(schema)
        return self

    def grant(self, relation: str, grantee: str,
              privilege: str = "read") -> "PeerBuilder":
        """Grant an access-control privilege on one of this peer's relations.

        ``relation`` may be bare (qualified with the peer's name at build
        time); grants feed the deployment's
        :class:`~repro.acl.policies.PolicySet`, which ``query(...,
        viewer=...)`` live views filter through.
        """
        self._spec.grants.append((relation, grantee, privilege))
        return self

    def declassify(self, view_relation: str, grantee: str = "*") -> "PeerBuilder":
        """Declassify a derived relation (view) of this peer for ``grantee``."""
        self._spec.declassifications.append((view_relation, grantee))
        return self

    # -- chain continuation -------------------------------------------------- #

    def peer(self, name: str) -> "PeerBuilder":
        """Introduce the next peer of the deployment."""
        return self._parent.peer(name)

    def done(self) -> SystemBuilder:
        """Return to the system-level builder."""
        return self._parent

    def build(self) -> System:
        """Assemble the deployment described so far."""
        return self._parent.build()
