"""The access-control model sketched in Section 2 of the paper.

The model ("under active investigation" in 2013) combines:

* **discretionary** control — owners grant privileges on the stored
  relations they own (:class:`Grant`, :meth:`AccessControlPolicy.grant`);
* **mandatory** / derived control — for a derived relation (a view), the
  default policy is computed from the provenance of its base relations: a
  peer may read a derived fact only if it may read *every* base relation in
  that fact's lineage (:class:`ViewPolicy`);
* **declassification** — the owner of a view may override the derived policy
  and grant access anyway (:meth:`AccessControlPolicy.declassify`).

The model subsumes SQL-style view-based access control: granting ``READ`` on
a view without declassification still requires access to the underlying base
relations, while declassifying the view makes it behave like a SQL view owned
by a definer with sufficient rights.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.errors import AccessControlError
from repro.core.facts import ChangeFeed, Fact, fact_identity
from repro.provenance.graph import ProvenanceGraph


class Privilege(enum.Enum):
    """Privileges that can be granted on a relation."""

    READ = "read"
    WRITE = "write"
    GRANT = "grant"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Grant:
    """A discretionary grant: ``grantee`` may exercise ``privilege`` on ``relation``."""

    relation: str
    grantee: str
    privilege: Privilege
    grantor: str

    def __str__(self) -> str:
        return f"{self.grantor} grants {self.privilege} on {self.relation} to {self.grantee}"


#: Wildcard grantee meaning "every peer".
PUBLIC = "*"


class AccessControlPolicy:
    """Discretionary grants plus view declassification for one peer's relations.

    The policy object belongs to ``owner``; the owner implicitly holds every
    privilege on every relation located at itself.
    """

    def __init__(self, owner: str):
        self.owner = owner
        self._grants: Set[Grant] = set()
        self._declassified: Dict[str, Set[str]] = {}
        #: Bumped on every grant/revoke/declassify; :class:`PolicyEngine`
        #: keys its decision caches off it.
        self.version = 0

    # ------------------------------------------------------------------ #
    # discretionary grants
    # ------------------------------------------------------------------ #

    def grant(self, relation: str, grantee: str, privilege: Privilege,
              grantor: Optional[str] = None) -> Grant:
        """Grant a privilege on ``relation`` (qualified ``name@peer``) to ``grantee``.

        Only the owner, or a peer holding the ``GRANT`` privilege on the
        relation, may grant.
        """
        grantor = grantor or self.owner
        if grantor != self.owner and not self._holds(relation, grantor, Privilege.GRANT):
            raise AccessControlError(
                f"{grantor} may not grant on {relation}: no GRANT privilege"
            )
        created = Grant(relation=relation, grantee=grantee, privilege=privilege,
                        grantor=grantor)
        if created not in self._grants:
            self._grants.add(created)
            self.version += 1
        return created

    def revoke(self, relation: str, grantee: str,
               privilege: Optional[Privilege] = None) -> int:
        """Revoke grants; returns how many grant entries were removed."""
        to_remove = {
            g for g in self._grants
            if g.relation == relation and g.grantee == grantee
            and (privilege is None or g.privilege == privilege)
        }
        if to_remove:
            self._grants -= to_remove
            self.version += 1
        return len(to_remove)

    def grants(self) -> Tuple[Grant, ...]:
        """Every grant issued so far, in a deterministic order."""
        return tuple(sorted(self._grants, key=lambda g: (g.relation, g.grantee,
                                                         g.privilege.value)))

    def _holds(self, relation: str, peer: str, privilege: Privilege) -> bool:
        if peer == self.owner:
            return True
        for grant in self._grants:
            if grant.relation == relation and grant.privilege == privilege \
                    and grant.grantee in (peer, PUBLIC):
                return True
        return False

    def can_read(self, relation: str, peer: str) -> bool:
        """``True`` when ``peer`` holds ``READ`` on ``relation``."""
        return self._holds(relation, peer, Privilege.READ)

    def can_write(self, relation: str, peer: str) -> bool:
        """``True`` when ``peer`` holds ``WRITE`` on ``relation``."""
        return self._holds(relation, peer, Privilege.WRITE)

    # ------------------------------------------------------------------ #
    # view policies derived from provenance
    # ------------------------------------------------------------------ #

    def declassify(self, view_relation: str, grantee: str = PUBLIC) -> None:
        """Override the provenance-derived policy of ``view_relation`` for ``grantee``."""
        grantees = self._declassified.setdefault(view_relation, set())
        if grantee not in grantees:
            grantees.add(grantee)
            self.version += 1

    def declassified_grantees(self, view_relation: str) -> FrozenSet[str]:
        """The grantees benefiting from a declassification of ``view_relation``."""
        return frozenset(self._declassified.get(view_relation, ()))

    def is_declassified(self, view_relation: str, peer: str) -> bool:
        """``True`` when ``peer`` benefits from a declassification of the view."""
        grantees = self._declassified.get(view_relation, set())
        return PUBLIC in grantees or peer in grantees

    def can_read_fact(self, fact: Fact, peer: str,
                      provenance: Optional[ProvenanceGraph] = None) -> bool:
        """Decide whether ``peer`` may read a (possibly derived) fact.

        * For a base fact, the discretionary policy of its relation applies.
        * For a derived fact, the default policy requires ``peer`` to be able
          to read **every** base relation in the fact's lineage, unless the
          view has been declassified for ``peer`` (in which case a ``READ``
          grant on the view itself, or ownership, suffices).
        """
        relation = fact.qualified_relation
        if provenance is None or not provenance.is_derived(fact):
            return self.can_read(relation, peer)
        if self.is_declassified(relation, peer):
            return peer == self.owner or self.can_read(relation, peer)
        base_relations = provenance.base_relations(fact)
        return all(self.can_read(base, peer) for base in base_relations)

    def readable_facts(self, facts: Iterable[Fact], peer: str,
                       provenance: Optional[ProvenanceGraph] = None) -> Tuple[Fact, ...]:
        """Filter ``facts`` down to those ``peer`` may read."""
        return tuple(f for f in facts if self.can_read_fact(f, peer, provenance))


@dataclass
class ViewPolicy:
    """The effective read policy of one derived relation (view).

    ``base_relations`` is the set of base relations the view draws from; the
    effective reader set is the intersection of the readers of every base
    relation, plus any declassification grantees.
    """

    view_relation: str
    base_relations: FrozenSet[str]
    declassified_for: FrozenSet[str] = frozenset()

    @classmethod
    def derive(cls, view_relation: str, provenance: ProvenanceGraph,
               facts: Iterable[Fact],
               declassified_for: Iterable[str] = ()) -> "ViewPolicy":
        """Compute the default policy of a view from the provenance of its facts."""
        bases: Set[str] = set()
        for fact in facts:
            bases |= set(provenance.base_relations(fact))
        return cls(view_relation=view_relation, base_relations=frozenset(bases),
                   declassified_for=frozenset(declassified_for))

    def readers(self, policy: AccessControlPolicy,
                candidate_peers: Iterable[str]) -> Tuple[str, ...]:
        """Which of ``candidate_peers`` may read the whole view under ``policy``."""
        allowed = []
        for peer in candidate_peers:
            if peer in self.declassified_for or PUBLIC in self.declassified_for:
                allowed.append(peer)
                continue
            if all(policy.can_read(base, peer) for base in self.base_relations):
                allowed.append(peer)
        return tuple(sorted(allowed))


class _Answer:
    """What one viewer may read of one relation, kept between reads.

    ``default`` is the relation-level decision, which every fact the graph
    does not derive gets; ``exceptions`` are the derived facts whose
    lineage decides otherwise (by :data:`fact_identity`), kept up to date
    from ``feed``, the graph's change feed of the relation.  ``raw`` /
    ``facts`` are the last input and its answer, valid while no exception
    moves.

    ``rows`` maps the ``id`` of a fact to whether it is an exception
    (``held`` keeps the facts alive, so an id stays its fact's).  The memory
    backend stores fact objects and hands the same ones to every snapshot
    of a relation, so a later pass decides the facts it met without hashing
    or comparing one; ``row_hashes`` tells when an exception that moved may
    have a remembered fact.
    """

    __slots__ = ("graph", "feed", "default", "exceptions", "raw", "facts",
                 "rows", "held", "row_hashes")

    def __init__(self, graph: Optional[ProvenanceGraph], default: bool):
        self.graph = graph
        self.feed: Optional[ChangeFeed] = None
        self.default = default
        self.exceptions: Set[Tuple] = set()
        self.raw: Optional[Tuple[Fact, ...]] = None
        self.facts: Tuple[Fact, ...] = ()
        self.rows: Dict[int, bool] = {}
        self.held: List[Fact] = []
        self.row_hashes: Set[int] = set()

    def forget_rows(self) -> None:
        self.rows.clear()
        self.held.clear()
        self.row_hashes.clear()

    def select(self, facts: Tuple[Fact, ...]) -> Tuple[Fact, ...]:
        """The facts ``default`` and ``exceptions`` say the viewer may read,
        in their order: one pass over the fact identities."""
        rows = self.rows
        if len(rows) > 2 * len(facts) + 64:
            self.forget_rows()                     # facts long deleted
        ids = list(map(id, facts))
        excepted = list(map(rows.get, ids))
        if None in excepted:
            positions = list(compress(count(), map(operator.is_, excepted,
                                                   repeat(None))))
            fresh = list(map(facts.__getitem__, positions))
            keys = list(map(fact_identity, fresh))
            marks = list(map(self.exceptions.__contains__, keys))
            rows.update(zip(map(ids.__getitem__, positions), marks))
            self.held.extend(fresh)
            self.row_hashes.update(map(hash, keys))
            for position, mark in zip(positions, marks):
                excepted[position] = mark
        if self.default:
            return tuple(compress(facts, map(operator.not_, excepted)))
        return tuple(compress(facts, excepted))


class PolicyEngine:
    """Access-control decisions over a maintained provenance graph, and the
    maintained answer of each (relation, viewer) filter.

    :meth:`AccessControlPolicy.can_read_fact` re-derives the lineage of a
    fact on every check; this engine is the scalable front-end for query
    filtering.  Per-fact checks probe the provenance graph's maintained
    lineage index (O(1) amortised) and their decisions are cached by
    ``(peer, base-relation set)``.  A filter over one relation
    (:meth:`filter_readable` with ``relation=``) keeps one relation-level
    decision, which covers every fact the graph does not derive, and the
    derived facts that are exceptions to it; a read re-decides only the
    facts the graph's change feed of the relation
    (:meth:`~repro.provenance.graph.ProvenanceGraph.watch`) names, and
    answers with the unfiltered tuple itself when there are no exceptions,
    else with one membership pass over it, in its order.

    What is kept is rebuilt when a grant / revoke / declassify bumps
    :attr:`AccessControlPolicy.version`, when the graph is cleared or the
    feed overflowed, and when the engine is bound to another tracker; a
    dropped answer stops its feed.  The
    :class:`ViewPolicy` cache is dropped on any graph mutation
    (:attr:`~repro.provenance.graph.ProvenanceGraph.version`).

    ``provenance`` may be a :class:`~repro.provenance.graph.ProvenanceGraph`,
    a :class:`~repro.provenance.graph.ProvenanceTracker` (its graph is used)
    or ``None`` (every fact is treated as a base fact).
    """

    def __init__(self, policy: AccessControlPolicy, provenance=None):
        self.policy = policy
        self.provenance = provenance
        self._policy_version = policy.version
        self._graph_version: Optional[int] = None
        # (peer, frozenset of base relations) -> decision; policy-dependent only.
        self._decisions: Dict[Tuple[str, FrozenSet[str]], bool] = {}
        # (relation, peer) -> discretionary READ decision; policy-dependent only.
        self._relation_reads: Dict[Tuple[str, str], bool] = {}
        # view relation -> derived ViewPolicy; graph- and policy-dependent.
        self._view_policies: Dict[str, ViewPolicy] = {}
        # (relation, viewer) -> maintained answer; policy-dependent, and
        # bound to the graph it was built from.
        self._answers: Dict[Tuple[str, str], _Answer] = {}

    @property
    def graph(self) -> Optional[ProvenanceGraph]:
        """The provenance graph decisions are made over (``None``: none)."""
        return getattr(self.provenance, "graph", self.provenance)

    def _sync(self) -> Optional[ProvenanceGraph]:
        """Drop stale caches when the policy or the graph changed."""
        if self.policy.version != self._policy_version:
            self._policy_version = self.policy.version
            self._decisions.clear()
            self._relation_reads.clear()
            self._view_policies.clear()
            for key in list(self._answers):
                self._drop(key)
        graph = self.graph
        graph_version = None if graph is None else graph.version
        if graph_version != self._graph_version:
            self._graph_version = graph_version
            self._view_policies.clear()
        return graph

    def _can_read_relation(self, relation: str, peer: str) -> bool:
        key = (relation, peer)
        decision = self._relation_reads.get(key)
        if decision is None:
            decision = self._relation_reads[key] = self.policy.can_read(relation, peer)
        return decision

    def can_read_fact(self, fact: Fact, peer: str) -> bool:
        """Decide whether ``peer`` may read ``fact`` (same semantics as
        :meth:`AccessControlPolicy.can_read_fact`, at O(1) per fact)."""
        graph = self._sync()
        relation = fact.qualified_relation
        if graph is None or not graph.is_derived(fact):
            return self._can_read_relation(relation, peer)
        if self.policy.is_declassified(relation, peer):
            return peer == self.policy.owner or self._can_read_relation(relation, peer)
        bases = graph.base_relations(fact)
        key = (peer, bases)
        decision = self._decisions.get(key)
        if decision is None:
            decision = self._decisions[key] = all(
                self._can_read_relation(base, peer) for base in bases)
        return decision

    def filter_readable(self, facts: Iterable[Fact], peer: str,
                        relation: Optional[str] = None) -> Tuple[Fact, ...]:
        """Filter ``facts`` down to those ``peer`` may read, in their order.

        With ``relation`` (the qualified name of every one of ``facts``) the
        answer comes from the maintained (relation, viewer) state, and is
        the same tuple again for the same input while nothing moved.
        Without it every fact is checked.
        """
        if relation is None:
            return tuple(fact for fact in facts if self.can_read_fact(fact, peer))
        facts = tuple(facts)
        answer = self._answer(relation, peer)
        if answer.raw is facts:
            return answer.facts
        if answer.exceptions:
            result = answer.select(facts)
        else:
            result = facts if answer.default else ()
        answer.raw, answer.facts = facts, result
        return result

    def _answer(self, relation: str, peer: str) -> _Answer:
        """The (relation, viewer) state, brought up to date with the graph."""
        graph = self._sync()
        answer = self._answers.get((relation, peer))
        if answer is None or answer.graph is not graph:
            return self._prime(relation, peer, graph)
        feed = answer.feed
        if feed:
            if None in feed:
                return self._prime(relation, peer, graph)
            exceptions, default = answer.exceptions, answer.default
            moved = {fact_identity(fact): fact for fact in feed}
            feed.drain(len(graph.facts_of(relation)))
            for key, fact in moved.items():
                if (self.can_read_fact(fact, peer) != default) != (key in exceptions):
                    exceptions ^= {key}              # the decision flipped
                    answer.raw = None
                    if hash(key) in answer.row_hashes:
                        answer.forget_rows()
        return answer

    def _prime(self, relation: str, peer: str,
               graph: Optional[ProvenanceGraph]) -> _Answer:
        """Decide every derived fact of ``relation`` once, from scratch."""
        self._drop((relation, peer))
        answer = _Answer(graph, self._can_read_relation(relation, peer))
        if graph is not None:
            name, _, owner = relation.rpartition("@")
            answer.feed = graph.watch(name, owner)
            derived = graph.facts_of(relation)
            answer.exceptions = {
                fact_identity(fact) for fact in derived
                if self.can_read_fact(fact, peer) != answer.default}
            answer.feed.drain(len(derived))
        self._answers[(relation, peer)] = answer
        return answer

    def _drop(self, key: Tuple[str, str]) -> None:
        """Forget one kept answer and stop its feed."""
        answer = self._answers.pop(key, None)
        if answer is not None and answer.feed is not None:
            name, _, owner = key[0].rpartition("@")
            answer.graph.unwatch(name, owner, answer.feed)

    def view_policy(self, view_relation: str,
                    facts: Optional[Iterable[Fact]] = None) -> ViewPolicy:
        """The effective :class:`ViewPolicy` of ``view_relation``, cached.

        Derived from the provenance of ``facts`` (default: every fact of the
        view currently in the graph) and re-derived only after a provenance
        or policy delta invalidated it.  A policy derived from an explicit
        ``facts`` subset describes only that subset and is **not** cached —
        caching it would silently narrow the base-relation set later
        whole-view calls decide with.
        """
        graph = self._sync()
        whole_view = facts is None
        if whole_view:
            cached = self._view_policies.get(view_relation)
            if cached is not None:
                return cached
        if graph is None:
            derived = ViewPolicy(
                view_relation=view_relation, base_relations=frozenset(),
                declassified_for=self.policy.declassified_grantees(view_relation),
            )
        else:
            if whole_view:
                facts = graph.facts_of(view_relation)
            derived = ViewPolicy.derive(
                view_relation, graph, facts,
                declassified_for=self.policy.declassified_grantees(view_relation),
            )
        if whole_view:
            self._view_policies[view_relation] = derived
        return derived


class PolicySet:
    """Per-owner access-control state of a whole deployment.

    The :mod:`repro.api` facade filters query answers and live views by a
    ``viewer=`` peer; the decisions are made by the *owning* peer's
    :class:`AccessControlPolicy`, accelerated by a cached
    :class:`PolicyEngine` over that peer's (optional) provenance tracker.
    This registry creates both lazily per owner and keeps each engine bound
    to the owner's current tracker (``provenance_resolver`` is re-consulted
    on every access, so enabling provenance after the first query is picked
    up transparently).
    """

    def __init__(self, provenance_resolver: Optional[Callable[[str], object]] = None):
        self._provenance_resolver = provenance_resolver or (lambda owner: None)
        self._policies: Dict[str, AccessControlPolicy] = {}
        self._engines: Dict[str, PolicyEngine] = {}

    def policy(self, owner: str) -> AccessControlPolicy:
        """The discretionary policy of ``owner`` (created on first use)."""
        policy = self._policies.get(owner)
        if policy is None:
            policy = self._policies[owner] = AccessControlPolicy(owner)
        return policy

    def engine(self, owner: str) -> PolicyEngine:
        """The cached decision engine of ``owner``, bound to its tracker."""
        provenance = self._provenance_resolver(owner)
        engine = self._engines.get(owner)
        if engine is None or engine.provenance is not provenance:
            engine = self._engines[owner] = PolicyEngine(self.policy(owner),
                                                         provenance)
        return engine

    def filter_readable(self, owner: str, facts: Iterable[Fact],
                        viewer: str) -> Tuple[Fact, ...]:
        """Filter ``facts`` of relations owned by ``owner`` down to what
        ``viewer`` may read under the owner's policy."""
        return self.engine(owner).filter_readable(facts, viewer)
