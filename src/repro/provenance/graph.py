"""Incrementally maintained provenance graphs for derived facts.

Each time the engine's fixpoint derives a fact, the :class:`ProvenanceTracker`
records a :class:`Derivation`: the rule that fired and the facts that matched
its body.  The accumulated derivations form a bipartite graph (facts and
derivations) from which why-provenance and lineage queries are answered:

* :meth:`ProvenanceGraph.why` — the alternative sets of immediate supporting
  facts of a derived fact;
* :meth:`ProvenanceGraph.lineage` — the transitive closure down to base facts;
* :meth:`ProvenanceGraph.base_relations` — which relations the lineage of a
  fact draws from (the input of the access-control view policy);
* :meth:`ProvenanceGraph.depends_on_peer` — whether any supporting fact came
  from a given peer's relations.

Unlike the original passive recorder, the graph is **maintained**: it is a
support-counted structure that the engine's incremental evaluation paths keep
in sync with the current derivability state.

* a derivation dies when any of its supporting facts stops being visible —
  removed exactly (:meth:`ProvenanceGraph.drop_support`) when the engine
  names every such fact, its tuple-level delete-and-rederive;
* where the engine clears predicates and re-records instead, a fact dies
  when its last derivation dies and the removal cascades
  (:meth:`ProvenanceGraph.remove_support`);
* :meth:`ProvenanceGraph.base_relations` is answered from a per-fact lineage
  index (the frozen set of base relations), built on demand.  A base set
  only grows while derivations are added, so a new derivation of an indexed
  fact *grows* the entries it reaches instead of dropping them; what can
  shrink a set or change its kind (a first derivation, every removal,
  :meth:`~ProvenanceGraph.clear`) drops exactly the entries it can reach.
  Repeated access-control probes are O(1) per fact instead of a walk.
* :meth:`ProvenanceGraph.watch` hands out change feeds
  (:class:`~repro.core.facts.ChangeFeed`) of one relation: the facts whose
  derived-ness or base set may have moved.

Retracted or overwritten facts therefore drop out of the graph instead of
accumulating for the lifetime of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.facts import ChangeFeed, ChangeFeeds, Fact
from repro.core.rules import Rule

#: A derivation's identity, :meth:`Derivation.key`.
DerivationKey = Tuple[Fact, str, Tuple[Fact, ...]]
# The bucket of a fact nobody derives or is supported by; never written.
_NO_DERIVATIONS: Dict[DerivationKey, "Derivation"] = {}


@dataclass(frozen=True)
class Derivation:
    """One application of a rule: the derived fact and its immediate support."""

    fact: Fact
    rule_id: str
    support: Tuple[Fact, ...]
    author: Optional[str] = None

    def key(self) -> DerivationKey:
        """Dedup identity shared by the graph, the shipped-derivation memory
        and the per-target shipping memos: ``author`` is provenance metadata,
        not identity."""
        return (self.fact, self.rule_id, self.support)

    def __str__(self) -> str:
        supports = ", ".join(str(f) for f in self.support)
        return f"{self.fact} <= [{self.rule_id}] {supports}"


@dataclass(frozen=True)
class Explanation:
    """The full provenance story of one fact (what ``explain`` returns).

    ``why`` is the why-provenance (alternative sets of immediate supporting
    facts), ``lineage`` the transitive support down to base facts,
    ``base_relations`` the qualified names of the base relations the lineage
    draws from, and ``peers`` every peer whose facts contributed (including
    the fact's own hosting peer).
    """

    fact: Fact
    derived: bool
    why: Tuple[FrozenSet[Fact], ...]
    lineage: FrozenSet[Fact]
    base_relations: FrozenSet[str]
    peers: FrozenSet[str]

    def __str__(self) -> str:
        if not self.derived:
            return f"{self.fact}: base fact of {self.fact.qualified_relation}"
        alternatives = " | ".join(
            "{" + ", ".join(sorted(str(f) for f in alt)) + "}" for alt in self.why
        )
        return (f"{self.fact} <= {alternatives} "
                f"(bases: {', '.join(sorted(self.base_relations))})")


class ProvenanceGraph:
    """Support-counted derivations, indexed by derived and supporting fact.

    Every mutation bumps :attr:`version`; consumers that keep an answer per
    fact (the ACL layer's :class:`~repro.acl.policies.PolicyEngine`) drain
    a change feed of their relation instead (:meth:`watch`), which names the
    facts that moved.
    """

    def __init__(self):
        # Derived fact -> its alternative derivations by key, in the order
        # they were recorded (the support count of a fact is the size of its
        # bucket; the fact dies when it reaches 0).
        self._derivations: Dict[Fact, Dict[DerivationKey, Derivation]] = {}
        # Supporting fact -> the derivations it participates in, by key
        # (reverse edges; drives remove_support cascades and index
        # invalidation).  Keyed buckets make adding and removing one
        # derivation a lookup, not a scan comparing facts.
        self._supported: Dict[Fact, Dict[DerivationKey, Derivation]] = {}
        # Qualified relation -> its derived facts, so the scoped rederive
        # clear is proportional to the cleared predicates, not the graph.
        self._by_relation: Dict[str, Set[Fact]] = {}
        self._count = 0
        #: Bumped on every mutation; external caches key off it.
        self.version = 0
        # The incremental lineage index: per-fact frozen sets, built on first
        # probe, grown by new derivations and invalidated for exactly the
        # facts a removal can reach.
        self._bases_index: Dict[Fact, FrozenSet[str]] = {}
        # The change feeds of the relations somebody keeps an answer of: the
        # facts each invalidation walk or growth push reaches.
        self._feeds = ChangeFeeds()

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(self, derivation: Derivation) -> bool:
        """Record one derivation; returns ``False`` for a known duplicate."""
        head = derivation.fact
        existing = self._derivations.setdefault(head, {})
        key = derivation.key()
        if key in existing:
            return False
        # A first derivation changes what the head's set *is* (its own
        # relation becomes its lineage's), and an unindexed head has no set
        # to grow: both drop what they reach.  Otherwise the sets only grow.
        indexed = bool(existing) and head in self._bases_index
        if not indexed:
            self._invalidate([head])
        existing[key] = derivation
        self._by_relation.setdefault(head.qualified_relation, set()).add(head)
        for supporting in set(derivation.support):
            self._supported.setdefault(supporting, {})[key] = derivation
        self._count += 1
        self.version += 1
        if indexed:
            self._grow(head, derivation.support)
        return True

    def remove_support(self, fact: Fact) -> int:
        """``fact`` no longer holds: kill every derivation it supports.

        A derivation dies when any of its supporting facts dies; a derived
        fact dies when its last derivation dies, which cascades into the
        derivations *it* supported.  Returns how many derivations died.
        """
        self._invalidate([fact])
        removed = 0
        frontier: List[Fact] = [fact]
        while frontier:
            dead = frontier.pop()
            for derivation in self._supported.pop(dead, _NO_DERIVATIONS).values():
                if self._discard(derivation, skip_support=dead):
                    removed += 1
                    head = derivation.fact
                    if head not in self._derivations:
                        frontier.append(head)
        return removed

    def drop_support(self, fact: Fact) -> int:
        """``fact`` stopped being visible: drop exactly the derivations it
        supports, and nothing else.

        The exact counterpart of :meth:`remove_support` for a caller that
        names *every* fact that stopped being visible (the engine's
        tuple-level delete-and-rederive).  Nothing cascades: a head left
        without a recorded derivation may still be visible — provided by
        another peer, or an extensional fact — and then what it supports
        stands.  Returns how many derivations died.
        """
        self._invalidate([fact])
        removed = 0
        for derivation in self._supported.pop(fact, _NO_DERIVATIONS).values():
            removed += self._discard(derivation, skip_support=fact)
        return removed

    def retract_fact(self, fact: Fact) -> int:
        """``fact`` was deleted: drop its derivations and cascade its support.

        Used for retracted base facts, overwritten (primary-key displaced)
        facts and provided facts the sender withdrew.  Returns how many
        derivations died.
        """
        self._invalidate([fact])
        removed = 0
        for derivation in list(self._derivations.get(fact, _NO_DERIVATIONS).values()):
            if self._discard(derivation):
                removed += 1
        return removed + self.remove_support(fact)

    def discard(self, derivation: Derivation) -> bool:
        """Remove exactly one derivation (``False`` if it was not there)."""
        self._invalidate([derivation.fact])
        return self._discard(derivation)

    def remove_derivation(self, derivation: Derivation) -> bool:
        """Remove one specific derivation; cascade if its fact thereby dies.

        Returns ``False`` when the derivation was not (or no longer) in the
        graph.
        """
        if not self.discard(derivation):
            return False
        if derivation.fact not in self._derivations:
            self.remove_support(derivation.fact)
        return True

    def retract_predicates(self, predicates: Iterable[str]) -> int:
        """Drop every derivation whose derived fact is in ``predicates``.

        Mirror of the engine's scoped delete-and-rederive: the affected
        predicate closure is cleared here exactly as the derived store is,
        and re-evaluation re-records what is still derivable.  No cascade is
        performed — every fact a dead support can reach is, by construction
        of the closure, itself in ``predicates``.
        """
        doomed = [fact for predicate in set(predicates)
                  for fact in self._by_relation.get(predicate, ())]
        if not doomed:
            return 0
        self._invalidate(doomed)
        removed = 0
        for fact in doomed:
            for derivation in list(self._derivations.get(fact, _NO_DERIVATIONS).values()):
                if self._discard(derivation):
                    removed += 1
        return removed

    def clear(self) -> None:
        """Forget every derivation."""
        self._derivations.clear()
        self._supported.clear()
        self._by_relation.clear()
        self._bases_index.clear()
        self._count = 0
        self.version += 1
        self._feeds.overflow()

    def _discard(self, derivation: Derivation,
                 skip_support: Optional[Fact] = None) -> bool:
        """Remove one derivation from both indexes (``False`` if already gone)."""
        bucket = self._derivations.get(derivation.fact)
        key = derivation.key()
        known = bucket.get(key) if bucket is not None else None
        if known is None or (known is not derivation and known != derivation):
            return False
        del bucket[key]
        if not bucket:
            del self._derivations[derivation.fact]
            relation = derivation.fact.qualified_relation
            siblings = self._by_relation.get(relation)
            if siblings is not None:
                siblings.discard(derivation.fact)
                if not siblings:
                    del self._by_relation[relation]
        for supporting in set(derivation.support):
            if supporting == skip_support:
                continue  # its reverse bucket is being drained by the caller
            reverse = self._supported.get(supporting)
            if reverse is not None:
                reverse.pop(key, None)
                if not reverse:
                    del self._supported[supporting]
        self._count -= 1
        self.version += 1
        return True

    def _invalidate(self, roots: Iterable[Fact]) -> None:
        """Drop the lineage-index entries of ``roots`` and every dependent,
        and name them all in the change feeds.

        Walks the reverse (supported-by) edges transitively *before* the
        mutation happens, so every fact whose lineage could include a root is
        reached while the edges still exist.
        """
        if not self._bases_index and not self._feeds:
            return
        index = self._bases_index
        stack = list(roots)
        seen: Set[Fact] = set()
        while stack:
            fact = stack.pop()
            if fact in seen:
                continue
            seen.add(fact)
            index.pop(fact, None)
            for derivation in self._supported.get(fact, _NO_DERIVATIONS).values():
                stack.append(derivation.fact)
        self._feeds.note(seen)

    def _grow(self, head: Fact, support: Tuple[Fact, ...]) -> None:
        """A new derivation of the indexed ``head``: union what its support
        adds into every entry whose lineage holds the head.

        The growth is pushed along the reverse edges and stops at an entry
        that already holds it (whatever lies beyond holds it too); a fact
        without an entry is passed through, as an indexed one may lie
        beyond it.  Union is monotone, so this is exact on cyclic
        why-graphs: the support's entries from before the derivation are
        the least fixpoint.
        """
        index, derivations = self._bases_index, self._derivations
        entry = index[head]
        gained: Set[str] = set()
        for supporting in support:
            if supporting in derivations:
                gained.update(self.base_relations(supporting))
            else:
                gained.add(supporting.qualified_relation)
        if gained <= entry:
            return
        grown = frozenset(gained - entry)
        stack = [head]
        reached: Set[Fact] = {head}
        changed: List[Fact] = []
        while stack:
            fact = stack.pop()
            entry = index.get(fact)
            if entry is not None:
                if grown <= entry:
                    continue
                index[fact] = entry | grown
            changed.append(fact)
            for derivation in self._supported.get(fact, _NO_DERIVATIONS).values():
                dependent = derivation.fact
                if dependent not in reached:
                    reached.add(dependent)
                    stack.append(dependent)
        self._feeds.note(changed)

    # ------------------------------------------------------------------ #
    # change feeds
    # ------------------------------------------------------------------ #

    def watch(self, relation: str, peer: str) -> ChangeFeed:
        """A new change feed of ``relation@peer``: from now on every fact of
        it whose derived-ness or base relations may move is added to it,
        and :meth:`clear` overflows it.  A fact may be named although its
        answer did not move."""
        return self._feeds.watch(relation, peer)

    def unwatch(self, relation: str, peer: str, feed: ChangeFeed) -> None:
        """Stop filling ``feed``, a feed :meth:`watch` returned."""
        self._feeds.unwatch(relation, peer, feed)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def derivations_of(self, fact: Fact) -> Tuple[Derivation, ...]:
        """Every recorded derivation of ``fact``."""
        return tuple(self._derivations.get(fact, _NO_DERIVATIONS).values())

    def derivation_count(self, fact: Fact) -> int:
        """How many alternative derivations currently support ``fact``."""
        return len(self._derivations.get(fact, ()))

    def is_derived(self, fact: Fact) -> bool:
        """``True`` when at least one live derivation of ``fact`` is recorded."""
        return fact in self._derivations

    def why(self, fact: Fact) -> Tuple[FrozenSet[Fact], ...]:
        """Why-provenance: the alternative sets of immediate supporting facts."""
        return tuple(frozenset(d.support)
                     for d in self._derivations.get(fact, _NO_DERIVATIONS).values())

    def lineage(self, fact: Fact) -> FrozenSet[Fact]:
        """Transitive support of ``fact`` down to base facts (excludes ``fact`` itself)."""
        seen: Set[Fact] = set()
        frontier: List[Fact] = [fact]
        while frontier:
            current = frontier.pop()
            for derivation in self._derivations.get(current, _NO_DERIVATIONS).values():
                for supporting in derivation.support:
                    if supporting not in seen and supporting != fact:
                        seen.add(supporting)
                        frontier.append(supporting)
        return frozenset(seen)

    def base_facts(self, fact: Fact) -> FrozenSet[Fact]:
        """The subset of :meth:`lineage` that has no recorded derivation (base facts)."""
        if not self.is_derived(fact):
            return frozenset({fact})
        return frozenset(f for f in self.lineage(fact) if not self.is_derived(f))

    def base_relations(self, fact: Fact) -> FrozenSet[str]:
        """Qualified names of the base relations the lineage of ``fact`` draws from.

        Answered from the maintained lineage index: O(1) once built, grown
        in place by new derivations, rebuilt only after a removal or a first
        derivation that can reach ``fact``'s lineage.
        """
        cached = self._bases_index.get(fact)
        if cached is None:
            cached = self._bases_index[fact] = self._walk_base_relations(fact)
        return cached

    def _walk_base_relations(self, fact: Fact) -> FrozenSet[str]:
        """:meth:`base_facts` by relation, reusing the index along the way.

        The walk does not descend into a supporting fact that already has an
        index entry: the entry is the base set of that fact's *whole*
        lineage, so its union is exactly what the descent would collect —
        also on a cyclic why-graph, where the entry already covers whatever
        is reachable back through ``fact``.  Facts of one recursive relation
        share most of their ancestry, so filtering them one after the other
        costs a step each instead of a walk each.
        """
        derivations = self._derivations
        if fact not in derivations:
            return frozenset({fact.qualified_relation})
        index = self._bases_index
        bases: Set[str] = set()
        seen: Set[Fact] = {fact}
        frontier: List[Fact] = [fact]
        while frontier:
            for derivation in derivations[frontier.pop()].values():
                for supporting in derivation.support:
                    if supporting in seen:
                        continue
                    seen.add(supporting)
                    if supporting not in derivations:
                        bases.add(supporting.qualified_relation)
                        continue
                    known = index.get(supporting)
                    if known is None:
                        frontier.append(supporting)
                    else:
                        bases.update(known)
        return frozenset(bases)

    def lineage_peers(self, fact: Fact) -> FrozenSet[str]:
        """Peers owning some fact in the lineage of ``fact``."""
        return frozenset(f.peer for f in self.lineage(fact))

    def depends_on_peer(self, fact: Fact, peer: str) -> bool:
        """``True`` when some fact in the lineage belongs to a relation of ``peer``."""
        if fact.peer == peer and not self.is_derived(fact):
            return True
        return peer in self.lineage_peers(fact)

    def facts(self) -> Tuple[Fact, ...]:
        """Every derived fact with at least one live derivation."""
        return tuple(self._derivations)

    def facts_of(self, relation: str) -> Tuple[Fact, ...]:
        """The derived facts of one qualified relation (indexed lookup)."""
        return tuple(self._by_relation.get(relation, ()))

    def explain(self, fact: Fact) -> Explanation:
        """The full provenance story of ``fact``."""
        lineage = self.lineage(fact)
        return Explanation(
            fact=fact,
            derived=self.is_derived(fact),
            why=self.why(fact),
            lineage=lineage,
            base_relations=self.base_relations(fact),
            peers=frozenset([fact.peer, *(f.peer for f in lineage)]),
        )


class ProvenanceTracker:
    """Adapter between the engine's derivation hooks and a :class:`ProvenanceGraph`.

    Attach it to an engine with::

        engine.provenance = ProvenanceTracker()

    (or build the whole deployment with ``system().provenance()``).  The
    engine records every derivation through :meth:`record` and keeps the
    graph consistent along its incremental evaluation paths through the
    maintenance hooks — :meth:`on_tuples_deleted` where it deletes and
    rederives tuples (exact removal, nothing re-recorded), and
    :meth:`on_base_deleted` with :meth:`on_rederive` or
    :meth:`on_full_recompute` where it clears predicates and re-records what
    survives.  The graph always reflects the *current* derivability state,
    so why/lineage answers match what a full recompute would record, at
    delta cost.

    Derivations received from remote peers (shipped with fact updates over
    the wire) are remembered separately via :meth:`record_remote`: local
    re-evaluation cannot re-derive them, so they survive full recomputes and
    are dropped only when the shipped fact itself is retracted.
    """

    def __init__(self):
        self.graph = ProvenanceGraph()
        # Derivations shipped by remote peers, keyed for idempotent re-adds.
        self._remote: Dict[Tuple[Fact, str, Tuple[Fact, ...]], Derivation] = {}
        # The shipped facts themselves (message-inserted heads).  Lineage
        # intermediates shipped alongside are retained only while reachable
        # from a live anchor — see :meth:`_sync_remote`.
        self._remote_anchors: Set[Fact] = set()
        # Every fact appearing in the shipped memory (heads and supports);
        # deletions disjoint from it skip the reconciliation pass entirely.
        self._remote_facts: Set[Fact] = set()
        # Locally recorded derivations that are new since the last drain —
        # the runtime peer uses this to ship *alternative* derivations of
        # facts it already sent (the fact itself produces no update, so no
        # message would otherwise carry them).  Logging starts at the first
        # drain, so trackers on engines nobody drains accumulate nothing.
        self._fresh: List[Derivation] = []
        self._log_fresh = False

    def record(self, fact: Fact, rule: Rule, support: Tuple[Fact, ...]) -> None:
        """Engine hook: record one derivation."""
        derivation = Derivation(fact=fact, rule_id=rule.rule_id,
                                support=tuple(support), author=rule.author)
        if self.graph.add(derivation) and self._log_fresh:
            self._fresh.append(derivation)

    def drain_new_derivations(self) -> Tuple[Derivation, ...]:
        """Locally recorded derivations new since the last drain (and reset).

        The first call activates the log (derivations recorded before it are
        not replayed — they were visible to the caller's own graph walks).
        Re-records after a rederive/full clear reappear here; consumers
        dedup against what they already handled (the peer's per-target
        shipping memo does exactly that).
        """
        self._log_fresh = True
        fresh = tuple(self._fresh)
        self._fresh.clear()
        return fresh

    def record_remote(self, derivation: Derivation, anchor: bool = True) -> None:
        """Record a derivation shipped by a remote peer (survives recomputes).

        ``anchor=True`` marks the derivation's fact as one the sender
        actually shipped (a message-inserted fact); ``anchor=False`` is for
        the lineage intermediates that ride along, which live only as long
        as some anchored fact's lineage reaches them.
        """
        self._remote[derivation.key()] = derivation
        self._remote_facts.add(derivation.fact)
        self._remote_facts.update(derivation.support)
        if anchor:
            self._remote_anchors.add(derivation.fact)
        self.graph.add(derivation)

    # Engine maintenance hooks (the incremental evaluation paths) ---------- #

    def on_base_deleted(self, facts: Iterable[Fact]) -> None:
        """Input facts were deleted: their derivations (and dependents) die."""
        dead = set(facts)
        for fact in dead:
            self.graph.retract_fact(fact)
        # Reconciliation is only needed when the deletions touch the shipped
        # memory at all (anchors are heads, so they are covered too).
        if self._remote and not dead.isdisjoint(self._remote_facts):
            self._sync_remote(dead)

    def on_tuples_deleted(self, withdrawn: Set[Fact], invisible: Set[Fact]) -> None:
        """The engine deleted and rederived *tuples*: the graph follows
        exactly, with nothing cleared and nothing re-recorded.

        ``withdrawn`` are the input facts that lost their last base source
        (store, senders): what remote peers shipped to explain them goes.
        ``invisible`` are the facts no source holds any more — withdrawn
        ones no rule rederived, plus the derived facts that fell with them:
        a recorded derivation is valid exactly while all its supports are
        visible, so the derivations they support go (:meth:`ProvenanceGraph.
        drop_support`).  Derivations *of* a withdrawn fact that a local rule
        still derives (a cycle through itself, a deferred extensional head)
        stay.
        """
        for fact in invisible:
            self.graph.drop_support(fact)
        if self._remote and not (withdrawn.isdisjoint(self._remote_facts)
                                 and invisible.isdisjoint(self._remote_facts)):
            self._sync_remote(withdrawn)

    def _sync_remote(self, dead: Set[Fact]) -> None:
        """Reconcile the shipped-derivation memory after retractions.

        A remembered entry survives only when (a) its head was not
        explicitly retracted, (b) the graph still holds it — no support of
        it died there (otherwise a later full recompute would resurrect a
        derivation whose support died), and (c) its head is still reachable
        from a live anchor through the shipped support edges — lineage
        intermediates orphaned by an anchor's retraction are garbage
        collected from the memory *and* the graph.
        """
        self._remote_anchors -= dead
        by_head: Dict[Fact, List[Derivation]] = {}
        for (head, _, _), derivation in self._remote.items():
            by_head.setdefault(head, []).append(derivation)
        reachable: Set[Fact] = set()
        frontier = [fact for fact in self._remote_anchors if fact not in dead]
        while frontier:
            fact = frontier.pop()
            if fact in reachable:
                continue
            reachable.add(fact)
            for derivation in by_head.get(fact, ()):
                frontier.extend(derivation.support)
        survivors: Dict[Tuple[Fact, str, Tuple[Fact, ...]], Derivation] = {}
        for key, derivation in self._remote.items():
            head = key[0]
            if head in dead:
                self.graph.discard(derivation)
                continue
            if head not in reachable:
                self.graph.remove_derivation(derivation)
                continue
            if derivation in self.graph.derivations_of(head):
                survivors[key] = derivation
        self._remote = survivors
        self._remote_anchors &= {key[0] for key in survivors}
        self._remote_facts = set()
        for derivation in survivors.values():
            self._remote_facts.add(derivation.fact)
            self._remote_facts.update(derivation.support)

    def on_rederive(self, predicates: Iterable[str]) -> None:
        """The engine clears these predicates and re-fires their rules."""
        wanted = set(predicates)
        self.graph.retract_predicates(wanted)
        # Shipped derivations are not re-derivable locally: restore the ones
        # the predicate clear swept away.
        for derivation in self._remote.values():
            if derivation.fact.qualified_relation in wanted:
                self.graph.add(derivation)

    def on_full_recompute(self) -> None:
        """The engine recomputes everything: start from the shipped facts only."""
        self.graph.clear()
        for derivation in self._remote.values():
            self.graph.add(derivation)

    # Convenience pass-throughs -------------------------------------------- #

    def why(self, fact: Fact) -> Tuple[FrozenSet[Fact], ...]:
        """Why-provenance of ``fact``."""
        return self.graph.why(fact)

    def lineage(self, fact: Fact) -> FrozenSet[Fact]:
        """Transitive lineage of ``fact``."""
        return self.graph.lineage(fact)

    def base_relations(self, fact: Fact) -> FrozenSet[str]:
        """Base relations in the lineage of ``fact``."""
        return self.graph.base_relations(fact)

    def explain(self, fact: Fact) -> Explanation:
        """The full provenance story of ``fact``."""
        return self.graph.explain(fact)
