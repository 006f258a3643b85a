"""Stratification of a peer's rules for negation-safe fixpoint evaluation.

Rule ``r`` *reads* rule ``d`` when ``d`` can derive, during the peer's local
fixpoint, into a predicate one of ``r``'s body literals matches.  What a head
derives into is :func:`~repro.core.evaluation.head_targets`: its own
predicate, or — for a head whose relation or peer is a variable, such as
``$protocol@$attendee`` — the peer's intensional relations agreeing with its
constant position.  A body literal matches a predicate on its constant
positions (:func:`~repro.core.evaluation.pattern_matches`), so ``$r@p``
reads every rule that derives into a relation at ``p``.  The read is
*negative* when the literal is negated.  A stratification puts every rule

* in a stratum no lower than each rule it reads, and
* strictly above each rule it reads under negation.

:func:`stratify` computes the least such numbering: Tarjan's algorithm finds
the strongly connected components of the read graph, in an order where each
component comes after every component it reads, and a component's stratum is
the longest path into it counting negative reads only.  Evaluating the strata
in increasing order, each to its fixpoint, with negation-as-failure against
the completed lower strata yields the perfect model.

A negative read inside one component is a cycle through negation, which no
stratification satisfies: the written order of the rules would pick the
answer.  :func:`stratify` raises a
:class:`~repro.core.errors.StratificationError` naming one such cycle, and
the engine runs the same check before a rule or a delegation joins the
program, which it then leaves unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.errors import StratificationError
from repro.core.evaluation import head_targets, location_pattern, pattern_matches
from repro.core.rules import Rule

#: ``reads[r]``: ``(d, negated)`` for every read of rule ``d`` by rule ``r``.
Reads = List[List[Tuple[int, bool]]]


def _reads(rules: List[Rule], local_intensional: FrozenSet[str]) -> Reads:
    definers: Dict[str, List[int]] = {}
    for position, rule in enumerate(rules):
        for predicate in head_targets(location_pattern(rule.head), local_intensional):
            definers.setdefault(predicate, []).append(position)
    reads: Reads = []
    for rule in rules:
        edges: List[Tuple[int, bool]] = []
        for atom in rule.body:
            pattern = location_pattern(atom)
            if None in pattern:
                matched = [positions for predicate, positions in definers.items()
                           if pattern_matches(pattern, predicate)]
            else:
                matched = [definers.get("%s@%s" % pattern, ())]
            for positions in matched:
                edges.extend((position, atom.negated) for position in positions)
        reads.append(edges)
    return reads


def _components(reads: Reads) -> List[List[int]]:
    """Tarjan's strongly connected components of the read graph, each listed
    after every component it reads (iterative: programs may be long)."""
    order: List[int] = [-1] * len(reads)
    low: List[int] = [0] * len(reads)
    on_stack = [False] * len(reads)
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(len(reads)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(reads[root]))]
        while work:
            node, pending = work[-1]
            for read, _ in pending:
                if order[read] < 0:
                    order[read] = low[read] = counter
                    counter += 1
                    stack.append(read)
                    on_stack[read] = True
                    work.append((read, iter(reads[read])))
                    break
                if on_stack[read]:
                    low[node] = min(low[node], order[read])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    component: List[int] = []
                    member = -1
                    while member != node:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                    components.append(component)
    return components


def stratify(rules: Sequence[Rule],
             local_intensional: FrozenSet[str]) -> List[List[Rule]]:
    """Partition ``rules`` into strata, lowest first, in written order within each.

    ``local_intensional`` are the qualified names (``"rel@peer"``) of the
    peer's intensional relations.  Without negation the result is one
    stratum; with a cycle through it, :class:`StratificationError`.
    """
    rules = list(rules)
    if not any(atom.negated for rule in rules for atom in rule.body):
        # Strata only separate what negation reads from what derives it.
        return [rules]
    reads = _reads(rules, local_intensional)
    stratum_of = [0] * len(rules)
    for component in _components(reads):
        members = set(component)
        stratum = 0
        for reader in component:
            for definer, negated in reads[reader]:
                if definer not in members:
                    stratum = max(stratum, stratum_of[definer] + negated)
                elif negated:
                    raise _cycle_error(rules, reads, members, reader, definer)
        for reader in component:
            stratum_of[reader] = stratum
    strata: List[List[Rule]] = [[] for _ in range(max(stratum_of) + 1)]
    for rule, stratum in zip(rules, stratum_of):
        strata[stratum].append(rule)
    return strata


def _cycle_error(rules: List[Rule], reads: Reads, members: Set[int],
                 reader: int, definer: int) -> StratificationError:
    """The error naming the cycle closed by ``reader``'s negated read of
    ``definer``: that read, then the shortest path of reads inside the
    component from ``definer`` back to ``reader``."""
    came_from: Dict[int, int] = {definer: definer}
    queue = deque([definer])
    while reader not in came_from:
        node = queue.popleft()
        for read, _ in reads[node]:
            if read in members and read not in came_from:
                came_from[read] = node
                queue.append(read)
    back = [reader]
    while back[-1] != definer:
        back.append(came_from[back[-1]])
    cycle = [reader] + back[::-1]
    return StratificationError(
        [str(rules[position].head).split("(", 1)[0] for position in cycle],
        [str(rules[position]) for position in cycle[:-1]])
