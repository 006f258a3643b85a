"""Magic-set / demand transformation for compiled live-view programs.

A multi-clause view program (see :func:`repro.core.parser.parse_query_program`)
defines **view-scoped auxiliary relations**: intermediate intensional
relations that exist only while the view is open and that nothing outside the
view reads.  That scoping is what makes the classic magic-set rewrite both
*sound* and *work-saving* here — the auxiliary relation can be restricted to
demand-reachable facts in place (no adorned copy is needed, because the view
owns every rule that derives into it and every literal that reads from it).

Given an answer rule whose body uses one auxiliary relation ``R`` with at
least one constant argument (the *bound* positions β), the rewrite installs:

* an intensional **magic relation** ``_magic_<R>`` of arity ``|β|`` holding
  the demanded bindings;
* a persistent extensional **demand anchor** relation with a single anchor
  fact, inserted when the view is installed and deleted on ``view.close()``
  — retracting the anchor (or uninstalling the rules) erases every magic and
  auxiliary fact at the next fixpoint, so a closed view leaves no residue;
* a **seed rule** ``_magic_R(c_β) :- anchor(...)`` for the answer's constants;
* a **guard** on every defining rule of ``R``:
  ``R(t) :- _magic_R(t_β), body``;
* a **propagation rule** per recursive occurrence ``R(s)`` at body position
  ``j``: ``_magic_R(s_β) :- _magic_R(t_β), body[0:j]``.

The rewrite bails out (returning ``None``, leaving the program untouched)
whenever a precondition fails: no constants in the occurrence, several
auxiliary relations entangled, negated or remote literals among the defining
rules, or an unsafe propagation rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import SafetyError
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema
from repro.core.terms import Constant

#: Name prefix of generated magic relations (plan observability keys on it).
MAGIC_PREFIX = "_magic_"

#: Name prefix of generated demand-anchor relations.
DEMAND_PREFIX = "_demand_"

#: The single value stored in a demand anchor relation.
ANCHOR_TOKEN = "on"


@dataclass(frozen=True)
class MagicRewrite:
    """The output of a successful magic-set rewrite."""

    rules: Tuple[Rule, ...]
    extra_schemas: Tuple[RelationSchema, ...]
    anchor_facts: Tuple[Fact, ...]
    magic_relations: Tuple[str, ...]


def apply_magic(view_name: str, owner: str, answer_rule: Rule,
                aux_rules: Sequence[Rule],
                aux_relations: Set[str]) -> Optional[MagicRewrite]:
    """Rewrite a view program for demand-driven evaluation.

    ``aux_rules`` are the view-scoped rules deriving the auxiliary relations
    (already renamed to their scoped names, all in ``aux_relations``);
    ``answer_rule`` derives the view relation itself.  Returns ``None`` when
    the program does not fit the supported shape — the caller installs the
    untransformed program in that case.
    """
    target = _bound_occurrence(answer_rule, aux_relations, owner)
    if target is None:
        return None
    occurrence, bound_positions = target
    relation = occurrence.relation_constant()

    defining = [rule for rule in aux_rules
                if rule.head.relation_constant() == relation]
    others = [rule for rule in aux_rules
              if rule.head.relation_constant() != relation]
    if not defining or others:
        # Entangled auxiliary relations (R defined in terms of S) would need
        # adornment propagation through S as well; keep the rewrite simple.
        return None
    for rule in defining:
        if not _local_positive_program(rule, relation, aux_relations, owner):
            return None

    magic_name = f"{MAGIC_PREFIX}{relation}"
    anchor_name = f"{DEMAND_PREFIX}{view_name}"
    magic_schema = RelationSchema(
        name=magic_name, peer=owner,
        columns=tuple(f"b{i}" for i in range(len(bound_positions))),
        kind=RelationKind.INTENSIONAL, persistent=True,
    )
    anchor_schema = RelationSchema(
        name=anchor_name, peer=owner, columns=("token",),
        kind=RelationKind.EXTENSIONAL, persistent=True,
    )
    anchor_fact = Fact(anchor_name, owner, (ANCHOR_TOKEN,))
    anchor_atom = Atom(relation=anchor_name, peer=owner,
                       args=(Constant(ANCHOR_TOKEN),))

    def magic_atom(source: Atom) -> Atom:
        return Atom(relation=magic_name, peer=owner,
                    args=tuple(source.args[p] for p in bound_positions))

    rewritten: List[Rule] = []
    # Seed: the answer's constants are demanded while the anchor fact exists.
    seed = Rule(head=magic_atom(occurrence), body=(anchor_atom,), author=owner)
    try:
        seed.check_safety()
    except SafetyError:
        return None
    rewritten.append(seed)

    for rule in defining:
        guarded = Rule(
            head=rule.head,
            body=(magic_atom(rule.head),) + tuple(rule.body),
            author=rule.author or owner,
            rule_id=rule.rule_id,
        )
        try:
            guarded.check_safety()
        except SafetyError:
            return None
        rewritten.append(guarded)
        for position, atom in enumerate(rule.body):
            if atom.relation_constant() != relation:
                continue
            propagation = Rule(
                head=magic_atom(atom),
                body=(magic_atom(rule.head),) + tuple(rule.body[:position]),
                author=rule.author or owner,
            )
            try:
                propagation.check_safety()
            except SafetyError:
                return None
            rewritten.append(propagation)

    rewritten.append(answer_rule)
    return MagicRewrite(
        rules=tuple(rewritten),
        extra_schemas=(magic_schema, anchor_schema),
        anchor_facts=(anchor_fact,),
        magic_relations=(magic_name,),
    )


def _bound_occurrence(answer_rule: Rule, aux_relations: Set[str],
                      owner: str) -> Optional[Tuple[Atom, Tuple[int, ...]]]:
    """The single positive auxiliary occurrence with constant arguments.

    Requires exactly one body occurrence of exactly one auxiliary relation,
    positive, located at the owner, with at least one constant argument —
    the shape whose demand is a single binding pattern.
    """
    occurrences = [atom for atom in answer_rule.body
                   if atom.relation_constant() in aux_relations]
    if len(occurrences) != 1:
        return None
    occurrence = occurrences[0]
    if occurrence.negated or occurrence.peer_constant() != owner:
        return None
    bound = tuple(position for position, term in enumerate(occurrence.args)
                  if isinstance(term, Constant))
    if not bound:
        return None
    return occurrence, bound


def _local_positive_program(rule: Rule, relation: str,
                            aux_relations: Set[str], owner: str) -> bool:
    """``True`` when a defining rule fits the rewrite: every literal local at
    the owner with a constant relation, recursive occurrences positive, and
    no other auxiliary relation referenced."""
    for atom in rule.body:
        name = atom.relation_constant()
        if name is None or atom.peer_constant() != owner:
            return False
        if name == relation:
            if atom.negated:
                return False
        elif name in aux_relations:
            return False
    return True
