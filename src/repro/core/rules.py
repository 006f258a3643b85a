"""Atoms and rules of the WebdamLog language.

A rule at peer ``p`` has the form::

    $R@$P($U) :- [not] $R1@$P1($U1), ..., [not] $Rn@$Pn($Un)

where the relation and peer positions of every atom may be constants *or
variables*.  Rule bodies are evaluated **left to right** — unlike classical
datalog the order of body literals matters, because a variable used in a
relation/peer position or inside a negated literal must already be bound by
the time the literal is reached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import SafetyError, SchemaError
from repro.core.terms import Constant, Term, Variable, make_term
from repro.core.unification import CompiledRule, location_error

#: Canonical JSON (sorted keys, no spaces) of the encoding a content id
#: digests; one encoder, built once.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Atom:
    """An atom ``relation@peer(args...)``, possibly negated.

    ``relation`` and ``peer`` are :class:`~repro.core.terms.Term` instances —
    a :class:`Constant` wrapping a string for ordinary atoms, or a
    :class:`Variable` for the WebdamLog-specific "open" atoms whose relation
    or peer is only discovered at run time.
    """

    relation: Term
    peer: Term
    args: Tuple[Term, ...]
    negated: bool = False

    def __post_init__(self):
        if not isinstance(self.relation, Term):
            object.__setattr__(self, "relation", make_term(self.relation))
        if not isinstance(self.peer, Term):
            object.__setattr__(self, "peer", make_term(self.peer))
        coerced = tuple(make_term(a) for a in self.args)
        object.__setattr__(self, "args", coerced)
        for term, position in ((self.relation, "relation"), (self.peer, "peer")):
            if isinstance(term, Constant) and not isinstance(term.value, str):
                raise location_error(position, term)

    # -- constructors ---------------------------------------------------- #

    @classmethod
    def of(cls, relation, peer, *args, negated: bool = False) -> "Atom":
        """Convenience constructor coercing plain Python values into terms.

        Strings starting with ``$`` become variables::

            Atom.of("pictures", "$attendee", "$id", "$name")
        """
        return cls(make_term(relation), make_term(peer), tuple(make_term(a) for a in args),
                   negated=negated)

    # -- inspection ------------------------------------------------------ #

    @property
    def arity(self) -> int:
        """Number of argument terms."""
        return len(self.args)

    def relation_constant(self) -> Optional[str]:
        """The relation name if it is a constant, else ``None``."""
        return self.relation.value if isinstance(self.relation, Constant) else None

    def peer_constant(self) -> Optional[str]:
        """The peer name if it is a constant, else ``None``."""
        return self.peer.value if isinstance(self.peer, Constant) else None

    def is_ground_location(self) -> bool:
        """``True`` when both the relation and the peer positions are constants."""
        return isinstance(self.relation, Constant) and isinstance(self.peer, Constant)

    def is_ground(self) -> bool:
        """``True`` when the atom contains no variables at all."""
        return self.is_ground_location() and all(isinstance(a, Constant) for a in self.args)

    def variables(self) -> Tuple[Variable, ...]:
        """Every variable occurring in the atom, in order of first occurrence."""
        seen: List[Variable] = []
        for term in (self.relation, self.peer, *self.args):
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def argument_variables(self) -> Tuple[Variable, ...]:
        """Variables occurring in argument positions only."""
        seen: List[Variable] = []
        for term in self.args:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def location_variables(self) -> Tuple[Variable, ...]:
        """Variables occurring in the relation or peer position."""
        seen: List[Variable] = []
        for term in (self.relation, self.peer):
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return tuple(seen)

    # -- transformation -------------------------------------------------- #

    def positive(self) -> "Atom":
        """Return the positive (non-negated) version of this atom."""
        return replace(self, negated=False)

    def substitute(self, substitution: Dict[Variable, Term]) -> "Atom":
        """Apply a substitution to every position of the atom."""

        def apply(term: Term) -> Term:
            if isinstance(term, Variable):
                return substitution.get(term, term)
            return term

        return Atom(
            relation=apply(self.relation),
            peer=apply(self.peer),
            args=tuple(apply(a) for a in self.args),
            negated=self.negated,
        )

    def to_fact(self):
        """Convert a fully ground atom into a :class:`~repro.core.facts.Fact`."""
        from repro.core.facts import Fact

        if not self.is_ground():
            raise SchemaError(f"cannot convert non-ground atom {self} to a fact")
        return Fact(
            relation=self.relation.value,
            peer=self.peer.value,
            values=tuple(a.value for a in self.args),
        )

    def __str__(self) -> str:
        rel = self.relation.value if isinstance(self.relation, Constant) else str(self.relation)
        peer = self.peer.value if isinstance(self.peer, Constant) else str(self.peer)
        rendered_args = ", ".join(str(a) for a in self.args)
        prefix = "not " if self.negated else ""
        return f"{prefix}{rel}@{peer}({rendered_args})"


@dataclass(frozen=True)
class Rule:
    """A WebdamLog rule ``head :- body`` together with bookkeeping metadata.

    Parameters
    ----------
    head:
        The head atom.  Its relation/peer may be variables, in which case they
        must be bound by the body.
    body:
        Ordered tuple of body atoms, evaluated left to right.
    author:
        Name of the peer that wrote the rule.  For delegated rules this is the
        *delegator*, which the access-control layer uses to decide trust.
    origin:
        Identifier of the original rule this rule derives from (delegations
        carry the id of the rule they were split from); ``None`` for rules
        written directly by a user.
    rule_id:
        Identifier.  When omitted, a digest of the rule's content (its
        :mod:`~repro.core.codec` encoding without the id: head, body, author
        and origin), so one rule is named alike in every process and every
        build of a deployment.
    """

    head: Atom
    body: Tuple[Atom, ...]
    author: Optional[str] = None
    origin: Optional[str] = None
    rule_id: str = ""

    def __post_init__(self):
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if not self.rule_id:
            object.__setattr__(self, "rule_id", self._content_id())
        if self.head.negated:
            raise SafetyError(f"rule head must not be negated: {self.head}")
        if not self.body:
            raise SafetyError(f"rule {self.rule_id} has an empty body")

    def _content_id(self) -> str:
        from repro.core.codec import encode_rule_content

        encoded = _CANONICAL_JSON.encode(encode_rule_content(self))
        return f"rule-{hashlib.sha256(encoded.encode('utf-8')).hexdigest()[:16]}"

    # -- inspection ------------------------------------------------------ #

    def variables(self) -> Tuple[Variable, ...]:
        """Every variable of the rule, in order of first occurrence."""
        seen: List[Variable] = []
        for atom in (*self.body, self.head):
            for var in atom.variables():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def check_safety(self) -> None:
        """Validate the left-to-right safety conditions of WebdamLog.

        Raises
        ------
        SafetyError
            * if a relation/peer variable of a body atom is not bound by an
              earlier positive literal;
            * if a variable of a negated literal is not bound by an earlier
              positive literal;
            * if a head variable (argument, relation or peer position) is not
              bound by some positive body literal.
        """
        bound: Set[Variable] = set()
        for index, atom in enumerate(self.body):
            for var in atom.location_variables():
                if var not in bound:
                    raise SafetyError(
                        f"rule {self.rule_id}: variable ${var.name} used as a "
                        f"relation/peer name in body atom #{index + 1} is not bound by "
                        "an earlier positive literal"
                    )
            if atom.negated:
                for var in atom.argument_variables():
                    if var not in bound and not var.is_anonymous():
                        raise SafetyError(
                            f"rule {self.rule_id}: variable ${var.name} of negated literal "
                            f"#{index + 1} is not bound by an earlier positive literal"
                        )
            else:
                bound.update(atom.argument_variables())
                bound.update(atom.location_variables())
        for var in self.head.variables():
            if var not in bound:
                raise SafetyError(
                    f"rule {self.rule_id}: head variable ${var.name} is not bound by the body"
                )

    @cached_property
    def compiled(self) -> CompiledRule:
        """The head and body as the evaluator walks them, built on first use."""
        return CompiledRule.of(self)

    # -- transformation -------------------------------------------------- #

    def substitute(self, substitution: Dict[Variable, Term]) -> "Rule":
        """Apply a substitution to the head and every body atom, keeping metadata."""
        return Rule(
            head=self.head.substitute(substitution),
            body=tuple(atom.substitute(substitution) for atom in self.body),
            author=self.author,
            origin=self.origin,
            rule_id=self.rule_id,
        )

    def canonical_key(self) -> Tuple:
        """A key identifying the rule up to variable renaming and metadata.

        Two rules with the same canonical key have identical heads and bodies
        after normalising variable names to their order of first occurrence.
        Used to deduplicate delegations that would otherwise be re-installed
        at every stage.
        """
        order: Dict[Variable, str] = {}

        def canon(term: Term):
            if isinstance(term, Variable):
                if term not in order:
                    order[term] = f"v{len(order)}"
                return ("var", order[term])
            return ("const", type(term.value).__name__, term.value)

        def canon_atom(atom: Atom):
            return (
                canon(atom.relation),
                canon(atom.peer),
                tuple(canon(a) for a in atom.args),
                atom.negated,
            )

        return (canon_atom(self.head), tuple(canon_atom(a) for a in self.body))

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self.body)
        return f"{self.head} :- {body}"
