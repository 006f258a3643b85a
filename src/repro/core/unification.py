"""Substitutions and matching.

WebdamLog evaluation only ever needs *matching* (one-way unification of an
atom containing variables against a ground fact), never full unification of
two non-ground terms.  An atom is matched through its :class:`CompiledAtom`:
its positions reduced once to plain values and variables, so matching a fact
costs the comparisons its values need and at most one copy of the
substitution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple, Union

from repro.core.errors import SchemaError
from repro.core.facts import ConstantValue, Fact
from repro.core.terms import Constant, Term, Variable

if TYPE_CHECKING:
    from repro.core.rules import Atom, Rule

#: A substitution maps variables to terms (constants during evaluation).
Substitution = Dict[Variable, Term]

#: One position of a compiled atom: a plain value, or a variable.
Slot = Union[ConstantValue, Variable]


def location_error(position: str, term: Term) -> SchemaError:
    """The error of a relation or peer position holding a non-string."""
    return SchemaError(f"{position} position of an atom must be a string constant or a "
                       f"variable, got {term!r}")


def _slot(term: Term, variables: Dict[Variable, Variable]) -> Slot:
    if term.__class__ is Variable:
        # One instance per variable name: a substitution lookup then finds
        # its key by identity.
        return variables.setdefault(term, term)
    return term.value


def _location(slot: Slot, substitution: Substitution, position: str) -> Optional[str]:
    """A relation or peer position under ``substitution``: bound to a
    non-string, it is a :class:`SchemaError`, as it is in an atom."""
    if slot.__class__ is not Variable:
        return slot
    bound = substitution.get(slot)
    if bound is None:
        return None
    if not isinstance(bound.value, str):
        raise location_error(position, bound)
    return bound.value


class CompiledAtom:
    """An atom reduced to what matching reads: each position is the plain
    value of its constant or its :class:`Variable`.

    Built once per atom (a rule keeps its atoms compiled in
    :attr:`repro.core.rules.Rule.compiled`).  Values compare type-strictly,
    as :class:`Constant` does: ``1``, ``True`` and ``1.0`` are three values.
    """

    __slots__ = ("relation", "peer", "arity", "negated", "args")

    def __init__(self, atom: "Atom", variables: Optional[Dict[Variable, Variable]] = None):
        if variables is None:
            variables = {}
        self.relation: Slot = _slot(atom.relation, variables)
        self.peer: Slot = _slot(atom.peer, variables)
        self.arity = len(atom.args)
        self.negated = atom.negated
        self.args: Tuple[Slot, ...] = tuple(_slot(term, variables) for term in atom.args)

    def locate(self, substitution: Substitution) -> Tuple[Optional[str], Optional[str]]:
        """The relation and the peer under ``substitution`` (``None`` where
        still a variable)."""
        return (_location(self.relation, substitution, "relation"),
                _location(self.peer, substitution, "peer"))

    def bindings(self, substitution: Substitution) -> Optional[Dict[int, object]]:
        """The argument positions ``substitution`` fixes, as a fact source's
        ``{position: value}`` probe (``None`` when none is)."""
        bindings: Optional[Dict[int, object]] = None
        for position, slot in enumerate(self.args):
            if slot.__class__ is Variable:
                bound = substitution.get(slot)
                if bound is None:
                    continue
                slot = bound.value
            if bindings is None:
                bindings = {}
            bindings[position] = slot
        return bindings

    def extend(self, values: Tuple[ConstantValue, ...],
               substitution: Substitution) -> Optional[Substitution]:
        """``substitution`` extended so that the arguments equal ``values``,
        or ``None`` when they cannot.  The input is never mutated."""
        if len(values) != self.arity:
            return None
        extended: Optional[Substitution] = None  # the one copy, made when needed
        for slot, value in zip(self.args, values):
            if slot.__class__ is Variable:
                bound = (extended or substitution).get(slot)
                if bound is None:
                    if extended is None:
                        extended = dict(substitution)
                    extended[slot] = Constant(value)
                    continue
                slot = bound.value
            if slot.__class__ is not value.__class__ or slot != value:
                return None
        return dict(substitution) if extended is None else extended

    def ground(self, substitution: Substitution) -> Optional[Fact]:
        """The fact the atom is under ``substitution``, or ``None`` when a
        position is still a variable."""
        relation, peer = self.locate(substitution)
        try:
            values = tuple([slot if slot.__class__ is not Variable
                            else substitution[slot].value for slot in self.args])
        except KeyError:
            return None
        if relation is None or peer is None:
            return None
        return Fact(relation, peer, values)

    def match(self, fact: Fact, substitution: Substitution) -> Optional[Substitution]:
        """``substitution`` extended so that the atom equals ``fact`` —
        relation and peer positions included — or ``None``."""
        if fact.arity != self.arity:
            return None
        for slot, value in ((self.relation, fact.relation), (self.peer, fact.peer)):
            if slot.__class__ is Variable:
                bound = substitution.get(slot)
                if bound is None:
                    substitution = {**substitution, slot: Constant(value)}
                    continue
                slot = bound.value
            if slot.__class__ is not value.__class__ or slot != value:
                return None
        return self.extend(fact.values, substitution)


class CompiledRule(NamedTuple):
    """A rule's atoms compiled together, sharing one instance per variable;
    ``positive`` lists each positive body literal as ``(position, relation,
    peer)``, ``None`` where the location is a variable (what a seminaive
    pass restricts)."""

    head: CompiledAtom
    body: Tuple[CompiledAtom, ...]
    positive: Tuple[Tuple[int, Optional[str], Optional[str]], ...]

    @classmethod
    def of(cls, rule: "Rule") -> "CompiledRule":
        variables: Dict[Variable, Variable] = {}
        body = tuple(CompiledAtom(atom, variables) for atom in rule.body)
        positive = tuple((index, atom.relation_constant(), atom.peer_constant())
                         for index, atom in enumerate(rule.body) if not atom.negated)
        return cls(CompiledAtom(rule.head, variables), body, positive)


def match_atom_fact(atom: "Atom", fact: Fact,
                    substitution: Optional[Substitution] = None) -> Optional[Substitution]:
    """Match a (positive) atom against a ground fact.

    The relation and peer positions participate in matching, so an atom
    ``pictures@$attendee($id, ...)`` binds ``$attendee`` to the peer of the
    fact.  Returns the extended substitution, or ``None`` when the match
    fails.  Negated atoms cannot be matched against facts directly; callers
    handle negation by checking for the *absence* of matches.
    """
    if atom.negated:
        raise ValueError("cannot match a negated atom against a fact")
    return CompiledAtom(atom).match(fact, substitution or {})
