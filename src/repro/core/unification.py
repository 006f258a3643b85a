"""Substitutions and matching.

WebdamLog evaluation only ever needs *matching* (one-way unification of an
atom containing variables against a ground fact), never full unification of
two non-ground terms.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.facts import Fact
from repro.core.rules import Atom
from repro.core.terms import Constant, Term, Variable

#: A substitution maps variables to terms (constants during evaluation).
Substitution = Dict[Variable, Term]


def match_term(pattern: Term, value: Constant,
               substitution: Substitution) -> Optional[Substitution]:
    """Match a (possibly variable) pattern term against a ground constant.

    Returns an extended copy of ``substitution`` on success, ``None`` on
    failure.  The input substitution is never mutated.
    """
    if isinstance(pattern, Constant):
        if pattern == value:
            return dict(substitution)
        return None
    bound = substitution.get(pattern)
    if bound is None:
        extended = dict(substitution)
        extended[pattern] = value
        return extended
    if isinstance(bound, Constant) and bound == value:
        return dict(substitution)
    return None


def match_atom_fact(atom: Atom, fact: Fact,
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
    if atom.arity != fact.arity:
        return None
    current: Substitution = dict(substitution) if substitution else {}
    result = match_term(atom.relation, Constant(fact.relation), current)
    if result is None:
        return None
    result = match_term(atom.peer, Constant(fact.peer), result)
    if result is None:
        return None
    for pattern, value in zip(atom.args, fact.terms()):
        result = match_term(pattern, value, result)
        if result is None:
            return None
    return result
