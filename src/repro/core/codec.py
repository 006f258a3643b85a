"""The one JSON encoding of values, terms, atoms, rules, schemas and facts.

The transport (:mod:`repro.runtime.wire`, message and frame payloads), the
event log and the durable store (rule, schema and delegation records, the
replication channel state) all write these shapes, so a fact looks the same
on the wire, in a log line and on disk.

Every ``encode_*`` returns plain JSON-compatible data and every ``decode_*``
is its exact inverse.  Python's JSON already keeps ``True``, ``1``, ``1.0``
and ``None`` apart, so values carry no type tags; only ``bytes`` and
non-finite floats need an escape (``{"$bytes": hex}`` / ``{"$float": repr}``).
Identity is preserved exactly: rules keep their ``rule_id`` / ``author`` /
``origin``, which is what makes a reopened peer re-derive the delegation ids
its neighbours already know.  A rule built without an id is named by the
digest of :func:`encode_rule_content`, so that encoding is part of every
such id.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema
from repro.core.terms import Constant, ConstantValue, Term, Variable


def encode_value(value: ConstantValue) -> Any:
    """Encode a constant payload as a JSON-compatible value."""
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else {"$float": repr(value)}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    raise TypeError(f"cannot encode value of type {type(value).__name__}")


def decode_value(encoded: Any) -> ConstantValue:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        if "$bytes" in encoded:
            return bytes.fromhex(encoded["$bytes"])
        if "$float" in encoded:
            return float(encoded["$float"])
        raise ValueError(f"unknown encoded value {encoded!r}")
    return encoded


def encode_term(term: Term) -> Dict[str, Any]:
    """Encode a term (constant or variable)."""
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, Constant):
        return {"const": encode_value(term.value)}
    raise TypeError(f"cannot encode term {term!r}")


def decode_term(encoded: Dict[str, Any]) -> Term:
    """Inverse of :func:`encode_term`."""
    if "var" in encoded:
        return Variable(encoded["var"])
    if "const" in encoded:
        return Constant(decode_value(encoded["const"]))
    raise ValueError(f"cannot decode term {encoded!r}")


def encode_fact(fact: Fact) -> Dict[str, Any]:
    """Encode a fact."""
    return {
        "relation": fact.relation,
        "peer": fact.peer,
        "values": [encode_value(v) for v in fact.values],
    }


def decode_fact(encoded: Dict[str, Any]) -> Fact:
    """Inverse of :func:`encode_fact`."""
    return Fact(encoded["relation"], encoded["peer"],
                tuple(decode_value(v) for v in encoded["values"]))


def encode_atom(atom: Atom) -> Dict[str, Any]:
    """Encode an atom."""
    return {
        "relation": encode_term(atom.relation),
        "peer": encode_term(atom.peer),
        "args": [encode_term(a) for a in atom.args],
        "negated": atom.negated,
    }


def decode_atom(encoded: Dict[str, Any]) -> Atom:
    """Inverse of :func:`encode_atom`."""
    return Atom(
        relation=decode_term(encoded["relation"]),
        peer=decode_term(encoded["peer"]),
        args=tuple(decode_term(a) for a in encoded["args"]),
        negated=bool(encoded.get("negated", False)),
    )


def encode_rule_content(rule: Rule) -> Dict[str, Any]:
    """Encode a rule without its id: what a rule built without one is named by."""
    return {
        "head": encode_atom(rule.head),
        "body": [encode_atom(a) for a in rule.body],
        "author": rule.author,
        "origin": rule.origin,
    }


def encode_rule(rule: Rule) -> Dict[str, Any]:
    """Encode a rule including its metadata."""
    encoded = encode_rule_content(rule)
    encoded["rule_id"] = rule.rule_id
    return encoded


def decode_rule(encoded: Dict[str, Any]) -> Rule:
    """Inverse of :func:`encode_rule`."""
    return Rule(
        head=decode_atom(encoded["head"]),
        body=tuple(decode_atom(a) for a in encoded["body"]),
        author=encoded.get("author"),
        origin=encoded.get("origin"),
        rule_id=encoded["rule_id"],
    )


def encode_schema(schema: RelationSchema) -> Dict[str, Any]:
    """Encode a relation schema."""
    return {
        "name": schema.name,
        "peer": schema.peer,
        "columns": list(schema.columns),
        "kind": schema.kind.value,
        "persistent": schema.persistent,
        "key": list(schema.key),
    }


def decode_schema(encoded: Dict[str, Any]) -> RelationSchema:
    """Inverse of :func:`encode_schema`."""
    return RelationSchema(
        name=encoded["name"],
        peer=encoded["peer"],
        columns=tuple(encoded["columns"]),
        kind=RelationKind(encoded["kind"]),
        persistent=bool(encoded["persistent"]),
        key=tuple(encoded["key"]),
    )
