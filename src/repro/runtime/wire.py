"""Wire encoding of the runtime's own payloads: derivations and replicated ops.

The in-memory transport passes Python objects around directly; a socket
transport, the event log and the durable replication channel state need a
serialisable encoding.  Facts, rules and schemas are encoded by the shared
:mod:`repro.core.codec`; this module adds the two payloads only the runtime
knows about, in ``encode_*`` / ``decode_*`` pairs that round-trip exactly.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core import codec
from repro.provenance.graph import Derivation
from repro.replication.dots import Op


# --------------------------------------------------------------------------- #
# provenance payloads
# --------------------------------------------------------------------------- #

def encode_derivation(derivation: Derivation, named: bool = True) -> Dict[str, Any]:
    """Encode a provenance :class:`~repro.provenance.graph.Derivation`.

    Peers running with provenance enabled attach derivations to their fact
    updates, so receivers can answer why/lineage queries across peer
    boundaries.  ``named=False`` leaves the rule id out (a replication op
    gives its channel's index of it instead).
    """
    encoded: Dict[str, Any] = {"fact": codec.encode_fact(derivation.fact)}
    if named:
        encoded["rule_id"] = derivation.rule_id
    encoded["support"] = [codec.encode_fact(f) for f in derivation.support]
    encoded["author"] = derivation.author
    return encoded


def decode_derivation(encoded: Dict[str, Any]) -> Derivation:
    """Inverse of :func:`encode_derivation`."""
    return Derivation(
        fact=codec.decode_fact(encoded["fact"]),
        rule_id=encoded.get("rule_id", ""),
        support=tuple(codec.decode_fact(f) for f in encoded.get("support", [])),
        author=encoded.get("author"),
    )


# --------------------------------------------------------------------------- #
# replication payloads (dotted delta ops)
# --------------------------------------------------------------------------- #

def encode_op(op: Op) -> Dict[str, Any]:
    """Encode a replicated :class:`~repro.replication.dots.Op`.

    Only the fields meaningful for the op's kind are emitted, so envelopes
    stay compact on the wire (an insert op is a sequence number plus one
    fact; a delete op adds the removed dot numbers).
    """
    encoded: Dict[str, Any] = {"seq": op.seq, "kind": op.kind}
    if op.fact is not None:
        encoded["fact"] = codec.encode_fact(op.fact)
    if op.removed:
        encoded["removed"] = list(op.removed)
    if op.delegation_id:
        encoded["delegation_id"] = op.delegation_id
    if op.rule is not None:
        encoded["rule"] = codec.encode_rule(op.rule)
    if op.schemas:
        encoded["schemas"] = [codec.encode_schema(s) for s in op.schemas]
    if op.derivation is not None:
        encoded["derivation"] = encode_derivation(op.derivation, op.named)
        encoded["anchor"] = op.anchor
        encoded["rule_index"] = op.rule_index
    return encoded


def decode_op(encoded: Dict[str, Any]) -> Op:
    """Inverse of :func:`encode_op`."""
    fact = encoded.get("fact")
    rule = encoded.get("rule")
    derivation = encoded.get("derivation")
    return Op(
        seq=encoded["seq"],
        kind=encoded["kind"],
        fact=codec.decode_fact(fact) if fact is not None else None,
        removed=tuple(encoded.get("removed", ())),
        delegation_id=encoded.get("delegation_id", ""),
        rule=codec.decode_rule(rule) if rule is not None else None,
        schemas=tuple(codec.decode_schema(s) for s in encoded.get("schemas", [])),
        derivation=decode_derivation(derivation) if derivation is not None else None,
        anchor=encoded.get("anchor", True),
        rule_index=encoded.get("rule_index", 0),
        named=derivation is None or "rule_id" in derivation,
    )
