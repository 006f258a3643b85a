"""Messages exchanged between WebdamLog peers.

Five kinds of message travel on the network:

* **the stage update** (:class:`FactMessage`) — everything one stage sends
  one recipient, mirroring step 3 of the computation stage described in the
  paper: insertions and deletions for relations located at the recipient,
  their provenance, and the delegated rules installed at or retracted from
  the recipient;
* **replication payloads** (:class:`DeltaEnvelopeMessage`,
  :class:`ReplicationDigestMessage`, :class:`ReplicationPullMessage`,
  :class:`ReplicationAckMessage`) — the dotted delta ops and anti-entropy
  control of causal replication (:mod:`repro.replication`), which replace
  the raw stage update on every transport that does not promise
  exactly-once, in-order delivery.

Every message can be encoded to / decoded from a JSON-compatible dictionary
(:meth:`Message.to_wire`, :func:`message_from_wire`) so the same types flow
over both the in-memory and the TCP transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.core import codec
from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Derivation
from repro.replication.dots import Op
from repro.runtime import wire

@dataclass(frozen=True)
class Message:
    """Base class for every message: sender, recipient and an identifier.

    A deployment numbers each message as it sends it
    (:meth:`~repro.runtime.system.WebdamLogSystem.activate_peer`), so ids
    are unique within the deployment and the same on every build of it; a
    message built by hand carries the id it is given (``""`` by default).
    """

    sender: str
    recipient: str
    message_id: str = ""

    def payload_size(self) -> int:
        """Approximate payload size used by the network accounting (in items)."""
        return 1

    def kind(self) -> str:
        """Short type tag used for accounting and wire encoding."""
        return type(self).__name__

    def to_wire(self) -> Dict[str, Any]:
        """Encode the message as a JSON-compatible dictionary."""
        return {
            "kind": self.kind(),
            "sender": self.sender,
            "recipient": self.recipient,
            "message_id": self.message_id,
        }


@dataclass(frozen=True)
class FactMessage(Message):
    """Everything one stage of the sender ships the recipient.

    ``inserted`` / ``deleted`` are fact updates addressed to relations of
    the recipient.  ``derivations`` optionally carries their provenance (the
    sender's derivations, transitively down to its base facts, and fresh
    alternative derivations of facts shipped earlier) so provenance-enabled
    receivers can answer why/lineage queries — and apply lineage-based
    access control — across peer boundaries.  ``installs`` are the delegated
    rules to install at the recipient, as ``(delegation_id, rule, schemas)``
    — the schemas (known to the delegator) of the relations the rule
    mentions, so the recipient learns, for example, that the head relation
    is intensional at the delegator (the paper's run-time relation
    discovery); ``retracts`` are the ids of delegations to retract.
    """

    inserted: FrozenSet[Fact] = frozenset()
    deleted: FrozenSet[Fact] = frozenset()
    derivations: Tuple[Derivation, ...] = ()
    installs: Tuple[Tuple[str, Rule, Tuple[RelationSchema, ...]], ...] = ()
    retracts: Tuple[str, ...] = ()

    def payload_size(self) -> int:
        """Facts and derivations carried, plus one per delegated rule, per
        schema it ships with and per retraction."""
        return (len(self.inserted) + len(self.deleted) + len(self.derivations)
                + sum(1 + len(schemas) for _, _, schemas in self.installs)
                + len(self.retracts))

    def effects(self) -> List[Tuple]:
        """The message as the effect tuples a replication inbox emits, in the
        order facts, derivations, installs, retracts.  Only the inserted
        facts anchor a derivation; lineage intermediates live as long as an
        anchor reaches them."""
        effects: List[Tuple] = [("insert", fact) for fact in self.inserted]
        effects.extend(("delete", fact) for fact in self.deleted)
        effects.extend(("derivation", derivation, derivation.fact in self.inserted)
                       for derivation in self.derivations)
        effects.extend(("delegate", *install) for install in self.installs)
        effects.extend(("undelegate", delegation_id) for delegation_id in self.retracts)
        return effects

    def to_wire(self) -> Dict[str, Any]:
        encoded = super().to_wire()
        encoded["inserted"] = [codec.encode_fact(f) for f in sorted(self.inserted, key=str)]
        encoded["deleted"] = [codec.encode_fact(f) for f in sorted(self.deleted, key=str)]
        encoded["derivations"] = [wire.encode_derivation(d) for d in self.derivations]
        if self.installs:
            encoded["installs"] = [
                {"delegation_id": delegation_id, "rule": codec.encode_rule(rule),
                 "schemas": [codec.encode_schema(s) for s in schemas]}
                for delegation_id, rule, schemas in self.installs]
        if self.retracts:
            encoded["retracts"] = list(self.retracts)
        return encoded


@dataclass(frozen=True)
class DeltaEnvelopeMessage(Message):
    """A batch of dotted delta ops on one replication channel.

    Applying an envelope is an idempotent, commutative causal join: the
    recipient's inbox filters already-joined sequence numbers, so drops are
    repaired by retransmission, duplicates are absorbed, and reordering is
    resolved by the dot sets.  ``frontier`` advertises the sender's highest
    sequence number so the recipient can detect gaps without a digest.
    """

    ops: Tuple[Op, ...] = ()
    frontier: int = 0

    def payload_size(self) -> int:
        """Number of ops carried."""
        return len(self.ops)

    def to_wire(self) -> Dict[str, Any]:
        encoded = super().to_wire()
        encoded["ops"] = [wire.encode_op(op) for op in self.ops]
        encoded["frontier"] = self.frontier
        return encoded


@dataclass(frozen=True)
class ReplicationDigestMessage(Message):
    """Anti-entropy digest: the sender's channel frontier."""

    frontier: int = 0

    def to_wire(self) -> Dict[str, Any]:
        encoded = super().to_wire()
        encoded["frontier"] = self.frontier
        return encoded


@dataclass(frozen=True)
class ReplicationPullMessage(Message):
    """Anti-entropy pull: sequence numbers the sender's inbox is missing."""

    want: Tuple[int, ...] = ()

    def payload_size(self) -> int:
        """Number of sequence numbers requested."""
        return len(self.want)

    def to_wire(self) -> Dict[str, Any]:
        encoded = super().to_wire()
        encoded["want"] = list(self.want)
        return encoded


@dataclass(frozen=True)
class ReplicationAckMessage(Message):
    """Contiguous-frontier acknowledgement: the producer may prune its log."""

    acked: int = 0

    def to_wire(self) -> Dict[str, Any]:
        encoded = super().to_wire()
        encoded["acked"] = self.acked
        return encoded


def message_from_wire(encoded: Dict[str, Any]) -> Message:
    """Decode a message produced by :meth:`Message.to_wire`."""
    kind = encoded.get("kind")
    common = {
        "sender": encoded["sender"],
        "recipient": encoded["recipient"],
        "message_id": encoded.get("message_id", ""),
    }
    if kind == "FactMessage":
        return FactMessage(
            inserted=frozenset(codec.decode_fact(f) for f in encoded.get("inserted", [])),
            deleted=frozenset(codec.decode_fact(f) for f in encoded.get("deleted", [])),
            derivations=tuple(wire.decode_derivation(d)
                              for d in encoded.get("derivations", [])),
            installs=tuple(
                (install["delegation_id"], codec.decode_rule(install["rule"]),
                 tuple(codec.decode_schema(s) for s in install["schemas"]))
                for install in encoded.get("installs", [])),
            retracts=tuple(encoded.get("retracts", ())),
            **common,
        )
    if kind == "DeltaEnvelopeMessage":
        return DeltaEnvelopeMessage(
            ops=tuple(wire.decode_op(op) for op in encoded.get("ops", [])),
            frontier=encoded.get("frontier", 0),
            **common,
        )
    if kind == "ReplicationDigestMessage":
        return ReplicationDigestMessage(frontier=encoded.get("frontier", 0), **common)
    if kind == "ReplicationPullMessage":
        return ReplicationPullMessage(
            want=tuple(encoded.get("want", ())), **common,
        )
    if kind == "ReplicationAckMessage":
        return ReplicationAckMessage(acked=encoded.get("acked", 0), **common)
    raise ValueError(f"unknown message kind {kind!r}")
