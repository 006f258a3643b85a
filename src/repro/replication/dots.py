"""Dots, compact causal contexts and replicated operations.

A **dot** identifies one operation ever emitted on one replication channel:
the pair ``(origin peer, sequence number)``.  Because each channel has a
single writer (the sending peer), sequence numbers are contiguous per
channel, which makes the receiver's **causal context** — the set of dots it
has already joined — compressible to a contiguous watermark plus a small set
of out-of-order extras, exactly the representation delta-state CRDTs use.

An :class:`Op` is the unit of replication: one dotted operation carrying a
fact insertion, a fact deletion (with the dots it removes — observed-remove
semantics), a delegation install/retract, or a provenance derivation.  Ops
are immutable and JSON-encodable (:mod:`repro.runtime.wire`), and joining
the same op twice is a no-op by construction: the causal context filters
duplicate sequence numbers before any effect is applied.

This module depends only on :mod:`repro.core` and :mod:`repro.provenance`,
so the wire codec and the message layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Derivation

#: The operation kinds a channel replicates.  ``insert``/``delete`` carry
#: extensional (or provided-intensional) fact updates, ``withdraw`` a derived
#: fact its sender no longer derives, ``delegate`` / ``undelegate`` carry
#: the delegation templates of distributed rules, ``bind`` / ``unbind`` the
#: bindings of those templates (one per delegation, with the dots of
#: ``insert`` / ``delete``), and ``derivation`` carries one provenance
#: closure entry.
OP_KINDS = ("insert", "delete", "withdraw", "delegate", "undelegate", "bind", "unbind",
            "derivation")


class Dot(NamedTuple):
    """One operation's identity: ``(origin peer, per-channel sequence number)``."""

    origin: str
    seq: int


@dataclass(frozen=True)
class Op:
    """One dotted, replicated operation.

    ``seq`` is the dot's sequence number (the origin is implied by the
    channel the op travels on).  Exactly the fields of the op's ``kind`` are
    meaningful:

    * ``insert``, ``bind`` — ``fact``;
    * ``delete`` — ``fact`` plus ``removed``, the sequence numbers of the
      insert dots this deletion observed (empty for an out-of-band deletion
      of a fact this channel never inserted);
    * ``withdraw`` — as ``delete``, for a fact the sender no longer derives;
    * ``unbind`` — as ``delete``, for a binding;
    * ``delegate`` — ``delegation_id``, ``rule``, ``schemas``;
    * ``undelegate`` — ``delegation_id``;
    * ``derivation`` — ``derivation`` and ``anchor``, plus ``rule_index``: the
      index the channel gave the derivation's rule id.  ``named`` says the
      op carries the id itself; an op that does not is decoded with an
      empty id, which the receiving inbox fills from its dictionary.
    """

    seq: int
    kind: str
    fact: Optional[Fact] = None
    removed: Tuple[int, ...] = ()
    delegation_id: str = ""
    rule: Optional[Rule] = None
    schemas: Tuple[RelationSchema, ...] = ()
    derivation: Optional[Derivation] = None
    anchor: bool = True
    rule_index: int = 0
    named: bool = True

    def dot(self, origin: str) -> Dot:
        """This op's dot on the channel from ``origin``."""
        return Dot(origin, self.seq)


@dataclass
class CausalContext:
    """The compact set of sequence numbers a channel endpoint has seen.

    ``base`` is the contiguous watermark: every sequence number in
    ``1..base`` is contained.  ``extras`` holds the numbers seen out of
    order beyond the watermark; :meth:`add` drains them back into ``base``
    as gaps fill, so the representation stays small under any reordering.
    """

    base: int = 0
    extras: set = field(default_factory=set)

    def __contains__(self, seq: int) -> bool:
        return seq <= self.base or seq in self.extras

    def add(self, seq: int) -> bool:
        """Join one sequence number; ``False`` when it was already contained."""
        if seq in self:
            return False
        if seq == self.base + 1:
            self.base += 1
            while self.base + 1 in self.extras:
                self.base += 1
                self.extras.discard(self.base)
        else:
            self.extras.add(seq)
        return True

    def missing(self, upto: int) -> List[int]:
        """The sequence numbers up to ``upto`` this context has not seen."""
        return [seq for seq in range(self.base + 1, upto + 1)
                if seq not in self.extras]

    def is_complete(self, upto: int) -> bool:
        """``True`` when every sequence number in ``1..upto`` is contained."""
        return self.base >= upto or not self.missing(upto)

    def encode(self) -> Dict[str, object]:
        """JSON-compatible representation (see :func:`CausalContext.decode`)."""
        return {"base": self.base, "extras": sorted(self.extras)}

    @classmethod
    def decode(cls, encoded: Dict[str, object]) -> "CausalContext":
        """Inverse of :meth:`encode`."""
        return cls(base=int(encoded.get("base", 0)),
                   extras=set(int(s) for s in encoded.get("extras", [])))
