"""One replicated channel: sender-side outbox, receiver-side inbox.

A **channel** is the directed pair ``origin -> target``.  The origin is the
channel's single writer: every operation it emits gets the next contiguous
sequence number, is appended to a retransmission log, and — for fact
insertions — is remembered as a *live dot* of its fact.  A deletion pops the
fact's live dots and carries them in the op (observed-remove semantics): the
deletion removes exactly the insertions the sender had observed, never a
concurrent re-insertion it had not.

The receiver joins ops through a :class:`~repro.replication.dots.CausalContext`:
a sequence number already contained is a duplicate and has no effect at all,
which is what makes applying an envelope idempotent.  Visibility of a fact is
the non-emptiness of its surviving dot set, so insertions and deletions
commute regardless of arrival order — a deletion whose insert has not arrived
yet leaves a tombstone that silently consumes the insert when it shows up.
The inbox reports only **visibility transitions** (fact appeared / fact
vanished, delegation installed / retracted) as effects, which the runtime
feeds to the engine's ordinary input paths.

Both halves can keep a **change journal** for an owner that persists them
(:meth:`repro.replication.state.ReplicationState.persist`): every mutation
records which per-dot row it wrote or removed, so a persistence point costs
what changed since the last one, not what the channel holds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Derivation
from repro.replication.dots import CausalContext, Op

#: Effect tuples an inbox emits, consumed by the runtime:
#: ``("insert", fact)``, ``("delete", fact)``, ``("withdraw", fact)``,
#: ``("delegate", delegation_id, rule, schemas)``, ``("bind", fact)``,
#: ``("unbind", fact)``,
#: ``("undelegate", delegation_id)``, ``("derivation", derivation, anchor)``.
Effect = Tuple

#: A channel's change journal: ``(row kind, seq)`` -> the value the row now
#: holds, or ``None`` when the row is gone.  An outbox journals its
#: retransmission log (``"op"`` -> the :class:`Op`), its live insert dots
#: (``"live"`` -> the fact); an inbox its visible dots (``"vis"`` -> the
#: fact), its tombstones (``"tomb"`` -> ``True``) and its delegation
#: watermarks (``"dg"``, keyed by the winning op's seq -> the delegation id).
#: Each half's rule dictionary rides its header.
Journal = Dict[Tuple[str, int], object]


class _Journaled:
    """What both channel halves keep for an owner that persists them."""

    def __init__(self, journal: bool):
        #: Channel state changed since the last persistence point.
        self.dirty = False
        #: Rows changed since the last persistence point (see :data:`Journal`);
        #: ``None`` when nobody persists this channel, which then keeps no
        #: bookkeeping at all.
        self.changes: Optional[Journal] = {} if journal else None

    def _row(self, kind: str, seq: int, value: object) -> None:
        """Journal that row ``(kind, seq)`` now holds ``value`` (``None``: gone)."""
        if self.changes is not None:
            self.changes[kind, seq] = value


class ChannelOutbox(_Journaled):
    """The sending half of one channel (this peer -> ``target``)."""

    def __init__(self, target: str, journal: bool = False):
        super().__init__(journal)
        self.target = target
        #: Highest sequence number assigned so far (the channel's frontier).
        self.seq = 0
        #: Retransmission log: ops not yet acknowledged by the receiver.
        self.log: Dict[int, Op] = {}
        #: Live insert dots per fact (popped by :meth:`delete`).
        self.live: Dict[Fact, Set[int]] = {}
        #: Contiguous prefix the receiver has acknowledged (log pruned to it).
        self.acked = 0
        #: Highest sequence number already handed out for first transmission.
        self.last_sent = 0
        #: The target raised a transport error (unknown peer): stop trying.
        self.unreachable = False
        #: Rule id -> (its index on this channel, seq of the op that named
        #: it): a derivation names its rule until that op is acknowledged,
        #: then only gives the index.
        self.rules: Dict[str, Tuple[int, int]] = {}

    # -- emitting ops --------------------------------------------------- #

    def _append(self, op: Op) -> Op:
        self.log[op.seq] = op
        self.dirty = True
        self._row("op", op.seq, op)
        return op

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def insert(self, fact: Fact, kind: str = "insert") -> Optional[Op]:
        """Emit an insert op, or ``None`` when ``fact`` is already live.

        The suppression makes re-sends idempotent at the source: a fact the
        channel already carries (and has not deleted) needs no new dot.
        ``kind="bind"`` is the same op for a delegation binding.
        """
        if fact in self.live:
            return None
        seq = self._next_seq()
        self.live[fact] = {seq}
        self._row("live", seq, fact)
        return self._append(Op(seq=seq, kind=kind, fact=fact))

    def delete(self, fact: Fact, kind: str = "delete") -> Op:
        """Emit a delete op removing the fact's observed live dots.

        With no live dots the op is an *out-of-band* deletion (empty
        ``removed``): the receiver applies it directly, covering deletions of
        facts that reached it through other means (e.g. its own base facts).
        ``kind="withdraw"`` is the same op for a fact the sender's rules no
        longer derive, which the receiver applies to an intensional relation
        only; ``kind="unbind"`` for a delegation binding retracted.
        """
        removed = tuple(sorted(self.live.pop(fact, ())))
        for seq in removed:
            self._row("live", seq, None)
        return self._append(Op(seq=self._next_seq(), kind=kind,
                               fact=fact, removed=removed))

    def delegate(self, delegation_id: str, rule: Rule,
                 schemas: Tuple[RelationSchema, ...]) -> Op:
        """Emit a delegation-install op."""
        return self._append(Op(seq=self._next_seq(), kind="delegate",
                               delegation_id=delegation_id, rule=rule,
                               schemas=tuple(schemas)))

    def undelegate(self, delegation_id: str) -> Op:
        """Emit a delegation-retract op."""
        return self._append(Op(seq=self._next_seq(), kind="undelegate",
                               delegation_id=delegation_id))

    def derivation(self, derivation: Derivation, anchor: bool) -> Op:
        """Emit a provenance-derivation op.  Its rule id is sent once per
        channel: the op names it while no op naming it is acknowledged (the
        receiver then holds the name, and its dictionary is durable with its
        causal context), and gives only the rule's index after that."""
        seq = self._next_seq()
        entry = self.rules.get(derivation.rule_id)
        if entry is None:
            entry = self.rules[derivation.rule_id] = (len(self.rules) + 1, seq)
        return self._append(Op(seq=seq, kind="derivation", derivation=derivation,
                               anchor=anchor, rule_index=entry[0],
                               named=entry[1] > self.acked))

    # -- transmission and anti-entropy ---------------------------------- #

    @property
    def frontier(self) -> int:
        """The highest sequence number this channel has assigned."""
        return self.seq

    def take_unsent(self) -> List[Op]:
        """Ops awaiting first transmission (advances the sent watermark)."""
        if self.last_sent >= self.seq:
            return []
        ops = [self.log[s] for s in range(self.last_sent + 1, self.seq + 1)
               if s in self.log]
        self.last_sent = self.seq
        return ops

    def ops_for(self, want: Iterable[int]) -> List[Op]:
        """Answer a pull: the requested ops still in the log, by sequence.

        Sequence numbers the log no longer holds were acknowledged by this
        very receiver and pruned — a stale duplicate pull — and are skipped.
        """
        return [self.log[s] for s in sorted(set(want)) if s in self.log]

    def ack(self, acked: int) -> None:
        """Record the receiver's contiguous frontier; prune the log to it.

        The log holds nothing at or below the previous frontier, so the
        prune walks the newly acknowledged sequence numbers, not the log.
        """
        acked = min(acked, self.seq)
        if acked <= self.acked:
            return
        previous, self.acked = self.acked, acked
        for seq in range(previous + 1, self.acked + 1):
            if self.log.pop(seq, None) is not None:
                self._row("op", seq, None)
        self.dirty = True

    @property
    def unacked(self) -> bool:
        """``True`` while the receiver has not acknowledged the frontier."""
        return not self.unreachable and self.acked < self.seq

    # -- what a persistence point stores --------------------------------- #

    def header(self) -> Dict[str, object]:
        """The part of the channel that is not one row per op or dot: the
        frontiers, and the rule dictionary once it holds anything."""
        header: Dict[str, object] = {"seq": self.seq, "acked": self.acked}
        if self.rules:
            header["rules"] = sorted([index, rule_id, named_at]
                                     for rule_id, (index, named_at) in self.rules.items())
        return header

    def rows(self) -> Set[Tuple[str, int]]:
        """The ``(kind, seq)`` of every row the channel holds."""
        rows = {("op", seq) for seq in self.log}
        rows.update(("live", seq) for dots in self.live.values() for seq in dots)
        return rows


class ChannelInbox(_Journaled):
    """The receiving half of one channel (``origin`` -> this peer)."""

    def __init__(self, origin: str, journal: bool = False):
        super().__init__(journal)
        self.origin = origin
        #: Sequence numbers already joined (duplicates have no effect).
        self.cc = CausalContext()
        #: Surviving insert dots per visible fact.
        self.visible: Dict[Fact, Set[int]] = {}
        #: Dots removed by a deletion whose insert op has not arrived yet.
        self.tombstoned: Set[int] = set()
        #: Last-writer-wins watermark per delegation id (sender order = seq).
        self.delegation_seq: Dict[str, int] = {}
        #: Highest frontier the origin has advertised (envelope or digest).
        self.advertised = 0
        #: Contiguous frontier last acknowledged back to the origin.
        self.acked = 0
        #: Rule index -> rule id, as the origin's ops named them.
        self.rules: Dict[int, str] = {}

    def apply(self, op: Op) -> List[Effect]:
        """Join one op; returns the visibility-transition effects (if any)."""
        if not self.cc.add(op.seq):
            return []
        self.dirty = True
        if op.kind in ("insert", "bind"):
            if op.seq in self.tombstoned:
                self.tombstoned.discard(op.seq)
                self._row("tomb", op.seq, None)
                return []
            dots = self.visible.setdefault(op.fact, set())
            dots.add(op.seq)
            self._row("vis", op.seq, op.fact)
            return [(op.kind, op.fact)] if len(dots) == 1 else []
        if op.kind in ("delete", "withdraw", "unbind"):
            if not op.removed:
                # Out-of-band deletion: no dot of this channel to remove.
                return [(op.kind, op.fact)]
            dots = self.visible.get(op.fact)
            for seq in op.removed:
                if dots is not None and seq in dots:
                    dots.discard(seq)
                    self._row("vis", seq, None)
                else:
                    self.tombstoned.add(seq)
                    self._row("tomb", seq, True)
            if dots is not None and not dots:
                del self.visible[op.fact]
                return [(op.kind, op.fact)]
            return []
        if op.kind == "delegate":
            if self._advance_delegation(op):
                return [("delegate", op.delegation_id, op.rule, op.schemas)]
            return []
        if op.kind == "undelegate":
            if self._advance_delegation(op):
                return [("undelegate", op.delegation_id)]
            return []
        if op.kind == "derivation":
            derivation = op.derivation
            if op.named:
                self.rules[op.rule_index] = derivation.rule_id
            else:
                derivation = replace(derivation, rule_id=self.rules[op.rule_index])
            return [("derivation", derivation, op.anchor)]
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _advance_delegation(self, op: Op) -> bool:
        """Move a delegation's watermark to ``op``; ``False`` when it is stale."""
        previous = self.delegation_seq.get(op.delegation_id, 0)
        if op.seq <= previous:
            return False
        self.delegation_seq[op.delegation_id] = op.seq
        self._row("dg", op.seq, op.delegation_id)
        if previous:
            self._row("dg", previous, None)
        return True

    def apply_all(self, ops: Iterable[Op]) -> List[Effect]:
        """Join a batch in sequence order (deterministic effect order)."""
        effects: List[Effect] = []
        for op in sorted(ops, key=lambda o: o.seq):
            effects.extend(self.apply(op))
        return effects

    def observe_frontier(self, frontier: int) -> None:
        """Record the origin's advertised frontier (envelope or digest)."""
        if frontier > self.advertised:
            self.advertised = frontier
            self.dirty = True

    def missing(self) -> List[int]:
        """Sequence numbers missing up to the advertised frontier."""
        return self.cc.missing(self.advertised)

    def is_complete(self) -> bool:
        """``True`` when every advertised sequence number was joined."""
        return self.cc.is_complete(self.advertised)

    # -- what a persistence point stores --------------------------------- #

    def header(self) -> Dict[str, object]:
        """The part of the channel that is not one row per dot, the rule
        dictionary included once it holds anything."""
        header: Dict[str, object] = {"cc": self.cc.encode(),
                                     "advertised": self.advertised, "acked": self.acked}
        if self.rules:
            header["rules"] = sorted([index, rule_id] for index, rule_id in self.rules.items())
        return header

    def rows(self) -> Set[Tuple[str, int]]:
        """The ``(kind, seq)`` of every row the channel holds."""
        rows = {("tomb", seq) for seq in self.tombstoned}
        rows.update(("vis", seq) for dots in self.visible.values() for seq in dots)
        rows.update(("dg", seq) for seq in self.delegation_seq.values())
        return rows
