"""Delta-state replication of extensional updates (dots + causal contexts).

A clean in-memory transport delivers every :class:`FactMessage` exactly once
and in order, so the engine's diff-based update protocol never sees a
gap.  A real transport (``repro.net``) breaks all three assumptions:
messages arrive late, duplicated and out of order, and some never arrive at
all.  This package re-ships every cross-peer update as a **join-able delta**
in the style of delta-state CRDTs (Almeida et al.; see SNIPPETS.md's
``DeltaCRDT.py``):

* every operation a peer sends over one channel gets a **dot** — the pair
  ``(origin peer, sequence number)``, contiguous per channel
  (:mod:`repro.replication.dots`);
* the receiver tracks which dots it has seen in a **compact causal context**
  and joins each :class:`~repro.replication.dots.Op` at most once, so
  applying an envelope is idempotent, commutative and order-insensitive
  (:mod:`repro.replication.channel`);
* lost envelopes are repaired by periodic **anti-entropy**: the producer
  advertises its frontier in a digest, the consumer pulls the missing
  sequence numbers, and acknowledges the contiguous frontier so the producer
  can prune its op log (:mod:`repro.replication.state`).

Fact updates, provenance closures and delegation install/retract remainders
all ride the same mechanism, so any interleaving of drop, duplication and
reordering converges to the fixpoint of a run over a clean transport (pinned
by ``tests/properties/test_confluence_replication.py``).

The transport decides whether a deployment replicates this way: every peer
gets a :class:`~repro.replication.state.ReplicationState` unless its
transport declares ``exactly_once_in_order`` (see
:meth:`repro.runtime.system.WebdamLogSystem.add_peer`).

Only :mod:`~repro.replication.dots` and :mod:`~repro.replication.channel`
are imported here: :mod:`~repro.replication.state` depends on
:mod:`repro.runtime.messages`, which itself imports this package for the op
codec — importing it at package level would cycle.
"""

from __future__ import annotations

from repro.replication.dots import CausalContext, Dot, Op
from repro.replication.channel import ChannelInbox, ChannelOutbox

__all__ = [
    "CausalContext",
    "Dot",
    "Op",
    "ChannelInbox",
    "ChannelOutbox",
]
