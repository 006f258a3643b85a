"""Push-gossip dissemination state: envelope buffer, digests, anti-entropy.

Application messages travel as :class:`~repro.net.frames.EnvelopeFrame`
records flooded along random fanout edges.  Each node remembers the
envelope ids it has seen in a bounded :class:`GossipBuffer`; duplicates are
dropped on arrival, and the recent-id **digest** is what anti-entropy
exchanges compare: a node periodically offers its digest to one random
peer, which answers with the envelopes the offerer lacks and a ``pull`` for
the ones it lacks itself.  Together push (probabilistic, fast) and pull
(deterministic repair) deliver every envelope to its recipient without any
global routing table.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.frames import EnvelopeFrame

_envelope_counter = itertools.count(1)


@dataclass
class GossipConfig:
    """Fanout and buffer constants of the dissemination layer."""

    #: Random peers each envelope is pushed/forwarded to (the recipient,
    #: when its address is known, is always included on top).
    fanout: int = 3
    #: Forwarding stops once an envelope has travelled this many hops.
    max_hops: int = 8
    #: Seconds between anti-entropy digest offers.
    anti_entropy_interval: float = 0.4
    #: Envelope ids advertised per digest (most recent first).
    digest_window: int = 256
    #: Envelopes retained for anti-entropy replay before eviction.
    buffer_size: int = 4096


def next_envelope_id(origin: str) -> str:
    """A process-unique envelope identifier stamped with its origin."""
    return f"{origin}#{next(_envelope_counter)}"


class GossipBuffer:
    """Bounded store of the envelopes a node has seen, in arrival order."""

    def __init__(self, config: Optional[GossipConfig] = None):
        self.config = config or GossipConfig()
        self._seen: "OrderedDict[str, EnvelopeFrame]" = OrderedDict()

    def observe(self, envelope: EnvelopeFrame) -> bool:
        """Record an envelope; ``False`` when its id was already seen."""
        if envelope.envelope_id in self._seen:
            return False
        self._seen[envelope.envelope_id] = envelope
        while len(self._seen) > self.config.buffer_size:
            self._seen.popitem(last=False)
        return True

    def __contains__(self, envelope_id: str) -> bool:
        return envelope_id in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def digest(self) -> Tuple[str, ...]:
        """The most recent envelope ids (up to ``digest_window``), oldest
        first.

        Taken from the recent end of the buffer, so an offer costs its
        window, not the (up to ``buffer_size``) ids the buffer holds.
        """
        window = self.config.digest_window
        if len(self._seen) <= window:
            return tuple(self._seen)
        recent = list(itertools.islice(reversed(self._seen), window))
        recent.reverse()
        return tuple(recent)

    def missing(self, offered: Iterable[str]) -> Tuple[str, ...]:
        """Of the offered ids, the ones this buffer has not seen."""
        return tuple(i for i in offered if i not in self._seen)

    def get(self, envelope_id: str) -> Optional[EnvelopeFrame]:
        return self._seen.get(envelope_id)

    def take(self, ids: Iterable[str]) -> List[EnvelopeFrame]:
        """The stored envelopes among ``ids`` (silently skipping evicted ones)."""
        found = []
        for envelope_id in ids:
            envelope = self._seen.get(envelope_id)
            if envelope is not None:
                found.append(envelope)
        return found

    def not_in(self, other_ids: Iterable[str]) -> List[EnvelopeFrame]:
        """Envelopes in this buffer that the other digest does not list.

        Only the digest window is compared — older envelopes are assumed
        disseminated (they had ``buffer_size`` arrivals' worth of chances).
        """
        other = set(other_ids)
        recent = self.digest()
        return [self._seen[i] for i in recent if i not in other]
