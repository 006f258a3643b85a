"""Test-side stand-ins for pieces of a deployment."""

import asyncio
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.core.errors import TransportError
from repro.net.framing import read_frame
from repro.runtime.inmemory import InMemoryTransport, NetworkStats
from repro.runtime.messages import Message


class UnpromisedTransport(InMemoryTransport):
    """An in-memory transport that promises nothing about delivery.

    Peers over it replicate causally even while it is clean, so a test can
    inject a fault mid-run — a partition, a lost ack — by setting
    ``drop_probability`` on a network that started out lossless.  Delivery
    is the base class's, draw for draw.
    """

    exactly_once_in_order = False


class ZeroLatencyTransport:
    """A minimal from-scratch Transport written against the protocol only.

    Messages become visible at the recipient's next ``receive`` call (no
    round buffering at all) — a semantics *different* from the in-memory
    transport's, proving the orchestrator never assumes the implementation.
    It declares no delivery promise, so its peers replicate causally.
    """

    def __init__(self):
        self._registered: Dict[str, str] = {}
        self._queues: Dict[str, List[Message]] = defaultdict(list)
        self.stats = NetworkStats()
        self._round = 0

    def register(self, peer: str, address: Optional[str] = None) -> None:
        self._registered[peer] = address or peer

    def unregister(self, peer: str) -> None:
        self._registered.pop(peer, None)
        self._queues.pop(peer, None)

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registered))

    def is_registered(self, peer: str) -> bool:
        return peer in self._registered

    def send(self, message: Message) -> bool:
        if message.recipient not in self._registered:
            raise TransportError(f"unknown peer {message.recipient!r}")
        self.stats.messages_sent += 1
        self.stats.payload_items += message.payload_size()
        self._queues[message.recipient].append(message)
        return True

    def send_all(self, messages) -> int:
        return sum(1 for m in messages if self.send(m))

    def receive(self, peer: str) -> List[Message]:
        delivered = self._queues.pop(peer, [])
        self.stats.messages_delivered += len(delivered)
        return delivered

    def advance_round(self) -> int:
        self._round += 1
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        if peer is not None:
            return len(self._queues.get(peer, []))
        return sum(len(q) for q in self._queues.values())

    def has_in_flight(self) -> bool:
        return self.pending_count() > 0

    def reset_stats(self) -> NetworkStats:
        stats = self.stats
        self.stats = NetworkStats()
        return stats


async def read_frames_in_chunks(stream: bytes, chunk_size: int) -> List[dict]:
    """Every frame :func:`read_frame` takes from ``stream`` delivered
    ``chunk_size`` bytes at a time, as a TCP connection may split it; the
    reader runs between chunks, so it sees every partial prefix and body."""
    reader = asyncio.StreamReader()

    async def feed():
        for offset in range(0, len(stream), chunk_size):
            reader.feed_data(stream[offset:offset + chunk_size])
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    try:
        frames = []
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
        return frames
    finally:
        await feeder
