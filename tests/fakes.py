"""Test-side stand-ins for pieces of a deployment."""

import asyncio
import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import TransportError
from repro.net.events import read_events
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


class ReplayDivergence(AssertionError):
    """A replayed run did something its recording did not."""


def wire_content(message) -> Dict[str, Any]:
    """A message's wire form (from a live message or a log record) without
    its ``message_id``, a process-wide counter."""
    wire = message.to_wire() if isinstance(message, Message) else dict(message)
    wire.pop("message_id", None)
    return json.loads(json.dumps(wire))


class ReplayTransport:
    """Replays the delivery schedule of an :class:`InMemoryTransport` run.

    Built from the run's JSONL event log (``InMemoryTransport(event_log=
    NetEventLog(path))``).  :meth:`send` matches each message to the next
    recorded ``send`` / ``drop`` of its sender, by wire form without
    ``message_id``, in the same round; a ``drop`` is dropped again.
    :meth:`receive` hands each peer, in each round, exactly the messages the
    recorded ``deliver`` sequence names, duplicates included, in the
    recorded order — the live messages this run sent.  So a failing lossy,
    duplicating, reordering run re-runs deterministically from its log with
    no random draw at all.  Any
    divergence raises :class:`ReplayDivergence` naming the first record that
    did not match; :meth:`finish` raises for the first record never reached.
    Like the faulty transport it replays, it promises no exactly-once,
    in-order delivery, so its peers replicate causally.
    """

    exactly_once_in_order = False
    event_log = None

    def __init__(self, path):
        self.records = read_events(path)
        self.stats = NetworkStats()
        self._round = 0
        self._registered: Dict[str, str] = {}
        self._matched = [False] * len(self.records)
        # Per sender, the indices of its send/drop records, in order.
        self._sends: Dict[str, List[int]] = defaultdict(list)
        # Per recipient, the indices of its deliver records, in order.
        self._delivers: Dict[str, List[int]] = defaultdict(list)
        for index, record in enumerate(self.records):
            if record["action"] in ("send", "drop"):
                self._sends[record["node"]].append(index)
            elif record["action"] == "deliver":
                self._delivers[record["node"]].append(index)
        #: Recorded message id -> the live message this run sent in its place.
        self._sent: Dict[str, Message] = {}
        #: Copies queued for each recipient and not delivered yet.
        self._in_flight: Dict[str, int] = defaultdict(int)

    def _diverged(self, index: int, why: str):
        return ReplayDivergence(f"record {index} {self.records[index]!r}: {why}")

    def register(self, peer: str, address: Optional[str] = None) -> None:
        self._registered[peer] = address or peer

    def unregister(self, peer: str) -> None:
        self._registered.pop(peer, None)
        self.stats.messages_dropped += self._in_flight.pop(peer, 0)

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registered))

    def is_registered(self, peer: str) -> bool:
        return peer in self._registered

    def send(self, message: Message) -> bool:
        if message.recipient not in self._registered:
            raise TransportError(f"unknown peer {message.recipient!r}")
        queue = self._sends[message.sender]
        if not queue:
            raise ReplayDivergence(
                f"{message.sender} sent {wire_content(message)!r} after its last "
                "recorded send")
        index = queue.pop(0)
        record = self.records[index]
        if record["ts"] != self._round or wire_content(record["message"]) != wire_content(message):
            raise self._diverged(
                index, f"round {self._round} sent {wire_content(message)!r} instead")
        self._matched[index] = True
        self._sent[record["message_id"]] = message
        self.stats.messages_sent += 1
        self.stats.by_kind[message.kind()] += 1
        self.stats.by_link[(message.sender, message.recipient)] += 1
        self.stats.payload_items += message.payload_size()
        if record["action"] == "drop":
            self.stats.messages_dropped += 1
            return False
        before = self.records[index - 1] if index else {}
        duplicated = (before.get("action") == "dup"
                      and before.get("message_id") == record["message_id"])
        self._in_flight[message.recipient] += 2 if duplicated else 1
        return True

    def send_all(self, messages) -> int:
        return sum(1 for m in messages if self.send(m))

    def _due(self, peer: str) -> List[int]:
        queue = self._delivers.get(peer, [])
        count = 0
        while count < len(queue) and self.records[queue[count]]["ts"] <= self._round:
            count += 1
        return queue[:count]

    def receive(self, peer: str) -> List[Message]:
        due = self._due(peer)
        delivered = []
        for index in due:
            message = self._sent.get(self.records[index]["message_id"])
            if message is None:
                raise self._diverged(index, "delivers a message this run never sent")
            self._matched[index] = True
            delivered.append(message)
        del self._delivers[peer][:len(due)]
        self._in_flight[peer] -= len(delivered)
        self.stats.messages_delivered += len(delivered)
        return delivered

    def due_count(self, peer: str) -> int:
        return len(self._due(peer))

    def advance_round(self) -> int:
        for queue in self._delivers.values():
            if queue and self.records[queue[0]]["ts"] <= self._round:
                raise self._diverged(queue[0], "was not delivered: its peer "
                                               f"ran no stage in round {self._round}")
        self._round += 1
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        if peer is not None:
            return self._in_flight.get(peer, 0)
        return sum(self._in_flight.values())

    def has_in_flight(self) -> bool:
        return self.pending_count() > 0

    def reset_stats(self) -> NetworkStats:
        stats = self.stats
        self.stats = NetworkStats()
        return stats

    def finish(self) -> None:
        """Raise for the first send, drop or deliver record never replayed."""
        for index, record in enumerate(self.records):
            if record["action"] in ("send", "drop", "deliver") and not self._matched[index]:
                raise self._diverged(index, "was never replayed")


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
