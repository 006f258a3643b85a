"""The asyncio TCP transport: real sockets under the round-based runtime.

:class:`TcpTransport` implements the synchronous
:class:`~repro.runtime.transport.Transport` protocol over localhost TCP.
Each registered peer gets its own :class:`~repro.net.node.GossipNode` and
its own listening socket; frames travel length-prefixed
(:mod:`repro.net.framing`) between ephemeral ports, so two peers of the
same deployment genuinely talk through the kernel's network stack — the
WEPIC scenario of the paper over actual connections.

Threading model: one background asyncio event loop runs in a daemon
thread and owns *all* gossip-node state (servers, connections, the
periodic SWIM/anti-entropy ticker).  The synchronous transport methods
called by the driver submit coroutines to that loop and wait for the
result, so no node is ever touched from two threads.

Because TCP has no global "no messages in flight" oracle, a networked
deployment cannot detect convergence from a single quiescent cycle the way
the in-memory transport can.  The transport therefore advertises a
``convergence_quiet_period``: the converge loop (see
:func:`repro.runtime.scheduler.settled`) requires that many *consecutive*
settled cycles before declaring a fixpoint, and :meth:`advance_round`
briefly sleeps whenever every inbox is empty so those quiet cycles give the
network time to deliver straggling frames.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import TransportError
from repro.net.events import NetEventLog
from repro.net.framing import FrameError, read_frame, write_frame
from repro.net.gossip import GossipConfig
from repro.net.membership import SwimConfig
from repro.net.node import GossipNode
from repro.runtime.inmemory import NetworkStats
from repro.runtime.messages import Message

#: Outbound connections kept open; the least recently used one is closed
#: when the cache outgrows this (bounds file descriptors at large scale).
MAX_CACHED_CONNECTIONS = 256

#: Seconds a synchronous transport call waits for the loop thread.
CALL_TIMEOUT = 30.0


class _Endpoint:
    """One registered peer's node plus its listening server."""

    def __init__(self, node: GossipNode, server: "asyncio.base_events.Server"):
        self.node = node
        self.server = server


class TcpTransport:
    """Localhost TCP transport with gossip dissemination and SWIM liveness.

    Parameters
    ----------
    host:
        Interface to bind the per-peer servers on (default ``127.0.0.1``).
    gossip / swim:
        Protocol tuning (:class:`~repro.net.gossip.GossipConfig`,
        :class:`~repro.net.membership.SwimConfig`); defaults suit localhost.
    events:
        Optional :class:`~repro.net.events.NetEventLog` receiving the
        structured network event log — ``NetEventLog(path=...)`` streams it
        to a JSONL file in the format the simulator and the in-memory
        transport write; add ``keep_in_memory=False`` so a long-lived
        deployment does not also hold every record in memory.  The caller
        owns the log: closing the transport leaves it open, so one log can
        serve several transports (one builder chain built more than once)
        and is closed by whoever opened it.  Without one the transport
        records nothing.
    quiet_period:
        Consecutive settled scheduler cycles required before a networked
        deployment is considered converged (default 5).
    poll_interval:
        How long :meth:`advance_round` sleeps when no inbox holds messages,
        yielding to the network before the next scheduler cycle.
    seed:
        Seeds peer-local RNGs (gossip target choice) for reproducibility.

    Gossip hands envelopes over in arrival order, and a frame lost to a
    connect error or an evicted buffer is gone: no exactly-once promise, so
    the peers replicate causally (:mod:`repro.replication`).
    """

    exactly_once_in_order = False

    def __init__(self, *, host: str = "127.0.0.1",
                 gossip: Optional[GossipConfig] = None,
                 swim: Optional[SwimConfig] = None,
                 events: Optional[NetEventLog] = None,
                 quiet_period: int = 5,
                 poll_interval: float = 0.02,
                 tick_interval: float = 0.05,
                 seed: Optional[int] = None):
        self.host = host
        self.gossip = gossip or GossipConfig()
        self.swim = swim or SwimConfig()
        self.events = (events if events is not None
                       else NetEventLog(keep_in_memory=False))
        self.convergence_quiet_period = quiet_period
        self.poll_interval = poll_interval
        self.tick_interval = tick_interval
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        self._round = 0
        self._endpoints: Dict[str, _Endpoint] = {}
        self._connections: "OrderedDict[str, Tuple[asyncio.StreamWriter, asyncio.Lock]]" = OrderedDict()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ticker: Optional[asyncio.Task] = None
        self._t0 = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------ #
    # event loop plumbing
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is not None:
            return self._loop
        if self._closed:
            raise TransportError("transport is closed")
        started = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            started.set()
            loop.run_forever()
            # drain callbacks scheduled during shutdown, then free the loop
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(target=run, name="repro-net-tcp",
                                        daemon=True)
        self._thread.start()
        started.wait(CALL_TIMEOUT)
        self._ticker = asyncio.run_coroutine_threadsafe(
            self._tick_forever(), self._loop)
        return self._loop

    def _call(self, coroutine):
        """Run ``coroutine`` on the loop thread and wait for its result."""
        loop = self._ensure_loop()
        future = asyncio.run_coroutine_threadsafe(coroutine, loop)
        return future.result(CALL_TIMEOUT)

    async def _tick_forever(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval)
            now = self._now()
            for endpoint in list(self._endpoints.values()):
                await self._transmit(endpoint.node.tick(now))

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, peer: str, address: Optional[str] = None) -> None:
        """Start a gossip node + listening socket for ``peer`` and join it
        to the deployment's existing members."""
        if peer in self._endpoints:
            return
        self._call(self._register_async(peer))

    async def _register_async(self, peer: str) -> None:
        existing = sorted(self._endpoints)
        seed_names = (self._rng.sample(existing, min(3, len(existing)))
                      if existing else [])
        seeds = [(name, self._endpoints[name].node.address)
                 for name in seed_names]

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            await self._serve_connection(node, reader, writer)

        # The node is built once the server's port is known, so its table
        # is born with its address; no connection is served before then
        # (nothing awaits between the two statements).
        server = await asyncio.start_server(handle, self.host, 0)
        port = server.sockets[0].getsockname()[1]
        address = f"{self.host}:{port}"
        node = GossipNode(
            peer, address, gossip=self.gossip, swim=self.swim, seeds=seeds,
            events=self.events, rng_seed=self._rng.randrange(2 ** 32),
            now=self._now(),
        )
        self.events.emit("register", peer, self._now(), address=address)
        self._endpoints[peer] = _Endpoint(node, server)
        await self._transmit(node.start(self._now()))

    def unregister(self, peer: str) -> None:
        """Announce the peer's departure, stop its server, drop its inbox."""
        endpoint = self._endpoints.get(peer)
        if endpoint is None:
            return
        self._call(self._unregister_async(peer))

    async def _unregister_async(self, peer: str) -> None:
        endpoint = self._endpoints.pop(peer, None)
        if endpoint is None:
            return
        now = self._now()
        await self._transmit(endpoint.node.leave(now))
        self.stats.messages_dropped += endpoint.node.inbox_size()
        endpoint.node.drain_inbox()
        endpoint.server.close()
        await endpoint.server.wait_closed()
        self.events.emit("unregister", peer, now)

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    def is_registered(self, peer: str) -> bool:
        return peer in self._endpoints

    def address_of(self, peer: str) -> Optional[str]:
        endpoint = self._endpoints.get(peer)
        return endpoint.node.address if endpoint is not None else None

    # ------------------------------------------------------------------ #
    # connection handling (loop thread only)
    # ------------------------------------------------------------------ #

    async def _serve_connection(self, node: GossipNode,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                try:
                    outputs = node.handle_frame(frame, self._now())
                except (ValueError, KeyError) as exc:
                    self.events.emit("drop", node.name, self._now(),
                                     reason="malformed", error=str(exc))
                    continue
                await self._transmit(outputs)
        except (FrameError, ConnectionError):
            pass  # peer died mid-frame; SWIM will notice
        finally:
            writer.close()

    async def _transmit(self, outputs) -> None:
        for dest, address, frame in outputs:
            if not address:
                continue
            try:
                writer, lock = await self._connect(address)
                async with lock:
                    await write_frame(writer, frame)
            except (OSError, FrameError, asyncio.TimeoutError) as exc:
                self._connections.pop(address, None)
                self.events.emit("drop", dest, self._now(),
                                 reason="connect", address=address,
                                 error=type(exc).__name__)

    async def _connect(self, address: str):
        cached = self._connections.get(address)
        if cached is not None and not cached[0].is_closing():
            self._connections.move_to_end(address)
            return cached
        host, _, port = address.rpartition(":")
        _reader, writer = await asyncio.open_connection(host, int(port))
        entry = (writer, asyncio.Lock())
        self._connections[address] = entry
        while len(self._connections) > MAX_CACHED_CONNECTIONS:
            _, (old_writer, _) = self._connections.popitem(last=False)
            old_writer.close()
        return entry

    # ------------------------------------------------------------------ #
    # Transport protocol: deliver / collect
    # ------------------------------------------------------------------ #

    def send(self, message: Message) -> bool:
        """Submit a runtime message into the gossip mesh at its sender."""
        endpoint = self._endpoints.get(message.sender)
        if endpoint is None:
            raise TransportError(
                f"cannot send from unregistered peer {message.sender!r}")
        if (message.recipient not in self._endpoints
                and not endpoint.node.membership.knows(message.recipient)):
            raise TransportError(
                f"cannot deliver message from {message.sender}: unknown peer "
                f"{message.recipient!r}"
            )
        self.stats.messages_sent += 1
        self.stats.by_kind[message.kind()] += 1
        self.stats.by_link[(message.sender, message.recipient)] += 1
        self.stats.payload_items += message.payload_size()
        self._call(self._submit_async(message))
        return True

    async def _submit_async(self, message: Message) -> None:
        endpoint = self._endpoints.get(message.sender)
        if endpoint is not None:
            await self._transmit(endpoint.node.submit(message, self._now()))

    def send_all(self, messages: Iterable[Message]) -> int:
        return sum(1 for message in messages if self.send(message))

    def receive(self, peer: str) -> List[Message]:
        endpoint = self._endpoints.get(peer)
        if endpoint is None:
            return []
        delivered = self._call(self._drain_async(peer))
        self.stats.messages_delivered += len(delivered)
        return delivered

    async def _drain_async(self, peer: str) -> List[Message]:
        endpoint = self._endpoints.get(peer)
        return endpoint.node.drain_inbox() if endpoint is not None else []

    def advance_round(self) -> int:
        """Mark a round boundary; when nothing is deliverable, yield to the
        network briefly so gossip frames in flight can land."""
        self._round += 1
        if not self.has_in_flight():
            time.sleep(self.poll_interval)
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        if peer is not None:
            endpoint = self._endpoints.get(peer)
            return endpoint.node.inbox_size() if endpoint is not None else 0
        return sum(e.node.inbox_size() for e in self._endpoints.values())

    def due_count(self, peer: str) -> int:
        return self.pending_count(peer)

    def has_in_flight(self) -> bool:
        """``True`` when a delivered-but-undrained message is observable.

        Frames inside the kernel's socket buffers are *not* observable —
        that blind spot is exactly why ``convergence_quiet_period > 1``.
        """
        return any(e.node.inbox_size() for e in self._endpoints.values())

    def reset_stats(self) -> NetworkStats:
        stats = self.stats
        self.stats = NetworkStats()
        return stats

    # ------------------------------------------------------------------ #
    # inspection / lifecycle
    # ------------------------------------------------------------------ #

    def membership_view(self, peer: str) -> Dict[str, str]:
        """``other_peer -> status`` as seen by ``peer``'s gossip node."""
        endpoint = self._endpoints.get(peer)
        if endpoint is None:
            return {}
        return endpoint.node.membership.peer_statuses()

    def close(self) -> None:
        """Stop the ticker, close every server, connection and the loop."""
        if self._closed:
            return
        self._closed = True
        if self._loop is None:
            return
        if self._ticker is not None:
            self._ticker.cancel()
        future = asyncio.run_coroutine_threadsafe(self._close_async(),
                                                  self._loop)
        try:
            future.result(CALL_TIMEOUT)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(CALL_TIMEOUT)
            self._loop = None

    async def _close_async(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.server.close()
        for writer, _ in self._connections.values():
            writer.close()
        self._connections.clear()
        self._endpoints.clear()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
