"""The asyncio TCP transport: each message on a socket to its recipient.

:class:`TcpTransport` implements the synchronous
:class:`~repro.runtime.transport.Transport` protocol over TCP.  Every
registered peer listens on its own socket.  :meth:`~TcpTransport.send`
writes the message's ``to_wire()`` form as one length-prefixed frame
(:mod:`repro.net.framing`) on a cached connection to the recipient's port,
and the recipient's server decodes it into that peer's inbox.  A connection
opens with one hello frame, ``{"connection": <id>}``; every later frame on
it is one message.

Threading model: one background asyncio event loop runs in a daemon thread
and owns every server, connection and inbox.  The synchronous transport
methods called by the driver submit coroutines to that loop and wait for
the result, so no socket is touched from two threads.

The transport owns both ends of every connection, so it counts frames
exactly.  A frame is in flight from its write until the recipient's server
reads it, or until the connection it rode is known to have lost it: the
hello frame names the connection, and when its reader sees the end of the
stream (EOF or a reset) the frames written on it but never read are counted
in ``stats.messages_dropped``.  :meth:`~TcpTransport.has_in_flight` is
therefore as exact as the in-memory transport's, and
:meth:`~TcpTransport.advance_round` waits for the frames in flight to land.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.errors import TransportError
from repro.net.framing import FrameError, read_frame, write_frame
from repro.runtime.inmemory import NetworkStats
from repro.runtime.messages import Message, message_from_wire

#: Outbound connections kept open; the least recently used one is closed
#: when the cache outgrows this (bounds file descriptors at large scale).
MAX_CACHED_CONNECTIONS = 256

#: Seconds a synchronous transport call waits for the loop thread.
CALL_TIMEOUT = 30.0


@dataclass(eq=False)
class _Endpoint:
    """One registered peer: its server, its inbox and the connections it reads."""

    address: str
    server: asyncio.AbstractServer
    inbox: List[Message] = field(default_factory=list)
    #: The task reading each accepted connection, with its writer.
    connections: Dict[asyncio.Task, asyncio.StreamWriter] = field(default_factory=dict)


@dataclass(eq=False)
class _Link:
    """One outbound connection and the messages written on it but not read."""

    id: int
    recipient: str
    writer: asyncio.StreamWriter
    unread: Deque[Message] = field(default_factory=deque)


class TcpTransport:
    """TCP transport: every message is one frame to its recipient.

    Parameters
    ----------
    host:
        Interface to bind the per-peer servers on (default ``127.0.0.1``).
    event_log:
        An optional :class:`~repro.net.events.NetEventLog`, as for
        :class:`~repro.runtime.inmemory.InMemoryTransport`: every
        ``send`` / ``deliver`` / ``drop`` and ``register`` / ``unregister``
        is recorded, stamped with the transport round, and the ``send``,
        ``deliver`` and ``drop`` records carry the message (its
        ``to_wire()`` form in a JSONL file).  The caller owns the log:
        closing the transport leaves it open, so one log can serve several
        transports.  Without one the transport records nothing.

    A frame that a reset connection lost is gone: no exactly-once promise,
    so the peers replicate causally (:mod:`repro.replication`).
    """

    exactly_once_in_order = False

    def __init__(self, *, host: str = "127.0.0.1", event_log=None):
        self.host = host
        self.event_log = event_log
        self.stats = NetworkStats()
        self._round = 0
        self._endpoints: Dict[str, _Endpoint] = {}
        #: Every connection whose reader has not yet settled it, by id.
        self._links: Dict[int, _Link] = {}
        #: The cached connection to each recipient, least recently used first.
        self._outbound: "OrderedDict[str, _Link]" = OrderedDict()
        self._link_ids = itertools.count(1)
        #: Set whenever a frame lands or a connection is settled.
        self._progress = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def _emit(self, action: str, node: str, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(action, node, float(self._round), **fields)

    def _drop(self, message: Message, reason: str, **fields) -> None:
        self.stats.messages_dropped += 1
        self._emit("drop", message.sender, message_id=message.message_id,
                   kind=message.kind(), peer=message.recipient,
                   reason=reason, message=message, **fields)

    # ------------------------------------------------------------------ #
    # event loop plumbing
    # ------------------------------------------------------------------ #

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
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(target=run, name="repro-net-tcp",
                                        daemon=True)
        self._thread.start()
        started.wait(CALL_TIMEOUT)
        return self._loop

    def _call(self, function, *args):
        """Run ``function(*args)`` on the loop thread and wait for its result."""
        loop = self._ensure_loop()
        future = asyncio.run_coroutine_threadsafe(function(*args), loop)
        return future.result(CALL_TIMEOUT)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, peer: str, address: Optional[str] = None) -> None:
        """Start a listening socket for ``peer`` on an ephemeral port."""
        if peer not in self._endpoints:
            self._call(self._listen, peer)

    async def _listen(self, peer: str) -> None:
        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            await self._serve(peer, endpoint, reader, writer)

        # Nobody connects before the port is known, so the endpoint exists
        # before the first connection is served.
        server = await asyncio.start_server(handle, self.host, 0)
        port = server.sockets[0].getsockname()[1]
        endpoint = _Endpoint(f"{self.host}:{port}", server)
        self._endpoints[peer] = endpoint
        self._emit("register", peer, address=endpoint.address)

    def unregister(self, peer: str) -> None:
        """Close the peer's server, its connections and the cached
        connection to it; what was still undelivered to it is dropped."""
        if peer in self._endpoints:
            self._call(self._unregister, peer)

    async def _unregister(self, peer: str) -> None:
        endpoint = self._endpoints.pop(peer)
        links = [link for link in self._links.values() if link.recipient == peer]
        undelivered = len(endpoint.inbox) + sum(len(l.unread) for l in links)
        for link in links:
            self._settle(link, "unregistered")
        for message in endpoint.inbox:
            self._drop(message, "unregistered")
        endpoint.inbox.clear()
        await self._stop(endpoint)
        await _closed(link.writer for link in links)
        self._emit("unregister", peer, undelivered=undelivered)

    async def _stop(self, endpoint: _Endpoint) -> None:
        """Close ``endpoint``'s server and every connection it accepted."""
        endpoint.server.close()
        for writer in endpoint.connections.values():
            writer.close()
        await asyncio.gather(*endpoint.connections, return_exceptions=True)
        await endpoint.server.wait_closed()

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    def is_registered(self, peer: str) -> bool:
        return peer in self._endpoints

    def address_of(self, peer: str) -> Optional[str]:
        endpoint = self._endpoints.get(peer)
        return endpoint.address if endpoint is not None else None

    # ------------------------------------------------------------------ #
    # both ends of a connection (loop thread only)
    # ------------------------------------------------------------------ #

    async def _serve(self, peer: str, endpoint: _Endpoint,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Read one accepted connection into ``peer``'s inbox."""
        task = asyncio.current_task()
        endpoint.connections[task] = writer
        link = None
        try:
            hello = await read_frame(reader)
            if hello is None or "connection" not in hello:
                self._emit("drop", peer, reason="malformed",
                           error="a connection must open with a hello frame")
                return
            # An unknown id is a connection settled before its hello was read.
            link = self._links.get(hello["connection"])
            if link is None:
                return
            while True:
                frame = await read_frame(reader)
                if frame is None or link.id not in self._links:
                    break  # EOF, or settled while this frame was buffered
                link.unread.popleft()
                try:
                    endpoint.inbox.append(message_from_wire(frame))
                except (ValueError, KeyError, TypeError) as exc:
                    self._emit("drop", peer, reason="malformed", error=str(exc))
                self._progress.set()
        except (FrameError, ConnectionError):
            pass
        finally:
            # Whatever was written on the connection but not read is lost.
            if link is not None:
                self._settle(link, "lost")
            del endpoint.connections[task]
            writer.close()
            await _closed([writer])

    def _settle(self, link: _Link, reason: str) -> None:
        """Retire ``link``: its unread frames are dropped, its writer closed."""
        if self._links.pop(link.id, None) is None:
            return
        if self._outbound.get(link.recipient) is link:
            del self._outbound[link.recipient]
        link.writer.close()
        for message in link.unread:
            self._drop(message, reason)
        link.unread.clear()
        self._progress.set()

    async def _link_to(self, recipient: str) -> _Link:
        """The cached connection to ``recipient``, opened when there is none."""
        link = self._outbound.get(recipient)
        if link is not None and not link.writer.is_closing():
            self._outbound.move_to_end(recipient)
            return link
        host, _, port = self._endpoints[recipient].address.rpartition(":")
        _reader, writer = await asyncio.open_connection(host, int(port))
        link = _Link(next(self._link_ids), recipient, writer)
        self._links[link.id] = link
        self._outbound[recipient] = link
        await write_frame(writer, {"connection": link.id})
        while len(self._outbound) > MAX_CACHED_CONNECTIONS:
            _, evicted = self._outbound.popitem(last=False)
            # Its reader still reads what was written, then sees EOF.
            evicted.writer.close()
        return link

    async def _write(self, message: Message) -> bool:
        """Put ``message`` on the connection to its recipient."""
        try:
            link = await self._link_to(message.recipient)
        except OSError as exc:
            self._drop(message, "connect", error=type(exc).__name__)
            return False
        link.unread.append(message)
        try:
            await write_frame(link.writer, message.to_wire())
        except FrameError as exc:  # too large: nothing was written
            link.unread.pop()
            self._drop(message, "oversized", error=str(exc))
            return False
        except ConnectionError:
            # The frame's reader counts it lost when it sees the reset.
            link.writer.close()
        return True

    async def _land(self) -> None:
        """Wait until every frame written was read or counted lost."""
        while any(link.unread for link in self._links.values()):
            self._progress.clear()
            await self._progress.wait()

    # ------------------------------------------------------------------ #
    # Transport protocol: deliver / collect
    # ------------------------------------------------------------------ #

    def send(self, message: Message) -> bool:
        """Write ``message`` to its recipient; ``False`` when the frame
        could not be put on a connection."""
        if message.sender not in self._endpoints:
            raise TransportError(
                f"cannot send from unregistered peer {message.sender!r}")
        if message.recipient not in self._endpoints:
            raise TransportError(
                f"cannot deliver message from {message.sender}: unknown peer "
                f"{message.recipient!r}"
            )
        self.stats.messages_sent += 1
        self.stats.by_kind[message.kind()] += 1
        self.stats.by_link[(message.sender, message.recipient)] += 1
        self.stats.payload_items += message.payload_size()
        self._emit("send", message.sender, message_id=message.message_id,
                   kind=message.kind(), peer=message.recipient,
                   payload=message.payload_size(), message=message)
        return self._call(self._write, message)

    def send_all(self, messages: Iterable[Message]) -> int:
        return sum(1 for message in messages if self.send(message))

    def receive(self, peer: str) -> List[Message]:
        """The messages that landed in ``peer``'s inbox, in arrival order."""
        if peer not in self._endpoints:
            return []
        delivered = self._call(self._drain, peer)
        self.stats.messages_delivered += len(delivered)
        for m in delivered:
            self._emit("deliver", peer, message_id=m.message_id,
                       kind=m.kind(), peer_from=m.sender, message=m)
        return delivered

    async def _drain(self, peer: str) -> List[Message]:
        endpoint = self._endpoints[peer]
        delivered, endpoint.inbox = endpoint.inbox, []
        return delivered

    def advance_round(self) -> int:
        """Mark a round boundary once every frame in flight has landed."""
        self._round += 1
        if self._loop is not None:
            self._call(self._land)
        return self._round

    def pending_count(self, peer: Optional[str] = None) -> int:
        """Messages on a connection or in an inbox (optionally to one peer)."""
        names = self.peers() if peer is None else (peer,)
        return sum(map(self.due_count, names)) + sum(
            len(link.unread) for link in list(self._links.values())
            if peer in (None, link.recipient))

    def due_count(self, peer: str) -> int:
        """Messages that landed in ``peer``'s inbox."""
        endpoint = self._endpoints.get(peer)
        return len(endpoint.inbox) if endpoint is not None else 0

    def has_in_flight(self) -> bool:
        """``True`` while a frame is on a connection or in an inbox."""
        return self._loop is not None and self._call(self._in_flight)

    async def _in_flight(self) -> bool:
        return (any(link.unread for link in self._links.values())
                or any(e.inbox for e in self._endpoints.values()))

    def reset_stats(self) -> NetworkStats:
        stats = self.stats
        self.stats = NetworkStats()
        return stats

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close every server, connection and task, then stop the loop."""
        if self._closed:
            return
        self._closed = True
        if self._loop is None:
            return
        try:
            self._call(self._shutdown)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(CALL_TIMEOUT)
            self._loop = None

    async def _shutdown(self) -> None:
        writers = [link.writer for link in self._links.values()]
        for endpoint in self._endpoints.values():
            await self._stop(endpoint)
        self._endpoints.clear()
        for writer in writers:
            writer.close()
        await _closed(writers)
        self._links.clear()
        self._outbound.clear()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


async def _closed(writers: Iterable[asyncio.StreamWriter]) -> None:
    """Wait until each (already closing) writer's socket is closed."""
    await asyncio.gather(*(writer.wait_closed() for writer in writers),
                         return_exceptions=True)
