"""A virtual-clock harness driving many :class:`GossipNode` instances.

The simulator is how the gossip/membership protocol is exercised at scales
no laptop wants to open sockets for: hundreds of nodes, configurable link
latency and loss, deterministic seeds, and a clock that advances only when
told to.  Because :class:`~repro.net.node.GossipNode` is sans-io, the exact
same protocol code runs here and under the real TCP transport — the
benchmark's propagation numbers describe the protocol, not the harness.

Typical use (``bench/workloads/gossip.py``, the ``gossip_sim`` workload,
drives it the same way)::

    net = SimulatedGossipNetwork(latency=0.01, drop_probability=0.02, seed=7)
    for i in range(100):
        net.add_node(f"peer{i}")
    net.run(2.0)                      # let membership converge
    net.submit("peer0", message)      # inject application traffic
    net.run(1.0)
    delivered = net.drain("peer42")
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.events import NetEventLog
from repro.net.gossip import GossipConfig
from repro.net.membership import SwimConfig
from repro.net.node import GossipNode
from repro.runtime.messages import Message


class SimulatedGossipNetwork:
    """Virtual-time network of gossip nodes with lossy, latent links."""

    def __init__(self, *, latency: float = 0.01, latency_jitter: float = 0.0,
                 drop_probability: float = 0.0, seed: Optional[int] = None,
                 gossip: Optional[GossipConfig] = None,
                 swim: Optional[SwimConfig] = None,
                 events: Optional[NetEventLog] = None,
                 tick_interval: float = 0.05):
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")
        self.latency = latency
        self.latency_jitter = latency_jitter
        self.drop_probability = drop_probability
        self.gossip = gossip
        self.swim = swim
        self.events = events if events is not None else NetEventLog()
        self.tick_interval = tick_interval
        self.now = 0.0
        self.nodes: Dict[str, GossipNode] = {}
        self._rng = random.Random(seed)
        self._wire: List[Tuple[float, int, str, dict]] = []
        self._wire_seq = itertools.count()
        self.frames_sent = 0
        self.frames_dropped = 0

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #

    def add_node(self, name: str,
                 seeds: Optional[Sequence[str]] = None) -> GossipNode:
        """Create, start and connect one node.

        ``seeds`` names existing nodes to bootstrap from; when omitted, up
        to three random existing nodes are used (none for the first node).
        """
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        if seeds is None:
            existing = sorted(self.nodes)
            seeds = (self._rng.sample(existing, min(3, len(existing)))
                     if existing else [])
        seed_contacts = [(s, f"sim://{s}") for s in seeds]
        node = GossipNode(
            name, f"sim://{name}",
            gossip=self.gossip, swim=self.swim,
            seeds=seed_contacts, events=self.events,
            rng_seed=self._rng.randrange(2 ** 32), now=self.now,
        )
        self.nodes[name] = node
        self._transmit(node.start(self.now))
        return node

    def remove_node(self, name: str, graceful: bool = True) -> None:
        """Take a node out — announcing its leave, or crashing silently."""
        node = self.nodes.get(name)
        if node is None:
            return
        if graceful:
            self._transmit(node.leave(self.now))
        del self.nodes[name]

    # ------------------------------------------------------------------ #
    # traffic
    # ------------------------------------------------------------------ #

    def submit(self, origin: str, message: Message) -> None:
        """Inject one application message at ``origin``."""
        node = self.nodes[origin]
        self._transmit(node.submit(message, self.now))

    def drain(self, name: str) -> List[Message]:
        """Messages delivered to ``name`` since the last drain."""
        return self.nodes[name].drain_inbox()

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #

    def run(self, duration: float) -> None:
        """Advance the virtual clock, delivering frames and ticking nodes."""
        deadline = self.now + duration
        while self.now < deadline:
            step_end = min(self.now + self.tick_interval, deadline)
            self._deliver_until(step_end)
            self.now = step_end
            for node in list(self.nodes.values()):
                self._transmit(node.tick(self.now))

    def _deliver_until(self, deadline: float) -> None:
        while self._wire and self._wire[0][0] <= deadline:
            deliver_at, _, dest, frame = heapq.heappop(self._wire)
            node = self.nodes.get(dest)
            if node is None:
                continue  # crashed or departed: the frame hits a dead socket
            self.now = max(self.now, deliver_at)
            self._transmit(node.handle_frame(frame, self.now))

    def _transmit(self, outputs) -> None:
        for dest, _address, frame in outputs:
            self.frames_sent += 1
            if self.drop_probability and self._rng.random() < self.drop_probability:
                self.frames_dropped += 1
                self.events.emit("drop", "net", self.now, reason="loss",
                                 dest=dest, frame=frame.get("type"))
                continue
            delay = self.latency
            if self.latency_jitter:
                delay += self._rng.random() * self.latency_jitter
            heapq.heappush(self._wire, (self.now + delay,
                                        next(self._wire_seq), dest, frame))

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def membership_view(self, name: str) -> Dict[str, str]:
        """``peer -> status`` as seen by ``name`` (excluding itself)."""
        return self.nodes[name].membership.peer_statuses()

    def converged(self) -> bool:
        """``True`` when every node can route to every other node.

        Routable means alive *or* suspect: under a lossy network, transient
        false suspicions are part of normal SWIM operation (they are refuted
        by the suspect's next incarnation bump), so requiring strictly-alive
        everywhere would never stabilise at nonzero drop probabilities.
        """
        live = set(self.nodes)
        return all(live <= {name, *node.membership.routable}
                   for name, node in self.nodes.items())
