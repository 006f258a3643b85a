"""repro.net — networked transport: TCP framing, gossip, SWIM membership.

The package layers bottom-up:

* :mod:`repro.net.framing` — length-prefixed JSON frames on a byte stream;
* :mod:`repro.net.frames` — the protocol vocabulary (join/leave, ping/ack,
  envelope, digest/pull) with exact wire round-trips;
* :mod:`repro.net.membership` — SWIM-style membership with incarnation
  numbers and the suspect → dead state machine;
* :mod:`repro.net.gossip` — push-gossip envelope buffer and anti-entropy
  digests;
* :mod:`repro.net.node` — the sans-io node composing the two protocols;
* :mod:`repro.net.sim` — a virtual-clock many-node harness (benchmarks);
* :mod:`repro.net.tcp` — the asyncio TCP
  :class:`~repro.runtime.transport.Transport` used by
  ``system().transport("tcp")``;
* :mod:`repro.net.events` — the structured JSONL event log shared by all of
  the above.

See ``docs/net-protocol.md`` for the protocol specification.
"""

from repro.net.events import NetEventLog, read_events
from repro.net.frames import (
    AckFrame,
    DigestFrame,
    EnvelopeFrame,
    JoinFrame,
    LeaveFrame,
    MemberUpdate,
    PingFrame,
    PingReqFrame,
    PullFrame,
    frame_from_wire,
)
from repro.net.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_body,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.net.gossip import GossipBuffer, GossipConfig
from repro.net.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    Member,
    MembershipTable,
    SwimConfig,
)
from repro.net.node import GossipNode
from repro.net.sim import SimulatedGossipNetwork
from repro.net.tcp import TcpTransport

__all__ = [
    "NetEventLog",
    "read_events",
    "MemberUpdate",
    "JoinFrame",
    "LeaveFrame",
    "PingFrame",
    "PingReqFrame",
    "AckFrame",
    "EnvelopeFrame",
    "DigestFrame",
    "PullFrame",
    "frame_from_wire",
    "FrameError",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_body",
    "read_frame",
    "write_frame",
    "GossipBuffer",
    "GossipConfig",
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "Member",
    "MembershipTable",
    "SwimConfig",
    "GossipNode",
    "SimulatedGossipNetwork",
    "TcpTransport",
]
