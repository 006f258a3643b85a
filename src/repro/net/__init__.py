"""repro.net — the TCP transport, and the gossip overlay's simulator.

Two things live here.  The deployment path:

* :mod:`repro.net.framing` — length-prefixed JSON frames on a byte stream;
* :mod:`repro.net.tcp` — the asyncio TCP
  :class:`~repro.runtime.transport.Transport` used by
  ``system().transport("tcp")``: each message is one frame, its
  ``to_wire()`` form, on a connection to its recipient;
* :mod:`repro.net.events` — the structured JSONL event log every transport
  (and the simulator) writes.

And a push-gossip overlay with SWIM membership, which only the
virtual-clock simulator runs (the ``gossip_sim`` benchmark workload):

* :mod:`repro.net.frames` — the overlay's vocabulary (join/leave, ping/ack,
  envelope, digest/pull) with exact wire round-trips;
* :mod:`repro.net.membership` — SWIM-style membership with incarnation
  numbers and the suspect → dead state machine;
* :mod:`repro.net.gossip` — push-gossip envelope buffer and anti-entropy
  digests;
* :mod:`repro.net.node` — the sans-io node composing the two protocols;
* :mod:`repro.net.sim` — the virtual-clock many-node harness.

Each name below resolves from its module on first use
(:mod:`repro.lazy`), so importing :mod:`repro.net.events` loads neither the
framing, the TCP transport (asyncio) nor the overlay.  See
``docs/net-protocol.md`` for the protocol specification.
"""

from repro.lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.events": ("NetEventLog", "read_events"),
    "repro.net.frames": ("MemberUpdate", "JoinFrame", "LeaveFrame", "PingFrame",
                         "PingReqFrame", "AckFrame", "EnvelopeFrame",
                         "DigestFrame", "PullFrame", "frame_from_wire"),
    "repro.net.framing": ("FrameError", "MAX_FRAME_BYTES", "encode_frame",
                          "decode_body", "read_frame", "write_frame"),
    "repro.net.gossip": ("GossipBuffer", "GossipConfig"),
    "repro.net.membership": ("ALIVE", "SUSPECT", "DEAD", "LEFT", "Member",
                             "MembershipTable", "SwimConfig"),
    "repro.net.node": ("GossipNode",),
    "repro.net.sim": ("SimulatedGossipNetwork",),
    "repro.net.tcp": ("TcpTransport",),
})
