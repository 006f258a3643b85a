"""The virtual-clock gossip simulator: convergence, delivery, churn."""

import json
import re

import pytest

from repro.core.facts import Fact
from repro.net.membership import DEAD, LEFT
from repro.net.sim import SimulatedGossipNetwork
from repro.runtime.messages import FactMessage


def fact_message(sender, recipient, value="v"):
    return FactMessage(sender=sender, recipient=recipient,
                       inserted=frozenset({Fact("r", recipient, (value,))}))


def build(count, **kwargs):
    kwargs.setdefault("latency", 0.005)
    kwargs.setdefault("seed", 11)
    net = SimulatedGossipNetwork(**kwargs)
    for i in range(count):
        net.add_node(f"peer{i}")
    return net


def test_membership_converges_on_lossless_network():
    net = build(20)
    net.run(2.0)
    assert net.converged()
    view = net.membership_view("peer0")
    assert len(view) == 19


def test_point_to_point_delivery_across_the_mesh():
    net = build(15)
    net.run(1.5)
    net.submit("peer1", fact_message("peer1", "peer9"))
    net.run(1.0)
    delivered = net.drain("peer9")
    assert len(delivered) == 1
    assert delivered[0].sender == "peer1"


def test_delivery_survives_heavy_loss():
    net = build(15, drop_probability=0.2)
    net.run(2.0)
    for i in range(5):
        net.submit(f"peer{i}", fact_message(f"peer{i}", f"peer{(i + 7) % 15}",
                                            value=str(i)))
    net.run(2.5)  # anti-entropy repairs whatever the flood lost
    got = sum(len(net.drain(f"peer{(i + 7) % 15}")) for i in range(5))
    assert got == 5
    assert net.frames_dropped > 0  # the loss model actually fired


def test_graceful_leave_is_observed_as_left():
    net = build(8)
    net.run(1.5)
    net.remove_node("peer3", graceful=True)
    net.run(1.5)
    statuses = {name: net.membership_view(name).get("peer3")
                for name in net.nodes}
    assert set(statuses.values()) == {LEFT}


def test_crash_is_detected_as_dead_by_swim():
    net = build(6)
    net.run(1.5)
    net.remove_node("peer2", graceful=False)  # silent crash: no leave frame
    net.run(5.0)  # probes time out, suspicion expires
    statuses = {net.membership_view(name).get("peer2") for name in net.nodes}
    assert statuses == {DEAD}


def test_late_joiner_is_welcomed_into_membership():
    net = build(5)
    net.run(1.0)
    net.add_node("late")
    net.run(1.5)
    assert net.converged()
    assert len(net.membership_view("late")) == 5


def test_events_record_the_message_path():
    net = build(5)
    net.run(1.0)
    net.submit("peer0", fact_message("peer0", "peer3"))
    net.run(1.0)
    assert net.drain("peer3")
    sends = net.events.events(action="send", node="peer0")
    delivers = net.events.events(action="deliver", node="peer3")
    assert len(sends) == 1 and len(delivers) == 1
    assert sends[0]["envelope"] == delivers[0]["envelope"]


def test_duplicate_node_name_is_rejected():
    net = build(2)
    with pytest.raises(ValueError):
        net.add_node("peer0")


class RecordedNetwork(SimulatedGossipNetwork):
    """Keeps every ``(dest, address, frame)`` handed to ``_transmit``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.transmitted = []

    def _transmit(self, outputs):
        self.transmitted.extend(outputs)
        super()._transmit(outputs)


def canonical(records):
    """``records`` as JSON with envelope ids (``origin#n``, numbered by a
    process-wide counter) renumbered by first appearance."""
    seen = {}
    return re.sub(r"#\d+",
                  lambda match: seen.setdefault(match.group(), f"#{len(seen)}"),
                  json.dumps(records, sort_keys=True))


def test_deterministic_under_fixed_seed():
    def trace():
        net = RecordedNetwork(latency=0.005, latency_jitter=0.005,
                              drop_probability=0.1, seed=11)
        for i in range(10):
            net.add_node(f"peer{i}")
        net.run(1.0)
        net.submit("peer0", FactMessage(
            sender="peer0", recipient="peer5", message_id="m1",
            inserted=frozenset({Fact("r", "peer5", ("v",))})))
        net.remove_node("peer3", graceful=False)
        net.run(2.0)
        counters = net.frames_sent, net.frames_dropped, len(net.drain("peer5"))
        return (counters, canonical(net.transmitted),
                canonical(net.events.events()))

    first, second = trace(), trace()
    assert first == second
    counters, frames, events = first
    assert counters[0] > 300 and counters[1] > 0 and counters[2] == 1
    # the whole story is in there: a flood, anti-entropy, a verdict
    assert all(kind in frames for kind in ('"envelope"', '"digest"', '"ping-req"'))
    assert '"suspect"' in events and '"deliver"' in events
