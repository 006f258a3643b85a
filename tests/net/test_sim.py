"""The virtual-clock gossip simulator: convergence, delivery, churn."""

import json
import random
import re

import pytest

from repro.core.facts import Fact
from repro.net.membership import DEAD, LEFT
from repro.net.sim import SimulatedGossipNetwork
from repro.replication.dots import Op
from repro.runtime.messages import DeltaEnvelopeMessage, FactMessage


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


def settle(net, budget):
    """Advance until the membership converges or ``budget`` virtual seconds pass."""
    start = net.now
    while net.now - start < budget:
        net.run(0.5)
        if net.converged():
            return True
    return False


def lossy(count, names="peer{:03d}", drop=0.02):
    net = SimulatedGossipNetwork(latency=0.005, latency_jitter=0.005,
                                 drop_probability=drop, seed=7)
    for index in range(count):
        net.add_node(names.format(index))
    assert settle(net, 30.0)
    return net


def received(net, names):
    return sorted((name, fact.values) for name in names
                  for message in net.drain(name) for fact in message.inserted)


def test_a_churn_wave_loses_no_envelope_and_membership_reconverges():
    """40 nodes under 2 % frame loss: ten envelopes before four nodes leave
    (two politely, two crashing) and four join, ten after.  Every envelope
    arrives exactly once and the survivors agree on the membership again."""
    net = lossy(40)
    rng = random.Random(7)
    victims = rng.sample(sorted(net.nodes), 4)
    survivors = [name for name in sorted(net.nodes) if name not in victims]
    sent = []

    def submit(tag):
        origin, recipient = rng.sample(survivors, 2)
        net.submit(origin, fact_message(origin, recipient, tag))
        sent.append((recipient, (tag,)))

    for index in range(10):
        submit(f"pre{index}")
    net.run(1.0)
    for index, victim in enumerate(victims):
        net.remove_node(victim, graceful=index % 2 == 0)
    for index in range(4):
        net.add_node(f"late{index:03d}", seeds=rng.sample(survivors, 3))
        survivors.append(f"late{index:03d}")
    for index in range(10):
        submit(f"post{index}")
    assert settle(net, 30.0)
    net.run(3.0)
    assert received(net, survivors) == sorted(sent)


def test_delta_envelopes_reach_every_recipient_of_a_large_overlay():
    """Replication's dotted envelopes ride the overlay like any message:
    twenty of them across 120 nodes under 1 % frame loss all arrive."""
    net = lossy(120, names="peer{:04d}", drop=0.01)
    rng = random.Random(7)
    names = sorted(net.nodes)
    sent = []
    for index in range(20):
        origin, recipient = rng.sample(names, 2)
        ops = tuple(Op(seq=index * 2 + offset + 1, kind="insert",
                       fact=Fact("replica", origin, (origin, index * 2 + offset)))
                    for offset in range(2))
        net.submit(origin, DeltaEnvelopeMessage(
            sender=origin, recipient=recipient, ops=ops, frontier=ops[-1].seq))
        sent.append((recipient, index))
    net.run(5.0)
    delivered = sorted((name, message.ops[0].fact.values[1] // 2)
                       for name in names for message in net.drain(name))
    assert delivered == sorted(sent)


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
