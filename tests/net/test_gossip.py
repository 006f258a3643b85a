"""Gossip buffer: dedupe, bounded retention, digests and anti-entropy sets."""

import pytest

from repro.net.frames import EnvelopeFrame
from repro.net.gossip import GossipBuffer, GossipConfig, next_envelope_id


def envelope(i, origin="a"):
    return EnvelopeFrame(envelope_id=f"{origin}#{i}", origin=origin,
                         recipient="z", hops=0, message={"kind": "x"})


def test_observe_dedupes_by_id():
    buffer = GossipBuffer()
    e = envelope(1)
    assert buffer.observe(e) is True
    assert buffer.observe(e) is False
    assert len(buffer) == 1
    assert "a#1" in buffer


def test_buffer_evicts_oldest_beyond_capacity():
    buffer = GossipBuffer(GossipConfig(buffer_size=3))
    for i in range(5):
        buffer.observe(envelope(i))
    assert len(buffer) == 3
    assert "a#0" not in buffer and "a#1" not in buffer
    assert "a#4" in buffer


def test_digest_is_bounded_by_window():
    buffer = GossipBuffer(GossipConfig(digest_window=2, buffer_size=10))
    for i in range(5):
        buffer.observe(envelope(i))
    assert buffer.digest() == ("a#3", "a#4")


@pytest.mark.parametrize("held", [0, 1, 3, 4, 5, 9])
def test_digest_is_the_recent_end_of_the_buffer(held):
    buffer = GossipBuffer(GossipConfig(digest_window=4, buffer_size=8))
    for i in range(held):
        buffer.observe(envelope(i))
    arrival_order = [f"a#{i}" for i in range(held)][-8:]
    assert buffer.digest() == tuple(arrival_order[-4:])


def test_missing_and_not_in_are_complements_over_the_window():
    buffer = GossipBuffer()
    for i in range(4):
        buffer.observe(envelope(i))
    offered = ("a#2", "a#3", "a#9")
    assert buffer.missing(offered) == ("a#9",)
    pushed = {e.envelope_id for e in buffer.not_in(offered)}
    assert pushed == {"a#0", "a#1"}


def test_take_skips_evicted_ids():
    buffer = GossipBuffer(GossipConfig(buffer_size=2))
    for i in range(4):
        buffer.observe(envelope(i))
    got = buffer.take(["a#0", "a#3"])
    assert [e.envelope_id for e in got] == ["a#3"]


def test_envelope_ids_are_unique_and_stamped_with_origin():
    ids = {next_envelope_id("alice") for _ in range(100)}
    assert len(ids) == 100
    assert all(i.startswith("alice#") for i in ids)
