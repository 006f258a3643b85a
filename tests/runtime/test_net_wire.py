"""Hypothesis round-trips for the ``repro.net`` wire frames.

Every frame kind must survive ``to_wire`` → JSON → ``frame_from_wire``
exactly, including through the length-prefixed byte framing used on the
TCP transport.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facts import Fact
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
from repro.net.framing import decode_body, encode_frame
from repro.net.membership import ALIVE, DEAD, LEFT, SUSPECT
from repro.runtime.messages import FactMessage, message_from_wire
from tests.fakes import read_frames_in_chunks

names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
    min_size=1, max_size=8,
)

addresses = st.one_of(st.just(""), names.map(lambda n: f"{n}:9000"))

member_updates = st.builds(
    MemberUpdate,
    peer=names,
    status=st.sampled_from((ALIVE, SUSPECT, DEAD, LEFT)),
    incarnation=st.integers(min_value=0, max_value=2**31),
    address=addresses,
)

update_lists = st.lists(member_updates, max_size=4).map(tuple)

fact_messages = st.builds(
    FactMessage,
    sender=names, recipient=names,
    inserted=st.lists(
        st.builds(Fact, relation=names, peer=names,
                  values=st.tuples(st.text(max_size=8))),
        max_size=3).map(frozenset),
)

frames = st.one_of(
    st.builds(JoinFrame, peer=names, address=addresses,
              incarnation=st.integers(min_value=0, max_value=2**31),
              updates=update_lists),
    st.builds(LeaveFrame, peer=names,
              incarnation=st.integers(min_value=0, max_value=2**31)),
    st.builds(PingFrame, origin=names,
              seq=st.integers(min_value=0, max_value=2**31),
              updates=update_lists),
    st.builds(PingReqFrame, origin=names, target=names,
              seq=st.integers(min_value=0, max_value=2**31)),
    st.builds(AckFrame, origin=names,
              seq=st.integers(min_value=0, max_value=2**31),
              on_behalf_of=st.one_of(st.just(""), names),
              updates=update_lists),
    st.builds(EnvelopeFrame,
              envelope_id=names.map(lambda n: f"{n}#1"),
              origin=names, recipient=names,
              hops=st.integers(min_value=0, max_value=16),
              message=fact_messages.map(lambda m: m.to_wire()),
              updates=update_lists),
    st.builds(DigestFrame, peer=names,
              ids=st.lists(names, max_size=5).map(tuple),
              updates=update_lists),
    st.builds(PullFrame, peer=names,
              want=st.lists(names, max_size=5).map(tuple)),
)


@given(frames)
@settings(max_examples=200)
def test_frame_roundtrip_exact(frame):
    assert frame_from_wire(frame.to_wire()) == frame


@given(frames)
@settings(max_examples=100)
def test_frame_survives_byte_framing(frame):
    encoded = encode_frame(frame.to_wire())
    assert frame_from_wire(decode_body(encoded[4:])) == frame


# No deadline: the stream goes through an event loop one chunk per
# iteration, a few thousand iterations at one byte per chunk.
@given(st.lists(frames, min_size=1, max_size=5),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=50, deadline=None)
def test_frame_stream_reassembles_from_arbitrary_chunks(batch, chunk_size):
    stream = b"".join(encode_frame(f.to_wire()) for f in batch)
    decoded = asyncio.run(read_frames_in_chunks(stream, chunk_size))
    assert [frame_from_wire(w) for w in decoded] == batch


@given(fact_messages)
@settings(max_examples=100)
def test_envelope_payload_preserves_fact_message(message):
    envelope = EnvelopeFrame(envelope_id="a#1", origin=message.sender,
                             recipient=message.recipient, hops=0,
                             message=message.to_wire())
    decoded = frame_from_wire(envelope.to_wire())
    assert message_from_wire(decoded.message) == message


@given(member_updates)
@settings(max_examples=100)
def test_member_update_roundtrip_exact(update):
    assert MemberUpdate.from_wire(update.to_wire()) == update


def test_unknown_frame_type_is_rejected():
    with pytest.raises(ValueError):
        frame_from_wire({"type": "telepathy"})
