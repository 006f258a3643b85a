"""Length-prefixed JSON framing: exact round trips and malformed input."""

import asyncio
import struct

import pytest

from repro.net.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_body,
    encode_frame,
    read_frame,
)
from tests.fakes import read_frames_in_chunks


def test_encode_decode_round_trip():
    payload = {"type": "ping", "origin": "alice", "seq": 3, "nested": [1, 2]}
    frame = encode_frame(payload)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    assert decode_body(frame[4:]) == payload


def test_encode_rejects_oversized_payload():
    with pytest.raises(FrameError):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_decode_rejects_non_object_body():
    with pytest.raises(FrameError):
        decode_body(b"[1, 2, 3]")
    with pytest.raises(FrameError):
        decode_body(b"not json at all")


def test_read_frame_handles_arbitrary_chunk_boundaries():
    payloads = [{"i": i, "pad": "x" * i} for i in range(20)]
    stream = b"".join(encode_frame(p) for p in payloads)
    for chunk_size in (1, 3, 7, 100, len(stream)):
        assert _run(read_frames_in_chunks(stream, chunk_size)) == payloads


def test_read_frame_rejects_oversized_length_prefix():
    with pytest.raises(FrameError):
        _run(read_frames_in_chunks(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x", 5))


def test_read_frame_holds_a_partial_frame_back():
    frame = encode_frame({"a": 1})

    async def scenario():
        reader = asyncio.StreamReader()
        pending = asyncio.ensure_future(read_frame(reader))
        reader.feed_data(frame[:5])
        await asyncio.sleep(0)
        held_back = not pending.done()
        reader.feed_data(frame[5:])
        return held_back, await pending

    assert _run(scenario()) == (True, {"a": 1})


def _run(coroutine):
    return asyncio.run(coroutine)


def test_read_frame_round_trip_and_clean_eof():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"hello": "world"}))
        reader.feed_eof()
        first = await read_frame(reader)
        second = await read_frame(reader)
        return first, second

    first, second = _run(scenario())
    assert first == {"hello": "world"}
    assert second is None  # clean EOF between frames


def test_read_frame_raises_on_truncated_body():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"hello": "world"})[:-3])
        reader.feed_eof()
        return await read_frame(reader)

    with pytest.raises(FrameError):
        _run(scenario())


def test_read_frame_raises_on_truncated_prefix():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"\x00\x00")
        reader.feed_eof()
        return await read_frame(reader)

    with pytest.raises(FrameError):
        _run(scenario())
