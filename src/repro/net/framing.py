"""Length-prefixed JSON wire framing.

One frame on the wire is a 4-byte big-endian unsigned length followed by a
UTF-8 JSON object — the same JSON-compatible dictionaries the rest of the
runtime already produces through :mod:`repro.runtime.wire` and
:meth:`~repro.runtime.messages.Message.to_wire`, so facts, delegations,
derivation closures and grants ride the network without a second encoder.

:func:`read_frame` awaits exactly one frame from an
:class:`~asyncio.StreamReader` (``None`` at clean EOF); the reader buffers
partial input, so frames may arrive split across any byte boundary.

Frames larger than :data:`MAX_FRAME_BYTES` are rejected at both ends: the
limit bounds the memory an adversarial or corrupted peer can make us
allocate from a single length prefix.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional

#: Upper bound on one frame's JSON body (4 MiB — a FactMessage carrying
#: hex-encoded picture bytes fits comfortably; a corrupt length prefix does
#: not get to allocate gigabytes).
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed frame: oversized, truncated, or not a JSON object."""


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Encode one JSON-compatible dictionary as a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Decode one frame body; raises :class:`FrameError` when malformed."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


async def read_frame(reader: "asyncio.StreamReader") -> Optional[Dict[str, Any]]:
    """Await one frame from ``reader``; ``None`` at clean end-of-stream.

    A stream that ends mid-frame (inside the length prefix or the body)
    raises :class:`FrameError` — the peer died mid-write and the bytes read
    so far are unusable.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("stream ended inside a frame length prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("stream ended inside a frame body") from exc
    return decode_body(body)


async def write_frame(writer: "asyncio.StreamWriter",
                      payload: Dict[str, Any]) -> None:
    """Write one frame and drain the writer."""
    writer.write(encode_frame(payload))
    await writer.drain()
