"""Opt-in length-prefixed binary framing for the serve wire protocol.

The server speaks newline-delimited JSON by default (see
``repro.serve.__main__``); a client may *negotiate* binary framing per
connection by sending one ordinary JSON hello line first::

    -> {"id": 0, "op": "hello", "framing": "binary"}
    <- {"id": 0, "ok": true, "framing": "binary"}

and from the next byte onward both sides exchange frames::

    u32 length | u8 type | u32 request id | body

with ``length`` covering everything after the length word.  Clients
that never send a hello get the JSON protocol untouched — the framing
is strictly additive and the wire-compat tests pin both encodings.

Query and result bodies are packed ``struct`` float64/int64 fields
(little-endian), so the binary round trip is bit-exact by construction
— the same guarantee JSON gives via ``repr`` floats, without the
float-to-text-to-float detour or the per-message ``json`` tax.  The
``stats`` reply stays JSON (UTF-8 inside a frame): it is a nested
diagnostic document, not hot-path data.

Frame types (request): :data:`T_QUERY`, :data:`T_STATS`,
:data:`T_PING`, :data:`T_SHUTDOWN`.  Response: :data:`T_RESULT`,
:data:`T_ERROR` (UTF-8 message body), :data:`T_OK` (empty body),
:data:`T_STATS_REPLY` (UTF-8 JSON body).
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import SpecError
from repro.serve.protocol import (
    CountQuery,
    CountResult,
    KNNQuery,
    KNNResult,
    NNQuery,
    NNResult,
    Query,
    Result,
    checked_point,
    checked_radius,
)

#: Negotiable framings, in hello order of preference.
FRAMINGS = ("json", "binary")

# -- frame types ------------------------------------------------------------

T_QUERY = 0x01
T_STATS = 0x02
T_PING = 0x03
T_SHUTDOWN = 0x04
T_RESULT = 0x05
T_ERROR = 0x06
T_OK = 0x07
T_STATS_REPLY = 0x08

_HEADER = struct.Struct("<BI")  # type, request id
_LENGTH = struct.Struct("<I")

#: Frame-size ceiling: a decoded length beyond this is a corrupt or
#: hostile stream, not a real request (a 4096-point KNN reply is ~64KB).
MAX_FRAME_BODY = 16 * 1024 * 1024

# -- query/result bodies ----------------------------------------------------

_Q_NN = 0x01
_Q_KNN = 0x02
_Q_COUNT = 0x03
_R_NN = 0x01
_R_KNN = 0x02
_R_COUNT = 0x03

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_NN_RESULT = struct.Struct("<qd")


def _pack_point(point: tuple[float, ...]) -> bytes:
    if len(point) > 0xFFFF:
        raise SpecError(f"{len(point)}-dimensional point exceeds framing")
    return _U16.pack(len(point)) + struct.pack(
        f"<{len(point)}d", *point
    )


def _unpack_point(body: bytes, offset: int) -> tuple[tuple[float, ...], int]:
    (dim,) = _U16.unpack_from(body, offset)
    offset += _U16.size
    point = struct.unpack_from(f"<{dim}d", body, offset)
    return point, offset + 8 * dim


def pack_query(query: Query) -> bytes:
    """One binary body for a query; exact inverse of :func:`unpack_query`."""
    if isinstance(query, NNQuery):
        return _U8.pack(_Q_NN) + _pack_point(query.point)
    if isinstance(query, KNNQuery):
        return (
            _U8.pack(_Q_KNN)
            + _U32.pack(int(query.k))
            + _pack_point(query.point)
        )
    if isinstance(query, CountQuery):
        return (
            _U8.pack(_Q_COUNT)
            + _F64.pack(float(query.radius))
            + _pack_point(query.point)
        )
    raise SpecError(f"unknown query type {type(query).__name__}")


def unpack_query(body: bytes) -> Query:
    """Decode one binary query body, validating like the JSON decoder."""
    if not body:
        raise SpecError("empty query body")
    (tag,) = _U8.unpack_from(body, 0)
    offset = _U8.size
    if tag == _Q_NN:
        point, _ = _unpack_point(body, offset)
        return NNQuery(checked_point(point))
    if tag == _Q_KNN:
        (k,) = _U32.unpack_from(body, offset)
        point, _ = _unpack_point(body, offset + _U32.size)
        if k < 1:
            raise SpecError(f"knn query needs k >= 1, got {k}")
        return KNNQuery(checked_point(point), int(k))
    if tag == _Q_COUNT:
        (radius,) = _F64.unpack_from(body, offset)
        point, _ = _unpack_point(body, offset + _F64.size)
        radius = checked_radius(radius)
        return CountQuery(checked_point(point), radius)
    raise SpecError(f"unknown binary query tag 0x{tag:02x}")


def pack_result(result: Result) -> bytes:
    """One binary body for a result; bit-exact float64/int64 fields."""
    if isinstance(result, NNResult):
        return _U8.pack(_R_NN) + _NN_RESULT.pack(
            int(result.neighbor_id), float(result.distance)
        )
    if isinstance(result, KNNResult):
        k = len(result.neighbor_ids)
        return (
            _U8.pack(_R_KNN)
            + _U32.pack(k)
            + struct.pack(f"<{k}q", *result.neighbor_ids)
            + struct.pack(f"<{k}d", *result.distances)
        )
    if isinstance(result, CountResult):
        return _U8.pack(_R_COUNT) + _I64.pack(int(result.count))
    raise SpecError(f"unknown result type {type(result).__name__}")


def unpack_result(body: bytes) -> Result:
    """Exact inverse of :func:`pack_result`."""
    if not body:
        raise SpecError("empty result body")
    (tag,) = _U8.unpack_from(body, 0)
    offset = _U8.size
    if tag == _R_NN:
        neighbor_id, distance = _NN_RESULT.unpack_from(body, offset)
        return NNResult(int(neighbor_id), float(distance))
    if tag == _R_KNN:
        (k,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        ids = struct.unpack_from(f"<{k}q", body, offset)
        dists = struct.unpack_from(f"<{k}d", body, offset + 8 * k)
        return KNNResult(
            tuple(int(i) for i in ids), tuple(float(d) for d in dists)
        )
    if tag == _R_COUNT:
        (count,) = _I64.unpack_from(body, offset)
        return CountResult(int(count))
    raise SpecError(f"unknown binary result tag 0x{tag:02x}")


# -- frames -----------------------------------------------------------------


def encode_frame(frame_type: int, request_id: int, body: bytes = b"") -> bytes:
    """One complete wire frame (length word included)."""
    payload = _HEADER.pack(frame_type, request_id & 0xFFFFFFFF) + body
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> tuple[int, int, bytes]:
    """Split one frame payload (length word already consumed)."""
    if len(payload) < _HEADER.size:
        raise SpecError(f"truncated frame: {len(payload)} bytes")
    frame_type, request_id = _HEADER.unpack_from(payload, 0)
    return frame_type, request_id, payload[_HEADER.size :]


def read_frame_length(word: bytes) -> int:
    """Validate and decode one length word."""
    if len(word) != _LENGTH.size:
        raise SpecError(f"truncated frame length: {len(word)} bytes")
    (length,) = _LENGTH.unpack(word)
    if length < _HEADER.size or length > MAX_FRAME_BODY:
        raise SpecError(f"implausible frame length {length}")
    return length


def read_frame_blocking(file) -> Optional[tuple[int, int, bytes]]:
    """Read one frame from a blocking file object; None on clean EOF."""
    word = file.read(_LENGTH.size)
    if not word:
        return None
    length = read_frame_length(word)
    payload = file.read(length)
    if len(payload) != length:
        raise SpecError("connection closed mid-frame")
    return decode_frame(payload)


async def read_frame_async(reader) -> Optional[tuple[int, int, bytes]]:
    """Read one frame from an asyncio reader; None on clean EOF."""
    import asyncio

    try:
        word = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise SpecError("connection closed mid-frame") from exc
    length = read_frame_length(word)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise SpecError("connection closed mid-frame") from exc
    return decode_frame(payload)
