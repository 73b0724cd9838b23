"""Wire-compat: the binary framing and its JSON sibling stay pinned.

The byte-level cases are compatibility contracts — a framing change
that shifts any of the pinned encodings breaks deployed clients, so
these tests spell the bytes out rather than round-tripping only.
"""

import json
import math
import struct

import pytest

from repro.errors import SpecError
from repro.serve import framing as fr
from repro.serve.protocol import (
    CountQuery,
    CountResult,
    KNNQuery,
    KNNResult,
    NNQuery,
    NNResult,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
)

QUERIES = [
    NNQuery((0.25, -1.5)),
    KNNQuery((0.1, 0.2, 0.3), 7),
    CountQuery((2.0,), 0.75),
]

RESULTS = [
    NNResult(42, 0.015625),
    KNNResult((3, 1, 2), (0.25, 0.5, 1.0)),
    CountResult(1234567),
]


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: type(q).__name__)
    def test_query_round_trip_is_exact(self, query):
        assert fr.unpack_query(fr.pack_query(query)) == query

    @pytest.mark.parametrize(
        "result", RESULTS, ids=lambda r: type(r).__name__
    )
    def test_result_round_trip_is_exact(self, result):
        assert fr.unpack_result(fr.pack_result(result)) == result

    def test_awkward_floats_survive_bit_exactly(self):
        # Values with no short decimal form: the struct round trip must
        # reproduce the exact same float64 bit patterns.
        point = (1 / 3, 2**-52, 1e300, -0.0)
        query = CountQuery(point, radius=0.1 + 0.2)
        decoded = fr.unpack_query(fr.pack_query(query))
        assert [struct.pack("<d", v) for v in decoded.point] == [
            struct.pack("<d", v) for v in point
        ]
        assert struct.pack("<d", decoded.radius) == struct.pack(
            "<d", query.radius
        )


class TestPinnedBytes:
    def test_nn_query_frame_bytes(self):
        frame = fr.encode_frame(
            fr.T_QUERY, 7, fr.pack_query(NNQuery((1.0,)))
        )
        expected = (
            struct.pack("<I", 1 + 4 + 1 + 2 + 8)  # length word
            + struct.pack("<BI", 0x01, 7)  # T_QUERY, id
            + struct.pack("<B", 0x01)  # nn tag
            + struct.pack("<H", 1)  # dimensions
            + struct.pack("<d", 1.0)
        )
        assert frame == expected

    def test_count_result_frame_bytes(self):
        frame = fr.encode_frame(
            fr.T_RESULT, 9, fr.pack_result(CountResult(5))
        )
        expected = (
            struct.pack("<I", 1 + 4 + 1 + 8)
            + struct.pack("<BI", 0x05, 9)
            + struct.pack("<B", 0x03)
            + struct.pack("<q", 5)
        )
        assert frame == expected

    def test_json_wire_format_stays_pinned(self):
        # The JSON framing is the default and must not drift either.
        assert encode_query(KNNQuery((1.0, 2.0), 3)) == {
            "kind": "knn",
            "point": [1.0, 2.0],
            "k": 3,
        }
        assert encode_result(NNResult(4, 0.5)) == {
            "kind": "nn",
            "neighbor_id": 4,
            "distance": 0.5,
        }

    def test_json_and_binary_agree_on_every_kind(self):
        for query in QUERIES:
            via_json = decode_query(
                json.loads(json.dumps(encode_query(query)))
            )
            via_binary = fr.unpack_query(fr.pack_query(query))
            assert via_json == via_binary == query
        for result in RESULTS:
            via_json = decode_result(
                json.loads(json.dumps(encode_result(result)))
            )
            via_binary = fr.unpack_result(fr.pack_result(result))
            assert via_json == via_binary == result


class TestFrameValidation:
    def test_frame_header_round_trip(self):
        frame_type, request_id, body = fr.decode_frame(
            fr.encode_frame(fr.T_PING, 123)[4:]
        )
        assert (frame_type, request_id, body) == (fr.T_PING, 123, b"")

    def test_truncated_frame_rejected(self):
        with pytest.raises(SpecError, match="truncated"):
            fr.decode_frame(b"\x01")

    def test_implausible_length_rejected(self):
        with pytest.raises(SpecError, match="implausible"):
            fr.read_frame_length(struct.pack("<I", fr.MAX_FRAME_BODY + 1))
        with pytest.raises(SpecError, match="implausible"):
            fr.read_frame_length(struct.pack("<I", 0))

    def test_binary_decoder_validates_like_json(self):
        bad_k = fr.pack_query(KNNQuery((1.0,), 2)).replace(
            struct.pack("<I", 2), struct.pack("<I", 0)
        )
        with pytest.raises(SpecError, match="k >= 1"):
            fr.unpack_query(bad_k)
        with pytest.raises(SpecError, match="unknown binary query tag"):
            fr.unpack_query(b"\xff")
        with pytest.raises(SpecError, match="empty"):
            fr.unpack_query(b"")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_binary_decoder_rejects_non_finite_input(self, bad):
        for query in (
            NNQuery((0.5, bad)),
            KNNQuery((bad,), 2),
            CountQuery((bad, 0.5), 0.3),
        ):
            with pytest.raises(SpecError, match="finite"):
                fr.unpack_query(fr.pack_query(query))
        with pytest.raises(SpecError, match="finite radius"):
            fr.unpack_query(fr.pack_query(CountQuery((0.5,), bad)))


class TestBlockingReader:
    def test_reads_frames_and_clean_eof(self):
        import io

        stream = io.BytesIO(
            fr.encode_frame(fr.T_OK, 1) + fr.encode_frame(fr.T_PING, 2)
        )
        assert fr.read_frame_blocking(stream) == (fr.T_OK, 1, b"")
        assert fr.read_frame_blocking(stream) == (fr.T_PING, 2, b"")
        assert fr.read_frame_blocking(stream) is None

    def test_mid_frame_eof_is_an_error(self):
        import io

        stream = io.BytesIO(fr.encode_frame(fr.T_OK, 1)[:-2])
        with pytest.raises(SpecError, match="mid-frame"):
            fr.read_frame_blocking(stream)
