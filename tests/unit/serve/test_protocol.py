"""Wire-protocol round trips and admission grouping keys."""

import json
import math

import pytest

from repro.errors import SpecError
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
    group_key,
)

QUERIES = [
    NNQuery((0.25, 0.75)),
    KNNQuery((0.1, 0.2, 0.3), k=7),
    CountQuery((0.5, 0.5), radius=0.125),
]

RESULTS = [
    NNResult(42, 0.0137),
    KNNResult((3, 1, 4), (0.1, 0.2, 0.3)),
    CountResult(271),
]


class TestRoundTrip:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: type(q).__name__)
    def test_query_survives_json(self, query):
        wire = json.loads(json.dumps(encode_query(query)))
        assert decode_query(wire) == query

    @pytest.mark.parametrize(
        "result", RESULTS, ids=lambda r: type(r).__name__
    )
    def test_result_survives_json(self, result):
        wire = json.loads(json.dumps(encode_result(result)))
        assert decode_result(wire) == result

    def test_awkward_floats_round_trip_exactly(self):
        # repr-exact JSON floats: a third is not representable, and the
        # decoded value must still bit-match for the oracle comparison.
        point = (1.0 / 3.0, 2.0**-40, 1e308)
        query = NNQuery(point)
        assert decode_query(json.loads(json.dumps(encode_query(query)))) == query


class TestGroupKey:
    def test_same_kind_same_params_share_a_tick(self):
        assert group_key(KNNQuery((0.0,), 5)) == group_key(
            KNNQuery((9.0,), 5)
        )
        assert group_key(CountQuery((0.0,), 0.3)) == group_key(
            CountQuery((1.0,), 0.3)
        )

    def test_different_params_never_share(self):
        assert group_key(KNNQuery((0.0,), 5)) != group_key(
            KNNQuery((0.0,), 6)
        )
        assert group_key(CountQuery((0.0,), 0.3)) != group_key(
            CountQuery((0.0,), 0.4)
        )

    def test_kinds_are_disjoint(self):
        keys = {group_key(query) for query in QUERIES}
        assert len(keys) == len(QUERIES)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown query kind"):
            decode_query({"kind": "sort", "point": [0.0]})

    def test_empty_point_rejected(self):
        with pytest.raises(SpecError, match="at least one coordinate"):
            decode_query({"kind": "nn", "point": []})

    def test_bad_k_rejected(self):
        with pytest.raises(SpecError, match="k >= 1"):
            decode_query({"kind": "knn", "point": [0.0], "k": 0})

    def test_negative_radius_rejected(self):
        with pytest.raises(SpecError, match="radius >= 0"):
            decode_query({"kind": "count", "point": [0.0], "radius": -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        for payload in (
            {"kind": "nn", "point": [0.5, bad]},
            {"kind": "knn", "point": [bad], "k": 2},
            {"kind": "count", "point": [bad, 0.5], "radius": 0.3},
        ):
            with pytest.raises(SpecError, match="finite"):
                decode_query(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(SpecError, match="finite radius"):
            decode_query({"kind": "count", "point": [0.5], "radius": bad})

    def test_unknown_result_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown result kind"):
            decode_result({"kind": "mystery"})
