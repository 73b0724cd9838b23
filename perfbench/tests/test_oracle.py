"""Brute force agrees with the service's serial oracle, bit for bit."""

import numpy as np
import pytest

from loadgen import Traffic
from loadgen import make_plans as _make_plans
from oracle import brute_answers
from repro.serve.protocol import decode_query, encode_result


@pytest.fixture(scope="module")
def service_and_refs():
    from repro.serve.service import QueryService, ServiceConfig
    from repro.spaces.points import clustered_points

    refs = clustered_points(1500, clusters=24, spread=0.05, seed=4)
    # Duplicated reference rows force exact distance ties, which both
    # sides must break by the smaller id.
    refs = np.concatenate([refs, refs[:40]])
    service = QueryService(refs, ServiceConfig(max_batch=64))
    yield service, refs
    service.close()


def make_plans(seed, phases, refs):
    return _make_plans(seed, phases, refs, 0.05)


def _queries(plan, indices):
    return {plan.key(i): decode_query(plan.query(i)) for i in indices}


def test_brute_force_equals_the_serial_oracle(service_and_refs):
    service, refs = service_and_refs
    plan = make_plans(3, [Traffic(400.0, 0.3)], refs)[0]
    sample = _queries(plan, range(len(plan)))
    # Ask about reference points themselves too: distance 0 plus ties.
    for row in (0, 5, 1500, 1505):
        point = tuple(refs[row].tolist())
        for kind, q in ((0, {"kind": "nn"}), (1, {"kind": "knn", "k": 5}),
                        (2, {"kind": "count", "radius": 0.3})):
            sample[(kind, point)] = decode_query({**q, "point": list(point)})
    keys = list(sample)
    serial = service.execute_serial([sample[key] for key in keys])
    expected, _ = brute_answers(
        refs, {key: (key[0], np.array(key[1])) for key in keys}, k=5, radius=0.3
    )
    for key, result in zip(keys, serial):
        assert encode_result(result) == expected[key], key


def test_brute_force_equals_the_batched_service(service_and_refs):
    service, refs = service_and_refs
    plan = make_plans(8, [Traffic(600.0, 0.2)], refs)[0]
    sample = _queries(plan, range(len(plan)))
    keys = list(sample)
    batched = service.execute_batch([sample[key] for key in keys])
    expected, _ = brute_answers(
        refs, {key: (key[0], np.array(key[1])) for key in keys}, k=5, radius=0.3
    )
    assert [encode_result(r) for r in batched] == [expected[key] for key in keys]
