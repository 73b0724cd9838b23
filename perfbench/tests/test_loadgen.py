import numpy as np
import pytest

import loadgen
from loadgen import Traffic, latency_summary, tail_percentile

REFS = np.random.default_rng(0).random((500, 2))


def make_plans(seed, phases):
    return loadgen.make_plans(seed, phases, REFS, 0.05)

HOT = [Traffic(300.0, 2.0), Traffic(2000.0, 0.5)]


def test_same_seed_same_schedule_and_queries():
    first, second = make_plans(5, HOT), make_plans(5, HOT)
    for a, b in zip(first, second):
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.kinds, b.kinds)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.lines(7) == b.lines(7)


def test_other_seed_other_traffic():
    a, b = make_plans(5, HOT)[0], make_plans(6, HOT)[0]
    assert len(a) != len(b) or not np.array_equal(a.offsets, b.offsets)


def test_offsets_are_a_poisson_schedule_within_the_phase():
    plan = make_plans(3, [Traffic(400.0, 10.0)])[0]
    assert np.all(np.diff(plan.offsets) > 0)
    assert plan.offsets[-1] < 10.0
    assert abs(len(plan) - 4000) < 5 * np.sqrt(4000)


def test_hot_share_and_mix():
    plan = make_plans(11, [Traffic(2000.0, 5.0)])[0]
    keys = [tuple(p) for p in plan.points.tolist()]
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    hot_requests = sum(c for c in counts.values() if c > 1)
    assert 0.65 < hot_requests / len(plan) < 0.75
    assert len([c for c in counts.values() if c > 1]) <= 64
    shares = np.bincount(plan.kinds, minlength=3) / len(plan)
    assert np.allclose(shares, [0.4, 0.2, 0.4], atol=0.03)


def test_wire_form_carries_parameters_and_exact_floats():
    import json

    plan = make_plans(2, [Traffic(200.0, 1.0)])[0]
    for i, line in enumerate(plan.lines(100)):
        request = json.loads(line)
        assert request["id"] == 100 + i
        query = request["query"]
        assert tuple(query["point"]) == tuple(plan.points[i].tolist())
        assert ("k" in query) == (query["kind"] == "knn")
        assert ("radius" in query) == (query["kind"] == "count")


@pytest.mark.parametrize(
    "samples, expected",
    [(1000, 99.0), (5000, 99.0), (600, 100.0 * 590 / 600), (11, 100.0 / 11), (10, 0.0), (0, 0.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    pct = tail_percentile(samples)
    assert pct == pytest.approx(expected)
    if samples > 10:
        values = np.arange(samples, dtype=float)
        assert (values > np.percentile(values, pct)).sum() >= 10


def test_latency_summary_reports_count_and_supported_tail():
    latencies = np.arange(1, 301, dtype=float)  # 300 samples: p96.67 supported
    summary = latency_summary(latencies)
    assert summary["count"] == 300
    assert summary["tail_pct"] == pytest.approx(100.0 * 290 / 300)
    assert summary["p50"] == pytest.approx(150.5)
    assert (latencies > summary["tail"]).sum() >= 10


def test_a_burst_is_due_at_once_and_shares_the_hot_set():
    fixed, burst = make_plans(4, [Traffic(100.0, 2.0), Traffic(None, 0.0, burst=500)])
    assert len(burst) == 500 and not burst.offsets.any()
    hot = {tuple(p) for p in fixed.points.tolist()} & {tuple(p) for p in burst.points.tolist()}
    assert 0 < len(hot) <= 64
    # Outside the hot set no point is asked twice, across phases too.
    points = [tuple(p) for plan in (fixed, burst) for p in plan.points.tolist()]
    repeated = {p for p in points if points.count(p) > 1}
    assert len(repeated) <= 64
