import pytest

import hostclock
from hostclock import CAL_REFERENCE_S, HostClock


def test_measure_scales_by_the_calibrations_around_the_work(monkeypatch):
    readings = iter([CAL_REFERENCE_S, 3 * CAL_REFERENCE_S, 2 * CAL_REFERENCE_S])
    monkeypatch.setattr(hostclock, "calibrate", lambda *args: next(readings))
    clock = HostClock()
    ref, raw, result = clock.measure(lambda: 7)
    assert result == 7
    assert ref == pytest.approx(raw / 2.0)  # host ran at half speed: (1 + 3) / 2
    assert clock.factor() == pytest.approx(2.5)  # (3 + 2) / 2
    assert clock.factors == pytest.approx([2.0, 2.5])


def test_calibration_loop_takes_time():
    assert hostclock.calibrate(samples=3) > 0.0


def test_every_cpu_calibration_restores_the_affinity():
    import os

    before = os.sched_getaffinity(0)
    assert hostclock.calibrate(samples=1, every_cpu=True) > 0.0
    assert os.sched_getaffinity(0) == before
