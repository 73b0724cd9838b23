"""Unit tests for the instrumented benchmark runner."""

import pytest

from repro.bench import (
    bench_hierarchy,
    make_knn,
    make_mm,
    make_nn,
    make_pc,
    make_tj,
    make_vp,
    run_case,
    run_pair,
    runner,
)
from repro.core.schedules import ORIGINAL, TWIST
from repro.memory import speedup
from tests.unit.core.test_instruments import PerLineCacheProbe


@pytest.fixture(scope="module")
def reports():
    case = make_tj(100)
    baseline = run_case(case, ORIGINAL, bench_hierarchy)
    twisted = run_case(case, TWIST, bench_hierarchy)
    return baseline, twisted


class TestRunCase:
    def test_report_identity(self, reports):
        baseline, twisted = reports
        assert baseline.benchmark == "TJ"
        assert baseline.schedule == "original"
        assert twisted.schedule == "twist"

    def test_counts_positive(self, reports):
        baseline, _ = reports
        assert baseline.work_points == 100 * 100
        assert baseline.accesses == 2 * 100 * 100
        assert baseline.instructions > 0
        assert baseline.cycles > baseline.instructions

    def test_levels_reported(self, reports):
        baseline, _ = reports
        assert set(baseline.levels) == {"L1", "L2", "L3"}
        assert 0.0 <= baseline.miss_rate("L3") <= 1.0

    def test_results_comparable(self, reports):
        baseline, twisted = reports
        assert baseline.result == twisted.result

    def test_access_ops_folded_into_instructions(self, reports):
        baseline, _ = reports
        assert baseline.op_counts["access"] == baseline.accesses


class TestRunPair:
    def test_shared_workload(self):
        baseline, twisted = run_pair(lambda: make_tj(64), ORIGINAL, TWIST,
                                     bench_hierarchy)
        assert baseline.result == twisted.result
        assert speedup(baseline, twisted) > 0


#: The six paper benchmarks at a tenth of their default sizes: TJ alone
#: feeds the probe several times its buffer.
PAPER_CASES = {
    "TJ": lambda: make_tj(120),
    "MM": lambda: make_mm(64),
    "PC": lambda: make_pc(819),
    "NN": lambda: make_nn(614),
    "KNN": lambda: make_knn(307),
    "VP": lambda: make_vp(307),
}


class TestPerLineOracleParity:
    @pytest.mark.parametrize("schedule", [ORIGINAL, TWIST], ids=lambda s: s.name)
    @pytest.mark.parametrize("name", PAPER_CASES)
    def test_report_equals_per_line_probe(self, monkeypatch, name, schedule):
        # The level-streamed buffered probe must reproduce the per-line
        # walk exactly: every count, the cycles and the answer.
        fast = run_case(PAPER_CASES[name](), schedule, bench_hierarchy)
        monkeypatch.setattr(runner, "CacheProbe", PerLineCacheProbe)
        reference = run_case(PAPER_CASES[name](), schedule, bench_hierarchy)
        assert fast.accesses > 0
        assert fast == reference
