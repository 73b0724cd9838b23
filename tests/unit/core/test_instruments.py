"""Unit tests for instrumentation probes."""

import pytest

from repro.core import (
    AccessTraceRecorder,
    CacheProbe,
    Instrument,
    MultiInstrument,
    NULL_INSTRUMENT,
    NestedRecursionSpec,
    OpCounter,
    ReuseDistanceProbe,
    WorkCallback,
    WorkRecorder,
    combine,
    run_original,
)
from repro.errors import MemorySimError
from repro.memory import AddressMap, layout_tree, tiny_hierarchy
from repro.memory.hierarchy import FEED_BUFFER_LINES
from repro.spaces import balanced_tree


class PerLineCacheProbe(Instrument):
    """Reference probe: every line walks the hierarchy as it is touched.

    This is the unbuffered probe :class:`CacheProbe` must match count for
    count; the runner parity tests swap it into ``run_case``.
    """

    def __init__(self, address_map, hierarchy):
        self.address_map = address_map
        self.hierarchy = hierarchy
        self.level_hits = [0] * (len(hierarchy.levels) + 1)
        self.accesses = 0

    def access(self, tree, node):
        lines = self.address_map.lines_of((tree, node.number))
        hierarchy_access = self.hierarchy.access
        for line in lines:
            self.level_hits[hierarchy_access(line)] += 1
            self.accesses += 1

    @property
    def cache_level_hits(self):
        return self.level_hits[:-1]

    @property
    def memory_accesses(self):
        return self.level_hits[-1]


@pytest.fixture
def spec():
    return NestedRecursionSpec(balanced_tree(7), balanced_tree(7))


class TestNullInstrument:
    def test_all_hooks_are_noops(self):
        NULL_INSTRUMENT.op("call")
        NULL_INSTRUMENT.access("outer", balanced_tree(1))
        NULL_INSTRUMENT.work(balanced_tree(1), balanced_tree(1))


class TestOpCounter:
    def test_counts_by_kind(self, spec):
        ops = OpCounter()
        run_original(spec, instrument=ops)
        assert ops.work_points == 49
        assert ops.accesses == 98
        assert ops.counts["trunc_check"] > 0


class TestRecorders:
    def test_work_recorder_labels(self, spec):
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        assert len(recorder.points) == 49
        assert recorder.points[0] == (0, 0)  # balanced_tree labels

    def test_access_trace_keys(self, spec):
        trace = AccessTraceRecorder()
        run_original(spec, instrument=trace)
        assert len(trace.trace) == 98
        trees = {tree for tree, _number in trace.trace}
        assert trees == {"outer", "inner"}

    def test_work_callback(self, spec):
        seen = []
        run_original(spec, instrument=WorkCallback(lambda o, i: seen.append(1)))
        assert len(seen) == 49


class TestReuseProbe:
    def test_streams_into_analyzer(self, spec):
        probe = ReuseDistanceProbe()
        run_original(spec, instrument=probe)
        assert probe.analyzer.num_accesses == 98
        # 14 distinct nodes -> 14 cold accesses
        assert probe.analyzer.cold_accesses == 14


class TestCacheProbe:
    def test_expands_nodes_to_lines(self, spec):
        amap = AddressMap()
        layout_tree(amap, spec.outer_root, "outer", lines_per_node=2)
        layout_tree(amap, spec.inner_root, "inner", lines_per_node=2)
        probe = CacheProbe(amap, tiny_hierarchy())
        run_original(spec, instrument=probe)
        assert probe.accesses == 98 * 2
        assert sum(probe.level_hits) == probe.accesses
        assert probe.memory_accesses >= 14  # at least the cold lines

    def test_trace_longer_than_the_buffer_matches_per_line_probe(self):
        spec = NestedRecursionSpec(balanced_tree(60), balanced_tree(60))
        amap = AddressMap()
        layout_tree(amap, spec.outer_root, "outer", lines_per_node=3)
        layout_tree(amap, spec.inner_root, "inner", lines_per_node=3)
        probes = []
        for probe_class in (CacheProbe, PerLineCacheProbe):
            probes.append(probe_class(amap, tiny_hierarchy()))
            run_original(spec, instrument=probes[-1])
        fast, reference = probes
        assert reference.accesses == 2 * 60 * 60 * 3 > 2 * FEED_BUFFER_LINES
        assert fast.accesses == reference.accesses
        assert fast.level_hits == reference.level_hits
        assert fast.cache_level_hits == reference.cache_level_hits
        assert fast.memory_accesses == reference.memory_accesses
        assert (
            fast.hierarchy.stats_by_name()
            == reference.hierarchy.stats_by_name()
        )
        assert (
            fast.hierarchy.memory_accesses
            == reference.hierarchy.memory_accesses
        )

    def test_unregistered_node_raises_at_its_access(self, spec):
        amap = AddressMap()
        layout_tree(amap, spec.outer_root, "outer")
        probe = CacheProbe(amap, tiny_hierarchy())
        probe.access("outer", spec.outer_root)
        with pytest.raises(MemorySimError, match="no assigned address"):
            probe.access("inner", spec.inner_root)
        # The registered touch before the failure is still simulated.
        assert probe.accesses == 1
        assert probe.memory_accesses == 1

    def test_level_hits_shape(self, spec):
        amap = AddressMap()
        layout_tree(amap, spec.outer_root, "outer")
        layout_tree(amap, spec.inner_root, "inner")
        probe = CacheProbe(amap, tiny_hierarchy())
        run_original(spec, instrument=probe)
        assert len(probe.cache_level_hits) == 3


class TestComposition:
    def test_combine_drops_none(self):
        ops = OpCounter()
        assert combine(None, ops) is ops
        assert combine(None, None) is NULL_INSTRUMENT
        assert isinstance(combine(OpCounter(), OpCounter()), MultiInstrument)

    def test_multi_broadcasts_everything(self, spec):
        a, b = OpCounter(), OpCounter()
        run_original(spec, instrument=MultiInstrument([a, b]))
        assert a.counts == b.counts
        assert a.work_points == b.work_points == 49

    def test_custom_instrument_subclass(self, spec):
        class OnlyWork(Instrument):
            def __init__(self):
                self.count = 0

            def work(self, o, i):
                self.count += 1

        probe = OnlyWork()
        run_original(spec, instrument=probe)
        assert probe.count == 49

    def test_hook_only_reaches_children_that_override_it(
        self, spec, monkeypatch
    ):
        reached = []
        monkeypatch.setattr(
            Instrument, "op", lambda self, kind: reached.append(self)
        )
        monkeypatch.setattr(
            Instrument, "access", lambda self, tree, node: reached.append(self)
        )

        class OnlyWork(Instrument):
            def __init__(self):
                self.count = 0

            def work(self, o, i):
                self.count += 1

        only_work, ops = OnlyWork(), OpCounter()
        run_original(spec, instrument=MultiInstrument([only_work, ops]))
        assert reached == []
        assert only_work.count == ops.work_points == 49
        assert ops.accesses == 98

    def test_single_overrider_is_bound_directly(self):
        ops = OpCounter()
        multi = MultiInstrument([ops, WorkRecorder()])
        assert multi.op == ops.op
        assert multi.access == ops.access

    def test_shared_hook_delivers_in_child_order(self, spec):
        events = []

        class Tagged(Instrument):
            def __init__(self, tag):
                self.tag = tag

            def op(self, kind):
                events.append((self.tag, "op", kind))

            def work(self, o, i):
                events.append((self.tag, "work", o.number, i.number))

        run_original(spec, instrument=MultiInstrument([Tagged("a"), Tagged("b")]))
        assert events
        firsts, seconds = events[0::2], events[1::2]
        assert [event[0] for event in firsts] == ["a"] * len(firsts)
        assert [event[1:] for event in firsts] == [event[1:] for event in seconds]
        assert {event[0] for event in seconds} == {"b"}

    def test_nested_multi_instruments(self, spec):
        inner_ops, outer_ops = OpCounter(), OpCounter()
        nested = MultiInstrument(
            [MultiInstrument([inner_ops, WorkRecorder()]), outer_ops]
        )
        run_original(spec, instrument=nested)
        assert inner_ops.counts == outer_ops.counts
        assert inner_ops.accesses == outer_ops.accesses == 98
