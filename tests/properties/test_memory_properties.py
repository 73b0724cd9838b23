"""Property-based tests for the memory substrate.

The reuse-distance analyzer and the LRU cache are the measurement
instruments of the whole reproduction — these properties check them
against independent oracles on arbitrary traces.
"""

import copy
from collections import OrderedDict
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.instruments import CacheProbe
from repro.memory import (
    AddressMap,
    CacheHierarchy,
    ReuseDistanceAnalyzer,
    fully_associative,
    naive_reuse_distances,
)
from repro.memory.cache import SetAssociativeCache

traces = st.lists(st.integers(min_value=0, max_value=30), max_size=200)
#: (num_sets, ways) per level, L1 first
level_shapes = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=3,
)
#: probe buffer caps small enough that random traces overflow them
buffer_caps = st.integers(min_value=1, max_value=64)
NODES = 12


#: Every read of probe or hierarchy state, as f(probe, machine).
OBSERVERS = {
    "level_hits": lambda probe, machine: probe.level_hits,
    "accesses": lambda probe, machine: probe.accesses,
    "memory_accesses": lambda probe, machine: probe.memory_accesses,
    "cache_level_hits": lambda probe, machine: probe.cache_level_hits,
    "stats": lambda probe, machine: machine.stats(),
    "stats_by_name": lambda probe, machine: machine.stats_by_name(),
    "machine_memory": lambda probe, machine: machine.memory_accesses,
    "levels": lambda probe, machine: [level.stats for level in machine.levels],
}


def build(shapes):
    return CacheHierarchy(
        [
            SetAssociativeCache(num_sets, ways, name=f"L{index + 1}")
            for index, (num_sets, ways) in enumerate(shapes)
        ]
    )


def contents(machine):
    """Every set's lines, least recently used first."""
    return [[list(cache_set) for cache_set in level._sets] for level in machine.levels]


def node_map():
    """Nodes 0..NODES-1 owning 1, 2 or 3 consecutive lines each."""
    amap = AddressMap()
    for number in range(NODES):
        amap.register(("t", number), 1 + number % 3)
    return amap


def per_line(machine, served, lines):
    for line in lines:
        served[machine.access(line)] += 1


def assert_same_machine(fast, reference):
    assert fast.stats() == reference.stats()
    assert fast.memory_accesses == reference.memory_accesses
    assert contents(fast) == contents(reference)


class TestReuseAnalyzer:
    @given(trace=traces)
    def test_matches_naive_oracle(self, trace):
        analyzer = ReuseDistanceAnalyzer()
        assert analyzer.process(trace) == naive_reuse_distances(trace)

    @given(trace=traces)
    def test_histogram_counts_finite_accesses(self, trace):
        analyzer = ReuseDistanceAnalyzer()
        distances = analyzer.process(trace)
        finite = [d for d in distances if d is not None]
        assert sum(analyzer.histogram.values()) == len(finite)
        assert analyzer.cold_accesses == len(trace) - len(finite)

    @given(trace=traces)
    def test_distance_bounded_by_alphabet(self, trace):
        analyzer = ReuseDistanceAnalyzer()
        for distance in analyzer.process(trace):
            if distance is not None:
                assert 0 <= distance < len(set(trace))


class TestLruCacheAgainstReuseDistance:
    @given(trace=traces, capacity=st.integers(min_value=1, max_value=16))
    def test_fully_associative_hit_iff_distance_below_capacity(
        self, trace, capacity
    ):
        # The textbook stack-distance theorem: under fully associative
        # LRU, an access hits iff its reuse distance < capacity.
        cache = fully_associative(capacity)
        distances = naive_reuse_distances(trace)
        for key, distance in zip(trace, distances):
            hit = cache.access(key)
            expected = distance is not None and distance < capacity
            assert hit == expected

    @given(
        trace=traces,
        num_sets=st.integers(min_value=1, max_value=4),
        ways=st.integers(min_value=1, max_value=4),
    )
    def test_set_associative_matches_per_set_model(self, trace, num_sets, ways):
        # Each set behaves as an independent fully associative LRU over
        # the addresses mapping to it.
        cache = SetAssociativeCache(num_sets=num_sets, ways=ways)
        models = [OrderedDict() for _ in range(num_sets)]
        for address in trace:
            model = models[address % num_sets]
            expected_hit = address in model
            if expected_hit:
                model.move_to_end(address)
            else:
                if len(model) >= ways:
                    model.popitem(last=False)
                model[address] = None
            assert cache.access(address) == expected_hit

    @given(trace=traces)
    def test_stats_are_consistent(self, trace):
        cache = fully_associative(8)
        for address in trace:
            cache.access(address)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(trace)


class TestLevelStreamedHierarchy:
    @given(
        trace=traces,
        shapes=level_shapes,
        cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
    )
    def test_chunked_access_all_equals_per_line_access(self, trace, shapes, cuts):
        reference = build(shapes)
        expected = [0] * (len(shapes) + 1)
        per_line(reference, expected, trace)

        fast = build(shapes)
        served = [0] * (len(shapes) + 1)
        bounds = [0, *sorted(cut for cut in cuts if cut < len(trace)), len(trace)]
        for start, stop in zip(bounds, bounds[1:]):
            for index, count in enumerate(fast.access_all(trace[start:stop])):
                served[index] += count
        assert served == expected
        assert_same_machine(fast, reference)
        for fast_level, reference_level in zip(fast.levels, reference.levels):
            assert fast_level.stats.evictions == reference_level.stats.evictions

    @given(
        touches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=NODES - 1),
            ),
            max_size=150,
        ),
        shapes=level_shapes,
        cap=buffer_caps,
    )
    @settings(max_examples=100)
    def test_two_interleaved_probes_equal_per_line_path(self, touches, shapes, cap):
        amap = node_map()
        reference = build(shapes)
        expected = [[0] * (len(shapes) + 1) for _ in range(2)]
        fast = build(shapes)
        with mock.patch("repro.memory.hierarchy.FEED_BUFFER_LINES", cap):
            probes = [CacheProbe(amap, fast), CacheProbe(amap, fast)]
            for which, number in touches:
                probes[which].access("t", SimpleNamespace(number=number))
                per_line(reference, expected[which], amap.lines_of(("t", number)))
            assert [probe.level_hits for probe in probes] == expected
            assert_same_machine(fast, reference)

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("touch"), st.integers(min_value=0, max_value=NODES - 1)),
                st.tuples(st.just("line"), st.integers(min_value=0, max_value=40)),
                st.tuples(st.just("read"), st.none()),
                st.tuples(st.just("flush"), st.none()),
                st.tuples(st.just("reset_stats"), st.none()),
            ),
            max_size=120,
        ),
        shapes=level_shapes,
        cap=buffer_caps,
    )
    @settings(max_examples=100)
    def test_every_mid_stream_read_sees_the_drained_state(self, steps, shapes, cap):
        amap = node_map()
        reference = build(shapes)
        fast = build(shapes)
        with mock.patch("repro.memory.hierarchy.FEED_BUFFER_LINES", cap):
            probe = CacheProbe(amap, fast)
            expected = [0] * (len(shapes) + 1)
            for action, argument in steps:
                if action == "touch":
                    probe.access("t", SimpleNamespace(number=argument))
                    per_line(reference, expected, amap.lines_of(("t", argument)))
                elif action == "line":
                    assert fast.access(argument) == reference.access(argument)
                elif action == "read":
                    # Each observer reads its own copy, so every one of
                    # them is the first read after the buffered touches.
                    mirror = SimpleNamespace(
                        level_hits=expected,
                        accesses=sum(expected),
                        memory_accesses=expected[-1],
                        cache_level_hits=expected[:-1],
                    )
                    for observe in OBSERVERS.values():
                        assert observe(*copy.deepcopy((probe, fast))) == observe(
                            mirror, reference
                        )
                else:
                    getattr(fast, action)()
                    getattr(reference, action)()
            assert probe.level_hits == expected
            assert_same_machine(fast, reference)
