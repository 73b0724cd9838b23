import threading

import pytest

from tracer import END, NAME, PARENT, START, Tracer, self_times, union_length


def span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_union_length_merges_overlaps():
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_children_only():
    spans = [
        span("tick", 0.0, 10.0),
        span("tree", 1.0, 2.0, parent=0),
        span("run", 2.0, 7.0, parent=0),
        span("choose", 3.0, 4.0, parent=2),
        span("other", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([4.0, 1.0, 4.0, 1.0, 1.0])
    # Self times of a tree add up to the root's duration.
    assert sum(selfs[:4]) == pytest.approx(10.0)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [span("a", 0.0, 4.0), span("b", -1.0, 2.0, 0), span("c", 1.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_open_span_has_no_self_time():
    assert self_times([span("a", 0.0, None)]) == [0.0]


def test_tracer_nests_per_thread_and_restores_patches():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    tracer._set(module, "f", tracer.wrap(module.f, "f"))
    outer = tracer.wrap(lambda: module.f(1), "outer")
    assert outer() == 2
    worker = threading.Thread(target=module.f, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "f", "f"]
    assert tracer.spans[1][PARENT] == 0
    assert tracer.spans[2][PARENT] is None  # other thread: no parent
    assert all(s[END] >= s[START] for s in tracer.spans)
    tracer.uninstall()
    assert module.f is original
