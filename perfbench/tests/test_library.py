"""Library outputs are checked in full against brute force."""

import numpy as np
import pytest

import library
from repro.core.schedules import get_schedule


@pytest.fixture(scope="module")
def cases():
    return library.make_cases(3, library.BENCHMARKS, scale=0.02)


def test_seeded_cases_are_sized_like_all_cases():
    from repro.bench.workloads import all_cases

    cases = library.make_cases(3, library.SIM_BENCHMARKS, library.SIM_SCALE)
    expected = all_cases(library.SIM_SCALE)
    for case, reference in zip(cases.values(), expected, strict=True):
        got, want = case.make_spec(), reference.make_spec()
        assert _nodes(got.outer_root) == _nodes(want.outer_root)
        assert _nodes(got.inner_root) == _nodes(want.inner_root)


def test_batch_cases_are_seeded_and_sized_like_wallclock_cases():
    from repro.bench.workloads import wallclock_cases

    cases, again, other = (library.batch_cases(seed) for seed in (3, 3, 4))
    for (name, case), reference in zip(cases.items(), wallclock_cases(), strict=True):
        got, want = case.make_spec(), reference.make_spec()
        assert _nodes(got.outer_root) == _nodes(want.outer_root), name
        assert _nodes(got.inner_root) == _nodes(want.inner_root), name
    assert np.array_equal(cases["NN"].queries, again["NN"].queries)
    assert not np.array_equal(cases["NN"].queries, other["NN"].queries)


def _nodes(root):
    return sum(1 for _ in root.iter_preorder())


@pytest.mark.parametrize("name", library.BENCHMARKS)
def test_every_output_matches_its_reference(cases, name):
    case = cases[name]
    expected, _ = library.reference(name, case)
    for schedule in library.SCHEDULES:
        get_schedule(schedule).run(case.make_spec())
        assert library.matches(name, case, library.output(case), expected)


@pytest.mark.parametrize("name", ["NN", "KNN", "VP"])
def test_a_wrong_neighbour_id_fails_the_check(cases, name):
    case = cases[name]
    expected, _ = library.reference(name, case)
    get_schedule("twist").run(case.make_spec())
    ids, dists = library.output(case)
    ids = np.array(ids)
    ids.flat[0] = ids.flat[0] + 1
    assert not library.matches(name, case, (ids, dists), expected)
    assert not library.same((ids, dists), library.output(case))
