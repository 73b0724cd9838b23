"""The library workloads: batch executors and the memory simulator.

Inputs are built from the workload seed through the public
constructors (``repro.bench.workloads.make_*`` for simulate; the
algorithm classes and :class:`~repro.kernels.matmul.MatrixMultiply`
for batch, see :func:`batch_cases`); each case's algorithm
object is kept so its full output — not just the checksum — can be
compared with a reference computed outside the timed region.  TreeJoin
has no random input: its trees are fixed by their size.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import resource
import statistics
import sys
import time

import numpy as np

from repro.bench import workloads as wl
from repro.core import backend_select
from repro.core.schedules import get_schedule
from repro.dualtree import brute
from repro.dualtree.algorithms import (
    KNearestNeighbors,
    NearestNeighbor,
    PointCorrelation,
    VPNearestNeighbors,
)
from repro.dualtree.kde import KernelDensity
from repro.kernels.matmul import MatrixMultiply
from repro.memory.costmodel import WorkCost

from hostclock import HostClock

SCHEDULES = ("original", "twist")
#: The wall-clock benchmarks (``wallclock_cases``); the simulated
#: machine runs the paper's six (``all_cases``), all but KDE.
BENCHMARKS = ("TJ", "MM", "PC", "NN", "KNN", "VP", "KDE")
SIM_BENCHMARKS = BENCHMARKS[:-1]

#: Simulated-machine scale: a quarter of the default input sizes.
SIM_SCALE = 0.25

#: Rows per brute-force block, bounding reference memory.
BLOCK = 512

MAKERS = {"TJ": wl.make_tj, "MM": wl.make_mm, "PC": wl.make_pc, "NN": wl.make_nn,
          "KNN": wl.make_knn, "VP": wl.make_vp, "KDE": wl.make_kde}


def _defaults(maker) -> dict:
    return {name: p.default for name, p in inspect.signature(maker).parameters.items()}


def make_cases(seed: int, names, scale: float = 1.0) -> dict:
    """name -> BenchmarkCase, seeded, at ``scale`` times the default size.

    Sizes are scaled as ``all_cases`` / ``wallclock_cases`` scale them.
    """
    seeds = np.random.default_rng([seed, 7]).integers(2**31, size=len(BENCHMARKS))
    seed_of = dict(zip(BENCHMARKS, (int(s) for s in seeds)))
    cases = {}
    for name in names:
        maker = MAKERS[name]
        default_size = next(iter(_defaults(maker).values()))  # the first parameter
        size = max(64, int(default_size * scale))
        if name == "TJ":  # no random input: the trees are fixed by their size
            cases[name] = maker(size)
        elif name == "MM":
            cases[name] = _make_mm(size, seed_of[name])
        else:
            cases[name] = maker(size, seed=seed_of[name])
    return cases


def _make_mm(n: int, seed: int) -> wl.BenchmarkCase:
    """``make_mm(n)`` with seeded matrices (``make_mm`` takes no seed)."""
    defaults = _defaults(wl.make_mm)
    p = defaults["p"]
    mm = MatrixMultiply(n=n, m=n, p=p, lines_per_vector=defaults["lines_per_vector"],
                        seed=seed)
    return wl.BenchmarkCase(
        name="MM",
        make_spec=mm.make_spec,
        register_layout=mm.register_layout,
        work_cost=WorkCost(instructions=2.0 * p),  # as make_mm: 2p per dot product
        result=lambda: float(mm.c.sum()),
    )


#: Clusters and spread of every point set, as the ``make_*`` constructors draw them.
CLUSTERS = 24
SPREAD = 0.05


def clustered(n: int, layout_seed: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points drawn by ``rng`` around the cluster centres that
    ``clustered_points(seed=layout_seed)`` places."""
    centres = np.random.default_rng(layout_seed).random((CLUSTERS, 2))
    return centres[rng.integers(0, CLUSTERS, size=n)] + rng.normal(0.0, SPREAD, size=(n, 2))


def batch_cases(seed: int) -> dict:
    """name -> the batch workload's input (anything with ``make_spec``).

    The wall-clock sweep's sizes, parameters and cluster layout (the
    ``make_*`` defaults, whose default seeds place the cluster centres);
    the workload seed draws the points around those centres and the
    matrices.  The layout, not the points, sets how much a traversal
    prunes: with the centres drawn per seed too, one pass cost up to 40%
    more on one seed than on another (NOTES.md).
    """
    rng = np.random.default_rng([seed, 7])

    def points(maker, offset=0):
        d = _defaults(maker)
        return clustered(d["num_points"], d["seed"] + offset, rng)

    mm, pc, nn = _defaults(wl.make_mm), _defaults(wl.make_pc), _defaults(wl.make_nn)
    knn, vp, kde = _defaults(wl.make_knn), _defaults(wl.make_vp), _defaults(wl.make_kde)
    return {
        "TJ": wl.make_tj(),
        "MM": MatrixMultiply(n=mm["n"], m=mm["n"], p=mm["p"],
                             lines_per_vector=mm["lines_per_vector"],
                             seed=int(rng.integers(2**31))),
        "PC": PointCorrelation(points(wl.make_pc), radius=pc["radius"],
                               leaf_size=pc["leaf_size"]),
        "NN": NearestNeighbor(points(wl.make_nn), points(wl.make_nn, 1),
                              leaf_size=nn["leaf_size"]),
        "KNN": KNearestNeighbors(points(wl.make_knn), points(wl.make_knn, 1), k=knn["k"],
                                 leaf_size=knn["leaf_size"]),
        "VP": VPNearestNeighbors(points(wl.make_vp), points(wl.make_vp, 1), k=vp["k"],
                                 leaf_size=vp["leaf_size"]),
        "KDE": KernelDensity(points(wl.make_kde), points(wl.make_kde, 1),
                             bandwidth=kde["bandwidth"], epsilon=kde["epsilon"],
                             leaf_size=kde["leaf_size"]),
    }


# ---------------------------------------------------------------------------
# Outputs and references


def output(case: wl.BenchmarkCase):
    """A copy of the last run's full output: for NN, KNN and VP (ids, distances)."""
    algo = case.make_spec.__self__
    return copy.deepcopy(algo.c if isinstance(algo, MatrixMultiply) else algo.result)


def reference(name: str, case: wl.BenchmarkCase) -> tuple[object, float]:
    """``(expected output, brute-force seconds)`` for one case."""
    algo = case.make_spec.__self__
    start = time.perf_counter()
    if name == "TJ":
        value = algo.expected_total()
    elif name == "MM":
        value = algo.a @ algo.b
    elif name == "PC":
        value = sum(
            brute.brute_point_correlation(algo.points[lo : lo + BLOCK], algo.points, algo.radius)
            for lo in range(0, len(algo.points), BLOCK)
        )
    elif name in ("NN", "KNN", "VP"):
        blocks = [
            brute.brute_nearest_neighbor(algo.queries[lo : lo + BLOCK], algo.references)
            if name == "NN"
            else brute.brute_knn(algo.queries[lo : lo + BLOCK], algo.references, algo.k)
            for lo in range(0, len(algo.queries), BLOCK)
        ]
        value = tuple(np.concatenate(parts) for parts in zip(*blocks))
    else:
        from repro.dualtree.kde import brute_kde

        value = np.concatenate([
            brute_kde(algo.queries[lo : lo + BLOCK], algo.references, algo.bandwidth)
            for lo in range(0, len(algo.queries), BLOCK)
        ])
    return value, time.perf_counter() - start


def matches(name: str, case: wl.BenchmarkCase, got, expected) -> bool:
    """Whether one output agrees with its reference.

    Exact for integer results and for neighbour ids and distances
    (brute force evaluates the kernels' own distance expression and
    breaks ties by id, as the kernels do); MM sums its dot products in
    another order, so it gets a dtype-sized relative tolerance; KDE is
    approximate by design and must stay within its analytic bound.
    """
    if name in ("TJ", "PC"):
        return got == expected
    if name in ("NN", "KNN", "VP"):
        return all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))
    if name == "MM":
        return bool(np.allclose(got, expected, rtol=1e-12, atol=0.0))
    bound = case.make_spec.__self__.error_bound()
    return bool(np.all(np.abs(got - expected) <= bound))


def same(a, b) -> bool:
    """Bitwise equality of two outputs of one benchmark."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def peak_rss_mb() -> float:
    """This process's peak resident set, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# batch


@dataclasses.dataclass
class LibraryRun:
    """Per-config samples and checked outputs of one library workload."""

    seconds: dict  # (benchmark, schedule) -> [reference seconds per run]
    raw: dict  # (benchmark, schedule) -> [measured seconds per run]
    outputs: dict  # (benchmark, schedule) -> first output
    extra: dict  # (benchmark, schedule) -> first run's counters, or None
    diverged: list  # configs whose repeated runs disagreed
    wall_s: float  # the whole timed loop, measured

    def medians(self, raw: bool = False) -> dict:
        samples = self.raw if raw else self.seconds
        return {config: statistics.median(v) for config, v in samples.items()}

    def passes(self, raw: bool = False) -> list:
        """Seconds of each pass: one run of every config."""
        samples = self.raw if raw else self.seconds
        return [sum(runs) for runs in zip(*samples.values())]


def _timed_loop(configs, run_one, seconds: float, every_cpu: bool = True) -> LibraryRun:
    """Whole passes of ``run_one(config, clock)`` over ``configs``, within ``seconds``.

    At least one pass runs; another starts only if, at the mean pass
    time so far, it would end within half a pass of ``seconds``, so the
    run ends at the pass boundary nearest to ``seconds``.  ``run_one`` times its
    run with ``clock.measure`` and returns ``(measured s, output,
    counters)``.  The clock calibrates after every run, with the median
    of five loops, and each run is scaled by its own factor.
    """
    raw = {config: [] for config in configs}
    samples = {config: [] for config in configs}
    outputs: dict = {}
    diverged: list = []
    extra: dict = {}
    clock = HostClock(samples=5, every_cpu=every_cpu)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - start) * (passes + 0.5) / passes <= seconds:
        for config in configs:
            measured, out, note = run_one(config, clock)
            raw[config].append(measured)
            samples[config].append(measured / clock.factors[-1])
            if config not in outputs:
                outputs[config] = out
                extra[config] = note
            elif (not same(outputs[config], out) or note != extra[config]) and (
                config not in diverged
            ):
                diverged.append(config)
        passes += 1
    wall = time.perf_counter() - start
    return LibraryRun(samples, raw, outputs, extra, diverged, wall)


def kernel_share(case: wl.BenchmarkCase, schedule: str) -> float:
    """Share of one ``auto`` run's time spent inside its kernels.

    The kernels are the spec's entry points (``work``, ``work_batch``,
    ``work_batch_soa``) and the fused loops the compiled tier generates
    from them.  Wrapping them would change what the lowerability
    analyzer reads, so a profile hook times them instead; only calls in
    this process are seen.
    """
    spec = case.make_spec()
    targets = {
        getattr(getattr(fn, "__func__", fn), "__code__", None)
        for fn in (spec.work, spec.work_batch, spec.work_batch_soa)
        if fn is not None
    }
    active: list = []
    inside = 0.0
    entered = 0.0

    def hook(frame, event, arg):
        nonlocal inside, entered
        if event == "call":
            code = frame.f_code
            if code in targets or code.co_filename.startswith("<fused:"):
                if not active:
                    entered = time.perf_counter()
                active.append(frame)
        elif event == "return" and active and active[-1] is frame:
            active.pop()
            if not active:
                inside += time.perf_counter() - entered

    start = time.perf_counter()
    sys.setprofile(hook)
    try:
        get_schedule(schedule).run(spec, backend="auto")
    finally:
        sys.setprofile(None)
    return inside / (time.perf_counter() - start)


def setup_batch(seed: int, repeats: int = 3) -> tuple[dict, float, dict]:
    """Build inputs and choose backends ``repeats`` times, then warm up once.

    Returns ``(cases, setup reference seconds, choices)``; the set-up
    time is the median build-and-choose time plus the warm-up pass.
    """

    def build():
        cases = batch_cases(seed)
        choices = {
            (b, s): backend_select.choose_backend(cases[b].make_spec(), s)
            for b in BENCHMARKS
            for s in SCHEDULES
        }
        return cases, choices

    clock = HostClock()
    builds = []
    for _ in range(repeats):
        _, raw, (cases, choices) = clock.measure(build)
        builds.append(raw)
    warm = sum(
        clock.measure(get_schedule(s).run, cases[b].make_spec(), backend="auto")[1]
        for b in BENCHMARKS
        for s in SCHEDULES
    )
    return cases, (statistics.median(builds) + warm) / statistics.median(clock.factors), choices


def run_batch(cases: dict, seconds: float) -> LibraryRun:
    """Time ``backend="auto"`` runs of every (benchmark, schedule)."""
    configs = [(b, s) for b in BENCHMARKS for s in SCHEDULES]

    def run_one(config, clock):
        b, s = config
        case = cases[b]
        raw = clock.measure(get_schedule(s).run, case.make_spec(), backend="auto")[1]
        return raw, output(case), None

    return _timed_loop(configs, run_one, seconds)


# ---------------------------------------------------------------------------
# simulate


def setup_simulate(seed: int, repeats: int = 3) -> tuple[dict, float]:
    """Build the simulated cases ``repeats`` times; median build reference seconds."""
    clock = HostClock(every_cpu=False)
    builds = []
    for _ in range(repeats):
        _, raw, cases = clock.measure(make_cases, seed, SIM_BENCHMARKS, SIM_SCALE)
        builds.append(raw)
    return cases, statistics.median(builds) / statistics.median(clock.factors)


def run_simulate(cases: dict, seconds: float, ops_only: bool = False) -> LibraryRun:
    """Time ``run_case`` on the bench machine for every (benchmark, schedule).

    With ``ops_only`` the runs carry only the op counter (no cache
    probe), which prices the simulator by difference.
    """
    from repro.bench.machine import bench_hierarchy
    from repro.bench.runner import run_case
    from repro.core.instruments import OpCounter

    configs = [(b, s) for b in cases for s in SCHEDULES]

    def run_one(config, clock):
        b, s = config
        case = cases[b]
        schedule = get_schedule(s)
        if ops_only:
            raw = clock.measure(schedule.run, case.make_spec(), instrument=OpCounter())[1]
            return raw, output(case), None
        _, raw, report = clock.measure(run_case, case, schedule, bench_hierarchy)
        note = {
            "cycles": report.cycles,
            "instructions": report.instructions,
            "accesses": report.accesses,
            "l2_misses": report.levels["L2"].misses,
            "l3_misses": report.levels["L3"].misses,
        }
        return raw, output(case), note

    # The simulator runs in this thread only: calibrate where it runs.
    return _timed_loop(configs, run_one, seconds, every_cpu=False)


def check(run: LibraryRun, cases: dict) -> tuple[list, dict]:
    """Mismatched configs (vs. brute-force references) and brute seconds."""
    wrong = [f"{b}/{s}: repeated runs disagree" for b, s in run.diverged]
    brute_s: dict = {}
    for b in sorted({b for b, _ in run.outputs}):
        expected, brute_s[b] = reference(b, cases[b])
        for s in SCHEDULES:
            if (b, s) in run.outputs and not matches(b, cases[b], run.outputs[(b, s)], expected):
                wrong.append(f"{b}/{s}: output differs from the brute-force reference")
    return wrong, brute_s
