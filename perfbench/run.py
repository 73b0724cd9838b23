"""The repository benchmark: one command per workload, every answer checked.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Workloads (NOTES.md says why each exists and what the metrics mean):

* ``serve-hot`` — a fresh ``python -m repro.serve --references 16384``
  under open-loop Poisson load at a fixed rate, 70% of queries
  re-asking one of 64 hot points, then bursts for saturation
  throughput.
* ``batch`` — the seven wall-clock benchmarks under ``original`` and
  ``twist`` with ``backend="auto"``.
* ``simulate`` — ``run_case`` of the six paper benchmarks on the bench
  machine's simulated cache hierarchy.

The last stdout line is one JSON object: with ``--trace 0`` it carries
every end-to-end metric; with ``--trace 1`` the run is repeated with
layer wrappers installed (``tracer.py``) and it carries every per-layer
metric, reading 0 for layers the workload does not exercise.  A wrong
answer exits 1 after printing the result with ``"correct": false``.  A
serving measurement is invalid when the load generator fell behind or
the bursts did not overload the server; it is then repeated on a fresh
server, and a run whose every attempt was invalid exits 1 without a
result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("serve-hot", "batch", "simulate")

#: The fixed-rate phase (qps) lasts the run's ``--seconds``; the
#: overload phase then sends ``BURSTS`` bursts of ``BURST`` requests, each
#: all due at once, and ``sat_qps`` is their median rate.  30 qps keeps
#: the admission batcher in its one-query-per-tick state (NOTES.md).
RATE = 30.0
BURST = 6000
BURSTS = 4
SERVER_ARGS = ["--references", "16384"]
#: Fixed-phase generator lateness above this makes a measurement invalid.
MAX_LATE_P99_MS = 10.0
#: Fresh servers a run may measure before it gives up as invalid; an
#: invalid measurement is discarded (its answers are still checked).
ATTEMPTS = 3
#: Spawns per run; ``setup_s`` is their median.
SETUPS = 5
#: The fixed-rate phase is sent in this many equal segments, with the
#: host clock calibrated (server idle) between them.
SEGMENTS = 4

#: End-to-end metrics and their units, in BENCHMARK.json order.
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms", "sat_qps": "1/s",
         "ok_frac": "frac", "geo_ms": "ms"}


#: Benchmarks whose chosen backends run in this process on a 2-core
#: host, so their kernel time is visible to the profile hook.
KERNEL_SHARE = ("MM", "KDE")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    import library

    names = [
        ("batcher.dedup_hit_rate", "frac"), ("batcher.tick_admitted_mean", "count"),
        ("batcher.tick_distinct_mean", "count"), ("batcher.timer_flush_frac", "frac"),
        ("batcher.wait_ms.p50", "ms"), ("batcher.wait_ms.p99", "ms"),
        ("service.tick_ms.p50", "ms"), ("service.tick_ms.p99", "ms"),
        ("service.busy_frac", "frac"), ("service.self_ms.per_query", "ms"),
        ("service.query_tree_ms.per_query", "ms"),
        ("core.traverse_ms.per_query.nn", "ms"), ("core.traverse_ms.per_query.knn", "ms"),
        ("core.traverse_ms.per_query.count", "ms"), ("shards.gather_ms.per_query", "ms"),
        ("rules.verdict_cache_hit_rate", "frac"),
        ("protocol.decode_us.mean", "us"), ("protocol.encode_us.mean", "us"),
    ]
    names += [(f"exec.{b}.{s}_s", "s") for b in library.BENCHMARKS for s in library.SCHEDULES]
    names += [(f"kernels.share.{b}.{s}", "frac") for b in KERNEL_SHARE for s in library.SCHEDULES]
    names += [("backend_select.choose_ms", "ms"), ("soa.pack_ms", "ms")]
    for b in library.SIM_BENCHMARKS:
        names += [(f"sim.{b}.speedup", "x"), (f"sim.{b}.instr_overhead", "x")]
        for s in library.SCHEDULES:
            names += [(f"sim.{b}.{s}.l2_misses", "count"), (f"sim.{b}.{s}.l3_misses", "count")]
    names += [("memory.sim_share", "frac"), ("memory.accesses_per_s", "1/s")]
    names += [("baseline.brute_qps", "1/s"), ("baseline.brute_s.PC", "s"),
              ("baseline.brute_s.NN", "s"), ("baseline.brute_s.KNN", "s")]
    names += [("loadgen.tail_ms", "ms"), ("loadgen.late_p99_ms", "ms"),
              ("trace.overhead_frac", "frac"),
              ("trace.unaccounted_frac", "frac")]
    return names


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# serving


def env() -> dict:
    environ = dict(os.environ)
    paths = [SRC] + ([environ["PYTHONPATH"]] if environ.get("PYTHONPATH") else [])
    environ["PYTHONPATH"] = os.pathsep.join(paths)
    return environ


class Server:
    """One fresh ``repro.serve`` process (optionally under the tracer)."""

    def __init__(self, spans: str | None = None) -> None:
        self.argv = SERVER_ARGS + ["--port", "0"]
        self.spans = spans
        self.proc = None
        self.port = None
        self.ready_at = None
        self.setup_s = None

    async def start(self) -> None:
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro.serve", *self.argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", self.spans,
                   "--", *self.argv]
        from loadgen import control

        start = time.monotonic()
        with open(os.path.join(OUT, "server.log"), "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *cmd, stdout=asyncio.subprocess.PIPE, stderr=log, env=env(), cwd=ROOT
            )
        line = (await asyncio.wait_for(self.proc.stdout.readline(), 120)).decode()
        match = re.search(r"\('127\.0\.0\.1', (\d+)\)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        reply = await control("127.0.0.1", self.port, "ping")
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")
        self.ready_at = time.monotonic()
        self.setup_s = self.ready_at - start

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self) -> None:
        from loadgen import control

        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            await asyncio.wait_for(control("127.0.0.1", self.port, "shutdown"), 10)
            await asyncio.wait_for(self.proc.wait(), 30)
        except (OSError, asyncio.TimeoutError):
            pass
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()


def reference_points():
    """The server's synthetic reference set and cluster spread, from its CLI defaults."""
    from repro.serve.__main__ import build_parser
    from repro.spaces.points import clustered_points

    args = build_parser().parse_args(SERVER_ARGS)
    points = clustered_points(args.references, clusters=args.clusters, spread=args.spread,
                              seed=args.seed)
    return points, args.spread


async def serve_once(plans, spans: str | None) -> dict:
    """Setups, both phases and shutdown against fresh servers; raw observations.

    ``plans`` are the fixed-rate segments then the bursts.  The host
    clock calibrates (on an idle server) around every spawn, segment
    and burst; ``slow`` and ``burst_slow`` hold their host speed factors.
    """
    from hostclock import HostClock
    from loadgen import control, drive, merge_phases

    clock = HostClock(samples=9)
    setups = []
    for _ in range(SETUPS - 1 if spans is None else 0):
        spare = Server()
        try:
            clock.reset()
            await spare.start()
            setups.append(spare.setup_s / clock.factor())
        finally:
            await spare.stop()
    server = Server(spans)
    connections = min(2, os.cpu_count() or 1)
    try:
        clock.reset()
        await server.start()
        setups.append(server.setup_s / clock.factor())
        stats = [(await control("127.0.0.1", server.port, "stats"))["stats"]]
        clock.reset()
        segments, slow, first_id = [], [], 0
        for plan in plans[:SEGMENTS]:
            segments.append(await drive("127.0.0.1", server.port, plan, connections,
                                        first_id=first_id))
            slow.append(clock.factor())
            first_id += len(plan)
        stats.append((await control("127.0.0.1", server.port, "stats"))["stats"])
        bursts, burst_slow = [], []
        for plan in plans[SEGMENTS:]:
            clock.reset()
            bursts.append(await drive("127.0.0.1", server.port, plan, connections,
                                      first_id=first_id))
            burst_slow.append(clock.factor())
            first_id += len(plan)
        stats.append((await control("127.0.0.1", server.port, "stats"))["stats"])
        rss = server.peak_rss_mb()
    finally:
        await server.stop()
    return {"setups": setups, "segments": segments, "fixed": merge_phases(segments),
            "slow": slow, "bursts": bursts, "sat": merge_phases(bursts),
            "burst_slow": burst_slow, "stats": stats, "rss": rss,
            "ready_at": server.ready_at}


def distinct_queries(plans, phases) -> dict:
    """key -> (kind code, point) of every answered request's query."""
    queries = {}
    for plan, phase in zip(plans, phases):
        ok = phase.ok_mask()
        for i in range(len(plan)):
            if ok[i]:
                queries.setdefault(plan.key(i), (int(plan.kinds[i]), plan.points[i]))
    return queries


def check_serve(plans, phases, references) -> list:
    """Compare every ok reply with brute force; the mismatches."""
    from loadgen import K, RADIUS
    from oracle import brute_answers

    queries = distinct_queries(plans, phases)
    answers, _ = brute_answers(references, queries, K, RADIUS, threads=os.cpu_count() or 1)
    wrong = []
    for plan, phase in zip(plans, phases):
        ok = phase.ok_mask()
        for i in range(len(plan)):
            if ok[i] and phase.replies[i]["result"] != answers[plan.key(i)]:
                wrong.append(f"request {phase.replies[i]['id']}: {plan.query(i)} -> "
                             f"{phase.replies[i]['result']} != {answers[plan.key(i)]}")
    return wrong


def serve_metrics(obs: dict, plans) -> tuple[dict, dict]:
    """End-to-end metrics (reference-host time) and the validity facts of one run.

    The facts carry the measured (unscaled) latency and throughput too.
    """
    import numpy as np
    from loadgen import KINDS, latency_summary

    import library

    measured, scaled, kinds = [], [], []
    for plan, phase, slow in zip(plans, obs["segments"], obs["slow"]):
        ok = phase.ok_mask()
        ms = (phase.received - phase.scheduled)[ok] * 1000.0
        measured.append(ms)
        scaled.append(ms / slow)
        kinds.append(plan.kinds[ok])
    measured, scaled, kinds = (np.concatenate(x) for x in (measured, scaled, kinds))
    summary, raw = latency_summary(scaled), latency_summary(measured)
    per_kind = [float(np.median(scaled[kinds == code])) for code in range(len(KINDS))
                if (kinds == code).any()]
    fixed = obs["fixed"]
    # Each burst's rate: answered requests / (last answer - burst start).
    rates = [burst.ok_mask().sum() / (np.nanmax(burst.received) - burst.start)
             for burst in obs["bursts"]]
    sat_qps = statistics.median(rates)
    offered = statistics.median(
        len(burst.replies) / max(burst.scheduled[-1] + burst.late[-1] - burst.start, 1e-9)
        for burst in obs["bursts"])
    sent = sum(len(plan) for plan in plans)
    answered = int(fixed.ok_mask().sum() + obs["sat"].ok_mask().sum())
    metrics = {
        "setup_s": statistics.median(obs["setups"]),
        "peak_rss_mb": obs["rss"],
        "p50_ms": summary["p50"],
        "sat_qps": statistics.median(r * f for r, f in zip(rates, obs["burst_slow"])),
        "ok_frac": answered / sent,
        "geo_ms": library.geomean(per_kind),
    }
    facts = {"samples": summary["count"], "tail_pct": summary["tail_pct"],
             "tail_ms": summary["tail"], "measured_p50_ms": raw["p50"],
             "measured_tail_ms": raw["tail"], "measured_sat_qps": sat_qps,
             "host_factor": statistics.fmean(obs["slow"]),
             "late_p99_ms": percentile(np.maximum(fixed.late, 0.0), 99) * 1000.0,
             "offered_qps": offered, "sent": sent, "failed": sent - answered}
    return metrics, facts


def invalid_reason(facts: dict) -> str | None:
    """Why a serving run measured something other than the workload, if it did."""
    if facts["late_p99_ms"] > MAX_LATE_P99_MS:
        return f"load generator fell behind: late p99 {facts['late_p99_ms']:.1f} ms"
    if not facts["measured_sat_qps"] < 0.9 * facts["offered_qps"]:
        return (f"overload phase did not overload: {facts['measured_sat_qps']:.0f} "
                f"answers/s at {facts['offered_qps']:.0f} offered")
    return None


def serve_plans(seed: int, seconds: float, references, spread: float):
    """The fixed-rate segments, then the bursts."""
    from loadgen import Traffic, make_plans

    segment = Traffic(RATE, seconds / SEGMENTS)
    return make_plans(seed, [segment] * SEGMENTS + [Traffic(None, 0.0, BURST)] * BURSTS,
                      references, spread)


def measure_serve(plans, references, spans: str | None = None):
    """``serve_once`` on fresh servers until a measurement is valid.

    At most ``ATTEMPTS`` measurements.  Returns ``(observations,
    metrics, facts, wrong answers of every attempt, why the last was
    invalid or None, discarded attempts)``.
    """
    wrong = []
    for attempt in range(ATTEMPTS):
        obs = asyncio.run(serve_once(plans, spans))
        metrics, facts = serve_metrics(obs, plans)
        wrong += check_serve(plans, obs["segments"] + obs["bursts"], references)
        invalid = invalid_reason(facts)
        if invalid is None:
            break
        print(f"invalid measurement {attempt + 1}: {invalid}", file=sys.stderr)
    return obs, metrics, facts, wrong, invalid, attempt


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    references, spread = reference_points()
    plans = serve_plans(seed, seconds, references, spread)
    obs, metrics, facts, wrong, invalid, discarded = measure_serve(plans, references)
    info = {"tail": f"p{facts['tail_pct']:.2f} of {facts['samples']} samples",
            "tail_ms": round(facts["tail_ms"], 3),
            "measured": {"p50_ms": round(facts["measured_p50_ms"], 3),
                         "tail_ms": round(facts["measured_tail_ms"], 3),
                         "sat_qps": round(facts["measured_sat_qps"], 1)},
            "host_factor": round(facts["host_factor"], 4),
            "late_p99_ms": round(facts["late_p99_ms"], 3),
            "offered_qps": round(facts["offered_qps"], 1),
            "checked": facts["sent"] - facts["failed"], "discarded": discarded}
    out = {"attempted": facts["sent"], "failed": facts["failed"], "wrong": wrong, "info": info,
           "invalid": invalid}
    if not trace or out["invalid"]:
        out["metrics"] = metrics
        return out
    spans_path = os.path.join(OUT, f"spans-{os.getpid()}.json")
    traced, traced_metrics, traced_facts, traced_wrong, out["invalid"], _ = measure_serve(
        plans, references, spans_path)
    wrong += traced_wrong
    with open(spans_path) as handle:
        spans = json.load(handle)
    os.remove(spans_path)
    layers = {name: 0.0 for name, _ in per_layer_names()}
    layers.update(serve_layers(spans, traced, traced_facts))
    # The baseline answers the fixed phase's distinct queries on one thread.
    from loadgen import K, RADIUS
    from oracle import brute_answers

    baseline = distinct_queries(plans[:SEGMENTS], traced["segments"])
    brute_s = brute_answers(references, baseline, K, RADIUS)[1]
    layers["baseline.brute_qps"] = len(baseline) / brute_s
    layers["loadgen.tail_ms"] = facts["tail_ms"]
    layers["trace.overhead_frac"] = metrics["sat_qps"] / traced_metrics["sat_qps"] - 1.0
    out["metrics"] = layers
    return out


def serve_layers(spans: list, obs: dict, facts: dict) -> dict:
    """Per-layer serving metrics of a traced run.

    Waiting, tick times, busy share, protocol costs and reconciliation
    come from the fixed-rate phase (they move the latency metrics);
    admission counters, cache hit rates and per-query execution costs
    come from the overload bursts (they move ``sat_qps``).
    """
    import numpy as np
    from tracer import END, EXTRA, NAME, PARENT, START, self_times, union_length

    selfs = self_times(spans)

    def window(phase):
        lo, hi = phase.start, float(np.nanmax(phase.received))
        inside = [i for i, s in enumerate(spans) if s[END] is not None and lo <= s[START] <= hi]
        return inside, lo, hi

    def duration(i):
        return spans[i][END] - spans[i][START]

    def named(inside, name):
        return [i for i in inside if spans[i][NAME] == name]

    def under(i, ticks):
        while spans[i][PARENT] is not None:
            i = spans[i][PARENT]
            if i in ticks:
                return True
        return False

    def delta(group, keys):
        before, after = obs["stats"][0 if group == "fixed" else 1], obs["stats"][
            1 if group == "fixed" else 2]
        return {key: after["batcher"][key] - before["batcher"][key] for key in keys} | {
            key: after["verdict_cache"][key] - before["verdict_cache"][key]
            for key in ("hits", "misses")
        }

    # -- fixed-rate phase: latency side (busy share over the segments'
    # own windows, not the calibration pauses between them)
    fixed = obs["fixed"]
    inside, _, _ = window(fixed)
    active_s = sum(float(np.nanmax(p.received)) - p.start for p in obs["segments"])
    ticks = named(inside, "service.tick")
    waits = []
    for i in named(inside, "batcher.submit"):
        tick = (spans[i][EXTRA] or {}).get("tick")
        if tick is not None:
            waits.append((duration(i) - duration(tick)) * 1000.0)
    d = delta("fixed", ("ticks", "timer_flushes"))
    layers = {
        "batcher.timer_flush_frac": d["timer_flushes"] / max(1, d["ticks"]),
        "batcher.wait_ms.p50": percentile(waits, 50),
        "batcher.wait_ms.p99": percentile(waits, 99),
        "service.tick_ms.p50": percentile([duration(i) * 1000.0 for i in ticks], 50),
        "service.tick_ms.p99": percentile([duration(i) * 1000.0 for i in ticks], 99),
        "service.busy_frac": union_length(
            (spans[i][START], spans[i][END]) for i in ticks) / active_s,
        "protocol.decode_us.mean": 1e6 * statistics.fmean(
            [duration(i) for i in named(inside, "protocol.decode")] or [0.0]),
        "protocol.encode_us.mean": 1e6 * statistics.fmean(
            [duration(i) for i in named(inside, "protocol.encode")] or [0.0]),
        "loadgen.late_p99_ms": facts["late_p99_ms"],
    }
    # Reconcile: generator lateness plus the server-side request spans
    # against the client-observed latency of the same requests.
    ok = fixed.ok_mask()
    latency_s = float(np.sum((fixed.received - fixed.scheduled)[ok]))
    accounted = float(np.sum(np.maximum(fixed.late, 0.0)[ok])) + sum(
        duration(i) for i in inside
        if spans[i][NAME] in ("protocol.decode", "batcher.submit", "protocol.encode"))
    layers["trace.unaccounted_frac"] = 1.0 - accounted / latency_s
    if accounted > 1.02 * latency_s:
        print(f"warning: layer sums ({accounted:.3f} s) exceed end-to-end latency "
              f"({latency_s:.3f} s)", file=sys.stderr)

    # -- overload bursts: throughput side
    inside, _, _ = window(obs["sat"])
    ticks = set(named(inside, "service.tick"))
    executed = {"nn": 0, "knn": 0, "count": 0}
    for i in ticks:
        for kind, n in spans[i][EXTRA]["kinds"].items():
            executed[kind] += n
    total = max(1, sum(executed.values()))

    def per_query_ms(name, kind=None):
        return 1000.0 * sum(
            duration(i) for i in named(inside, name)
            if under(i, ticks)
            and (kind is None or spans[i][EXTRA]["spec"] == f"SERVE-{kind.upper()}")
        ) / (total if kind is None else max(1, executed[kind]))

    d = delta("sat", ("ticks", "queries", "executed", "dedup_folded"))
    layers |= {
        "batcher.dedup_hit_rate": d["dedup_folded"] / max(1, d["queries"]),
        "batcher.tick_admitted_mean": d["queries"] / max(1, d["ticks"]),
        "batcher.tick_distinct_mean": d["executed"] / max(1, d["ticks"]),
        "rules.verdict_cache_hit_rate": d["hits"] / max(1, d["hits"] + d["misses"]),
        "service.self_ms.per_query": 1000.0 * sum(selfs[i] for i in ticks) / total,
        "service.query_tree_ms.per_query": per_query_ms("service.build_kdtree"),
        "shards.gather_ms.per_query": per_query_ms("shards.gather"),
    }
    for kind in executed:
        layers[f"core.traverse_ms.per_query.{kind}"] = per_query_ms("core.run", kind)

    # -- start-up: analysis the server runs once before its first ping
    setup = [s for s in spans if s[END] is not None and s[START] < obs["ready_at"]]
    for metric, name in (("backend_select.choose_ms", "backend_select.choose"),
                         ("soa.pack_ms", "soa.pack")):
        layers[metric] = 1000.0 * sum(s[END] - s[START] for s in setup if s[NAME] == name)
    return layers


# ---------------------------------------------------------------------------
# library workloads


def library_times(run, raw: bool = False) -> dict:
    """The timing metrics of a library workload: an operation is one pass."""
    import library

    passes = run.passes(raw)
    return {
        "p50_ms": 1000.0 * statistics.median(passes),
        "sat_qps": len(passes) / sum(passes),
        "geo_ms": 1000.0 * library.geomean(run.medians(raw).values()),
    }


def library_metrics(run, setup_s: float, rss: float) -> dict:
    """End-to-end metrics of a library workload, in reference-host time."""
    return {"setup_s": setup_s, "peak_rss_mb": rss, "ok_frac": 1.0, **library_times(run)}


def run_batch(seed: int, seconds: float, trace: bool) -> dict:
    import library

    cases, setup_s, choices = library.setup_batch(seed)
    run = library.run_batch(cases, seconds)
    rss = library.peak_rss_mb()
    wrong, brute_s = library.check(run, cases)
    attempted = sum(len(v) for v in run.seconds.values())
    medians = run.medians()
    info = {"backends": {f"{b}/{s}": f"{c.backend}/{c.order}" for (b, s), c in choices.items()},
            "original_s": library.geomean(v for (b, s), v in medians.items() if s == "original"),
            "twist_s": library.geomean(v for (b, s), v in medians.items() if s == "twist"),
            "measured": library_times(run, raw=True)}
    out = {"attempted": attempted, "failed": 0, "wrong": wrong, "info": info}
    if not trace:
        out["metrics"] = library_metrics(run, setup_s, rss)
        return out
    from tracer import END, NAME, PARENT, START, Tracer

    tracer = Tracer()
    tracer.install_core()
    try:
        mark = len(tracer.spans)
        cases, _, _ = library.setup_batch(seed, repeats=1)
        setup_spans = tracer.spans[mark:]
        mark = len(tracer.spans)
        traced = library.run_batch(cases, seconds)
        loop_spans = tracer.spans[mark:]
    finally:
        tracer.uninstall()
    wrong += library.check(traced, cases)[0]
    layers = {name: 0.0 for name, _ in per_layer_names()}
    for (b, s), seconds_per_run in traced.medians().items():
        layers[f"exec.{b}.{s}_s"] = seconds_per_run
    for b in KERNEL_SHARE:
        for s in library.SCHEDULES:
            layers[f"kernels.share.{b}.{s}"] = library.kernel_share(cases[b], s)
    layers["backend_select.choose_ms"] = 1000.0 * sum(
        s[END] - s[START] for s in setup_spans if s[NAME] == "backend_select.choose")
    layers["soa.pack_ms"] = 1000.0 * sum(
        s[END] - s[START] for s in setup_spans if s[NAME] == "soa.pack")
    for b in ("PC", "NN", "KNN"):
        layers[f"baseline.brute_s.{b}"] = brute_s[b]
    top = sum(s[END] - s[START] for s in loop_spans if s[NAME] == "core.run" and s[PARENT] is None)
    layers["trace.unaccounted_frac"] = 1.0 - top / traced.wall_s
    untraced_geo = library.geomean(run.medians().values())
    layers["trace.overhead_frac"] = library.geomean(traced.medians().values()) / untraced_geo - 1.0
    out["metrics"] = layers
    return out


def run_simulate(seed: int, seconds: float, trace: bool) -> dict:
    import library

    cases, setup_s = library.setup_simulate(seed)
    run = library.run_simulate(cases, seconds)
    rss = library.peak_rss_mb()
    wrong, _ = library.check(run, cases)
    attempted = sum(len(v) for v in run.seconds.values())
    medians = run.medians()
    info = {"sim_s": sum(medians.values()), "measured": library_times(run, raw=True)}
    out = {"attempted": attempted, "failed": 0, "wrong": wrong, "info": info}
    if not trace:
        out["metrics"] = library_metrics(run, setup_s, rss)
        return out
    from tracer import END, NAME, PARENT, START, Tracer

    ops = library.run_simulate(cases, 0.0, ops_only=True)
    tracer = Tracer()
    tracer.install_core()
    try:
        traced = library.run_simulate(cases, seconds)
    finally:
        tracer.uninstall()
    wrong += library.check(traced, cases)[0]
    layers = {name: 0.0 for name, _ in per_layer_names()}
    for b in cases:
        orig, twist = run.extra[(b, "original")], run.extra[(b, "twist")]
        layers[f"sim.{b}.speedup"] = orig["cycles"] / twist["cycles"]
        layers[f"sim.{b}.instr_overhead"] = twist["instructions"] / orig["instructions"]
        for s, note in (("original", orig), ("twist", twist)):
            layers[f"sim.{b}.{s}.l2_misses"] = note["l2_misses"]
            layers[f"sim.{b}.{s}.l3_misses"] = note["l3_misses"]
    full = sum(run.medians(raw=True).values())
    probe = full - sum(ops.medians(raw=True).values())
    layers["memory.sim_share"] = probe / full
    layers["memory.accesses_per_s"] = sum(n["accesses"] for n in run.extra.values()) / probe
    spans = tracer.spans
    top = sum(s[END] - s[START] for s in spans if s[NAME] == "core.run" and s[PARENT] is None)
    layers["trace.unaccounted_frac"] = 1.0 - top / traced.wall_s
    layers["trace.overhead_frac"] = sum(traced.medians().values()) / sum(medians.values()) - 1.0
    out["metrics"] = layers
    return out


# ---------------------------------------------------------------------------


#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that ``stop_children`` can reap them.

    A process started by a child (a server's resource tracker, say)
    would otherwise be re-parented to init when that child exits and
    keep running after the benchmark.  Linux only; elsewhere a no-op.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """The processes whose parent is this one, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name (field 2) may hold spaces; the parent follows the state.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 20.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Shared-memory segments (the ``parallel`` backend) start the
    multiprocessing resource tracker, which otherwise outlives this
    process; it is stopped first.  Anything left gets SIGTERM, and
    SIGKILL after ``timeout`` seconds, and is reaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + timeout
    while pids := child_pids():
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in pids:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, sig)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.05)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    # On SIGTERM unwind normally, so every child is shut down and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    become_subreaper()
    trace = bool(args.trace)
    try:
        if args.workload == "serve-hot":
            out = run_serve(args.seed, args.seconds, trace)
        elif args.workload == "batch":
            out = run_batch(args.seed, args.seconds, trace)
        else:
            out = run_simulate(args.seed, args.seconds, trace)
    finally:
        stop_children()
    for line in out["wrong"][:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    if out.get("invalid"):
        print(f"invalid run: {out['invalid']}", file=sys.stderr)
        return 1
    units = dict(per_layer_names()) if trace else UNITS
    metrics = {name: {"value": out["metrics"][name], "unit": units[name]} for name in units}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **out["info"]}, default=str))
    correct = not out["wrong"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
