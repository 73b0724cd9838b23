"""Open-loop load for the query server: seeded plan, asyncio client, stats.

A *plan* is everything the server will be asked, fixed before the
first byte is sent: Poisson arrival offsets, the query kind of each
request, and the coordinates it asks about.  It is a pure function of
the workload seed, so two runs with one seed send identical traffic.

The client is open-loop: request ``i`` is written at its scheduled
time whether or not earlier requests were answered, and its latency is
timed from that *scheduled* time, so a stall is charged to every
request it delays.  How late the generator itself ran is recorded per
request; a run where the generator fell behind is invalid, not slow.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass

import numpy as np

#: Query kinds, and the share of requests of each.
KINDS = ("nn", "knn", "count")
MIX = (0.4, 0.2, 0.4)
#: Parameters of knn and count queries.
K = 5
RADIUS = 0.3
#: The share of requests that re-ask one of ``HOT_SET`` hot points.
HOT_FRACTION = 0.7
HOT_SET = 64
#: Seconds to wait for the last replies of a phase.
DRAIN_S = 30.0


@dataclass(frozen=True)
class Traffic:
    """One offered-load phase: a Poisson rate for ``seconds``.

    ``rate=None`` is a burst: ``burst`` requests all due at once, an
    open-loop rate above any capacity.
    """

    rate: float | None
    seconds: float
    burst: int = 0


@dataclass
class Plan:
    """One phase's requests: offsets (s), kind codes, query points."""

    offsets: np.ndarray
    kinds: np.ndarray
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    def query(self, i: int) -> dict:
        """The wire form of request ``i``'s query."""
        payload = {"kind": KINDS[self.kinds[i]], "point": self.points[i].tolist()}
        if self.kinds[i] == 1:
            payload["k"] = K
        elif self.kinds[i] == 2:
            payload["radius"] = RADIUS
        return payload

    def key(self, i: int) -> tuple:
        """A hashable identity of request ``i``'s query (equal = same work)."""
        return (int(self.kinds[i]), tuple(self.points[i].tolist()))

    def lines(self, first_id: int = 0) -> list[bytes]:
        """JSON-lines request frames with ids ``first_id + i``."""
        return [
            json.dumps(
                {"id": first_id + i, "op": "query", "query": self.query(i)}
            ).encode()
            + b"\n"
            for i in range(len(self))
        ]


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets in ``[0, seconds)`` of a rate-``rate`` Poisson process."""
    expected = rate * seconds
    draws = int(expected + 10 * math.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=draws))
    while offsets[-1] < seconds:  # pragma: no cover - 10-sigma tail
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=draws))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < seconds]


def make_plans(seed: int, phases: list[Traffic], references: np.ndarray, spread: float) -> list[Plan]:
    """The seeded plans of consecutive phases sharing one hot set.

    A query point is a reference point displaced by Gaussian noise of
    the clusters' own ``spread``, so queries fall where the data is
    (whatever the seed) without repeating a reference point.  The first
    ``HOT_SET`` points of the pool are the hot points; every other
    request takes the next unused pool point, so no query point outside
    the hot set is asked twice in a run.
    """
    rng = np.random.default_rng(seed)
    shapes = []
    for traffic in phases:
        if traffic.rate is None:
            offsets = np.zeros(traffic.burst)
        else:
            offsets = poisson_offsets(rng, traffic.rate, traffic.seconds)
        n = len(offsets)
        kinds = rng.choice(len(KINDS), size=n, p=list(MIX))
        hot = rng.random(n) < HOT_FRACTION
        hot_pick = rng.integers(0, HOT_SET, size=n)
        shapes.append((offsets, kinds, hot, hot_pick))
    size = HOT_SET + sum(int((~hot).sum()) for _, _, hot, _ in shapes)
    anchors = references[rng.integers(0, len(references), size=size)]
    pool = anchors + rng.normal(0.0, spread, size=anchors.shape)
    plans = []
    cursor = HOT_SET
    for offsets, kinds, hot, hot_pick in shapes:
        rows = np.empty(len(offsets), dtype=np.int64)
        rows[hot] = hot_pick[hot]
        fresh = int((~hot).sum())
        rows[~hot] = np.arange(cursor, cursor + fresh)
        cursor += fresh
        plans.append(Plan(offsets, kinds, pool[rows]))
    return plans


def tail_percentile(samples: int, cap: float = 99.0, beyond: int = 10) -> float:
    """The highest percentile (at most ``cap``) with ``beyond`` samples above it."""
    if samples <= beyond:
        return 0.0
    return min(cap, 100.0 * (samples - beyond) / samples)


def latency_summary(latencies_ms: np.ndarray) -> dict:
    """Median and supported tail of a latency sample, with its count."""
    n = len(latencies_ms)
    pct = tail_percentile(n)
    return {
        "count": n,
        "p50": float(np.percentile(latencies_ms, 50)) if n else math.nan,
        "tail_pct": pct,
        "tail": float(np.percentile(latencies_ms, pct)) if n else math.nan,
    }


@dataclass
class PhaseResult:
    """What the client observed for one phase (times are monotonic s)."""

    start: float
    scheduled: np.ndarray
    late: np.ndarray
    received: np.ndarray
    replies: list

    def ok_mask(self) -> np.ndarray:
        return np.array(
            [reply is not None and reply.get("ok") is True for reply in self.replies],
            dtype=bool,
        )


def merge_phases(phases: list[PhaseResult]) -> PhaseResult:
    """Consecutive phases as one (its start is the first phase's)."""
    return PhaseResult(
        phases[0].start,
        np.concatenate([p.scheduled for p in phases]),
        np.concatenate([p.late for p in phases]),
        np.concatenate([p.received for p in phases]),
        [reply for p in phases for reply in p.replies],
    )


async def drive(
    host: str,
    port: int,
    plan: Plan,
    connections: int,
    first_id: int = 0,
) -> PhaseResult:
    """Send ``plan`` open-loop over ``connections`` sockets; collect replies."""
    lines = plan.lines(first_id)
    n = len(lines)
    received = np.full(n, np.nan)
    late = np.zeros(n)
    replies: list = [None] * n
    outstanding = n
    everything = asyncio.Event()
    if n == 0:
        everything.set()
    conns = [
        await asyncio.open_connection(host, port, limit=1 << 22)
        for _ in range(connections)
    ]

    async def read(reader: asyncio.StreamReader) -> None:
        nonlocal outstanding
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic()
            reply = json.loads(line)
            index = reply["id"] - first_id
            received[index] = now
            replies[index] = reply
            outstanding -= 1
            if outstanding == 0:
                everything.set()

    readers = [asyncio.create_task(read(reader)) for reader, _ in conns]
    start = time.monotonic() + 0.02
    scheduled = start + plan.offsets
    try:
        for i in range(n):
            delay = scheduled[i] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            elif i % 32 == 0:
                await asyncio.sleep(0)  # let the readers run when behind
            late[i] = time.monotonic() - scheduled[i]
            conns[i % connections][1].write(lines[i])
        try:
            await asyncio.wait_for(everything.wait(), DRAIN_S)
        except asyncio.TimeoutError:
            pass  # unanswered requests count as failed
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return PhaseResult(start, scheduled, late, received, replies)


async def control(host: str, port: int, op: str) -> dict:
    """One control request (``ping``/``stats``/``shutdown``) on its own socket."""
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
    try:
        writer.write(json.dumps({"id": 0, "op": op}).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
