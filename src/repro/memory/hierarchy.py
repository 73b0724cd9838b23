"""Multi-level cache hierarchies: the simulated evaluation machine.

The paper's evaluation platform is a Xeon with 32 KB L1 / 256 KB L2 /
20 MB shared L3 (Section 6.1).  This module composes
:class:`~repro.memory.cache.SetAssociativeCache` levels into a
hierarchy: an access probes L1; on miss it proceeds to L2, then L3,
then memory.  Each level keeps its own local hit/miss statistics, which
is exactly what the paper's performance-counter figures report.

Long traces take the level-streamed path: probes buffer lines in a
bounded :class:`LineFeed` and :meth:`CacheHierarchy.access_all`
simulates each buffered batch one level at a time, L1's ordered misses
becoming L2's input and so on.  With allocate-on-miss fills and no
back-invalidation that is bit-identical to walking each line through
every level, and much cheaper in Python.

Because recursion twisting is *parameterless* — it tiles for every
cache level at once (Section 3.2) — reproducing its signature requires
a hierarchy, not a single cache: the claim "miss rates are improved
dramatically in *both* levels of cache" (Figure 8b) is only observable
with at least L2 and L3 modeled.

:func:`scaled_hierarchy` is the default machine, the paper's Xeon with
every level shrunk by the same factor as our scaled-down workloads (see
DESIGN.md Section 2 for the substitution argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import MemorySimError
from repro.memory.cache import Address, CacheStats, SetAssociativeCache


@dataclass
class LevelSpec:
    """Configuration of one cache level."""

    name: str
    capacity_lines: int
    ways: int = 8

    def build(self) -> SetAssociativeCache:
        """Instantiate the cache for this level."""
        if self.capacity_lines % self.ways != 0:
            raise MemorySimError(
                f"{self.name}: capacity_lines ({self.capacity_lines}) must "
                f"be a multiple of ways ({self.ways})"
            )
        return SetAssociativeCache(
            num_sets=self.capacity_lines // self.ways,
            ways=self.ways,
            name=self.name,
        )


#: Lines a :class:`LineFeed` buffers before streaming them into its
#: hierarchy.  A constant bound keeps a feed's memory flat however long
#: the trace; large enough that the per-level loop dominates the drain.
FEED_BUFFER_LINES = 8192


class CacheHierarchy:
    """An ordered sequence of caches backed by memory.

    :meth:`access` returns the index of the level that hit (0 for the
    first level) or ``len(levels)`` when the access went all the way to
    memory.  Misses allocate the line into every level probed on the
    way down (a simple inclusive fill policy).

    :meth:`access_all` is the fast path: it simulates an ordered batch
    one level at a time, each level consuming the previous level's
    ordered miss stream.  That is exact because fills are
    allocate-on-miss with no back-invalidation: level ``k + 1`` only
    ever sees level ``k``'s misses, in order, so its state is a function
    of that stream alone (the paper's footnote 2 view of hit/miss as a
    function of each cache's reuse stream).

    At most one :class:`LineFeed` at a time holds buffered lines for a
    hierarchy.  Every read or change of cache state (:meth:`access`,
    :meth:`access_all`, :meth:`stats`, :meth:`stats_by_name`,
    :attr:`memory_accesses`, :attr:`levels`, :meth:`flush`,
    :meth:`reset_stats`) drains that feed first, and a second feed
    drains the first before it buffers, so the simulator always sees
    one ordered stream and no reader sees stale state.
    """

    def __init__(self, levels: Sequence[SetAssociativeCache]) -> None:
        if not levels:
            raise MemorySimError("a hierarchy needs at least one cache level")
        self._levels = list(levels)
        self._memory_accesses = 0
        self._feed: Optional[LineFeed] = None

    def _settle(self) -> None:
        """Drain the feed holding buffered lines, if any."""
        feed = self._feed
        if feed is not None:
            self._feed = None
            feed.drain()

    def _queue(self, feed: LineFeed) -> None:
        """Make ``feed`` the one whose buffered lines precede any access."""
        if self._feed is not feed:
            self._settle()
            self._feed = feed

    @property
    def levels(self) -> list[SetAssociativeCache]:
        """The cache levels, L1 first."""
        self._settle()
        return self._levels

    @property
    def memory_accesses(self) -> int:
        """Number of accesses that reached memory (missed everywhere)."""
        self._settle()
        return self._memory_accesses

    @property
    def memory_level(self) -> int:
        """The level index returned for accesses that reach memory."""
        return len(self._levels)

    def access(self, line: Address) -> int:
        """Access one line; return the hit level index (see class doc)."""
        self._settle()
        for index, level in enumerate(self._levels):
            if level.access(line):
                return index
        self._memory_accesses += 1
        return len(self._levels)

    def access_all(self, lines: Iterable[Address]) -> list[int]:
        """Access an ordered batch of lines, one level at a time.

        Returns how many of the lines each level served, memory last
        (``len(levels) + 1`` counts).  Equivalent to calling
        :meth:`access` on each line in order.
        """
        self._settle()
        stream = list(lines)
        served = []
        for level in self._levels:
            misses = level.access_all(stream)
            served.append(len(stream) - len(misses))
            stream = misses
        self._memory_accesses += len(stream)
        served.append(len(stream))
        return served

    def stats(self) -> list[CacheStats]:
        """Per-level statistics, L1 first."""
        self._settle()
        return [level.stats for level in self._levels]

    def stats_by_name(self) -> dict[str, CacheStats]:
        """Per-level statistics keyed by level name (``"L1"``...)."""
        self._settle()
        return {level.name: level.stats for level in self._levels}

    def flush(self) -> None:
        """Empty every level (keeps statistics)."""
        self._settle()
        for level in self._levels:
            level.flush()

    def reset_stats(self) -> None:
        """Zero every level's statistics and the memory counter."""
        self._settle()
        for level in self._levels:
            level.reset_stats()
        self._memory_accesses = 0


class LineFeed:
    """A bounded, ordered buffer of line accesses bound for one hierarchy.

    Probes hand it each touch's lines with :meth:`extend`.  The lines
    stream into :meth:`CacheHierarchy.access_all` once
    :data:`FEED_BUFFER_LINES` are buffered, and earlier whenever the
    hierarchy is read or changed (see :class:`CacheHierarchy`).
    :attr:`served` counts this feed's own lines per serving level.
    """

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self._pending: list[Address] = []
        self._served = [0] * (hierarchy.memory_level + 1)

    def extend(self, lines: Iterable[Address]) -> None:
        """Append one touch's lines, in access order."""
        pending = self._pending
        if not pending:
            self.hierarchy._queue(self)
        pending += lines
        if len(pending) >= FEED_BUFFER_LINES:
            self.drain()

    def drain(self) -> None:
        """Stream the buffered lines into the hierarchy."""
        lines = self._pending
        if lines:
            self._pending = []
            served = self._served
            for index, count in enumerate(self.hierarchy.access_all(lines)):
                served[index] += count

    @property
    def served(self) -> list[int]:
        """Lines served per level index, memory last (drains first)."""
        self.drain()
        return self._served


def xeon_like_hierarchy(line_bytes: int = 64) -> CacheHierarchy:
    """The paper's evaluation machine at full size.

    32 KB L1 (8-way), 256 KB L2 (8-way), 20 MB L3 (20-way), 64-byte
    lines — i.e. 512 / 4096 / 327680 lines.  Usable, but the scaled
    machine below is what the benchmarks run on (Python traces at
    full-Xeon working-set sizes would take days; see DESIGN.md).
    """
    return CacheHierarchy(
        [
            LevelSpec("L1", 32 * 1024 // line_bytes, ways=8).build(),
            LevelSpec("L2", 256 * 1024 // line_bytes, ways=8).build(),
            LevelSpec("L3", 20 * 1024 * 1024 // line_bytes, ways=20).build(),
        ]
    )


def scaled_hierarchy() -> CacheHierarchy:
    """The default simulated machine for all experiments.

    The Xeon's L1 : L2 : L3 line-capacity ratio is 1 : 8 : 640; we keep
    the same ordering of scales at benchmark-friendly sizes:
    L1 = 32 lines, L2 = 256 lines, L3 = 4096 lines, all 8-way.  With
    one ~64-byte tree node per line, an 8K-node tree exceeds the
    simulated L3 the way the paper's 800K-node trees exceed 20 MB.
    """
    return CacheHierarchy(
        [
            LevelSpec("L1", 32, ways=8).build(),
            LevelSpec("L2", 256, ways=8).build(),
            LevelSpec("L3", 4096, ways=8).build(),
        ]
    )


def tiny_hierarchy() -> CacheHierarchy:
    """A miniature machine (L1=4, L2=16, L3=64 lines) for unit tests."""
    return CacheHierarchy(
        [
            LevelSpec("L1", 4, ways=2).build(),
            LevelSpec("L2", 16, ways=4).build(),
            LevelSpec("L3", 64, ways=8).build(),
        ]
    )
