"""A set-associative LRU cache simulator.

Operates on *line addresses* (integers from
:class:`repro.memory.layout.AddressMap`): one :meth:`access` per touched
line, returning hit or miss.  Kept deliberately simple — LRU
replacement, no write policies, no coherence — because the quantity the
paper's transformation changes is purely the temporal access order, and
hit/miss under LRU is what reuse distance predicts (footnote 2: "roughly,
reuse distances smaller than the cache size are likely to be cache hits
... modulo associativity effects"; the set-associative simulator models
exactly those associativity effects).

Per-set recency is an ``OrderedDict`` (move-to-end on hit, popitem on
eviction), giving ``O(1)`` amortized accesses.

:meth:`SetAssociativeCache.access_all` is the streaming form: one tight
loop over an ordered batch of lines that returns the batch's misses, in
order.  Because a miss allocates and nothing else (no write-back, no
back-invalidation from an outer level) ever changes a set, the misses it
returns are exactly the stream the next level down sees; that is what
lets :class:`~repro.memory.hierarchy.CacheHierarchy` simulate one level
at a time and still match the per-line walk bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MemorySimError

Address = int


@dataclass
class CacheStats:
    """Hit/miss counts for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Local miss rate: misses / accesses at this cache (0.0 if idle).

        This is the metric of Figure 8(b) — e.g. the L3 miss rate is the
        fraction of L3 *accesses* (i.e. L2 misses) that miss in L3.
        """
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """1 - miss rate (0.0 if idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """An ``num_sets x ways`` LRU cache over line addresses.

    ``capacity_lines = num_sets * ways``.  A fully associative cache is
    ``num_sets=1``; a direct-mapped cache is ``ways=1``.
    """

    def __init__(self, num_sets: int, ways: int, name: str = "cache") -> None:
        if num_sets < 1 or ways < 1:
            raise MemorySimError(
                f"{name}: num_sets and ways must be >= 1 "
                f"(got {num_sets} and {ways})"
            )
        self.num_sets = num_sets
        self.ways = ways
        self.name = name
        self.stats = CacheStats()
        self._sets: list[OrderedDict[Address, None]] = [
            OrderedDict() for _ in range(num_sets)
        ]

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.num_sets * self.ways

    def access(self, line: Address) -> bool:
        """Touch one line; return ``True`` on hit, ``False`` on miss.

        A miss inserts the line (allocate-on-miss), evicting the LRU
        line of the set if the set is full.
        """
        cache_set = self._sets[line % self.num_sets]
        self.stats.accesses += 1
        if line in cache_set:
            cache_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.ways:
            cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[line] = None
        return False

    def access_all(self, lines: Sequence[Address]) -> list[Address]:
        """Touch every line in order; return the lines that missed, in order.

        Equivalent to calling :meth:`access` on each line (same final set
        contents and statistics), with the statistics updated once.
        """
        sets = self._sets
        num_sets = self.num_sets
        ways = self.ways
        move_to_end = OrderedDict.move_to_end
        popitem = OrderedDict.popitem
        misses: list[Address] = []
        missed = misses.append
        evictions = 0
        for line in lines:
            cache_set = sets[line % num_sets]
            if line in cache_set:
                move_to_end(cache_set, line)
            else:
                missed(line)
                if len(cache_set) >= ways:
                    popitem(cache_set, False)
                    evictions += 1
                cache_set[line] = None
        stats = self.stats
        stats.accesses += len(lines)
        stats.hits += len(lines) - len(misses)
        stats.misses += len(misses)
        stats.evictions += evictions
        return misses

    def contains(self, line: Address) -> bool:
        """Non-mutating lookup (does not update recency or stats)."""
        return line in self._sets[line % self.num_sets]

    def flush(self) -> None:
        """Empty the cache, keeping accumulated statistics."""
        for cache_set in self._sets:
            cache_set.clear()

    def reset_stats(self) -> None:
        """Zero the statistics, keeping contents."""
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.name!r}, sets={self.num_sets}, "
            f"ways={self.ways}, lines={self.capacity_lines})"
        )


def fully_associative(capacity_lines: int, name: str = "cache") -> SetAssociativeCache:
    """A fully associative LRU cache holding ``capacity_lines`` lines.

    Under full associativity, "hit iff reuse distance < capacity" holds
    exactly; the unit tests use this to cross-check the cache simulator
    against the reuse-distance analyzer.
    """
    return SetAssociativeCache(num_sets=1, ways=capacity_lines, name=name)
