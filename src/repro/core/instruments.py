"""Instrumentation probes attached to schedule executions.

Every executor accepts an :class:`Instrument` and reports three kinds
of events through it:

* ``op(kind)`` — one bookkeeping operation: a recursive call, a
  truncation check, a flag/counter manipulation, a size comparison.
  These are the raw material of the instruction-overhead results
  (Figure 8a and Figure 10a).
* ``access(tree, node)`` — one logical data touch.  ``tree`` is the
  *absolute* tree identity (:data:`~repro.core.spec.OUTER_TREE` or
  :data:`~repro.core.spec.INNER_TREE`), independent of which recursion
  is currently traversing that tree — exactly the Section 2.1
  terminology.  Accesses feed the reuse-distance and cache probes.
* ``work(o, i)`` — one executed iteration (one point of the iteration
  space).

The concrete instruments below cover everything the experiments need;
:class:`MultiInstrument` composes several probes into one pass so a
benchmark execution is instrumented once, not re-run per metric.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.memory.hierarchy import CacheHierarchy, LineFeed
from repro.memory.layout import AddressMap
from repro.memory.reuse import ReuseDistanceAnalyzer
from repro.spaces.node import IndexNode

#: Operation kinds emitted by the executors.  Kept as a tuple so tests
#: can assert executors never emit an unknown kind.
OP_KINDS = (
    "call",
    "visit",
    "trunc_check",
    "flag_check",
    "flag_set",
    "flag_unset",
    "size_compare",
    "twist",
    "counter_check",
    "counter_set",
)


class Instrument:
    """Base probe: every hook is a no-op.

    Subclass and override only what you need; executors call every hook
    unconditionally.
    """

    def op(self, kind: str) -> None:
        """One bookkeeping operation of the given kind."""

    def access(self, tree: str, node: IndexNode) -> None:
        """One logical data touch on ``node`` of the identified tree."""

    def work(self, o: IndexNode, i: IndexNode) -> None:
        """One executed iteration at point ``(o, i)``."""


#: Shared do-nothing instrument for uninstrumented runs.
NULL_INSTRUMENT = Instrument()


class MultiInstrument(Instrument):
    """Broadcasts every event to a sequence of child instruments.

    Each hook is bound once, at construction, to the children that
    override it, in child order; a hook only one child overrides is
    that child's method itself, so no event pays for a no-op.
    """

    def __init__(self, children: Sequence[Instrument]) -> None:
        self.children = list(children)
        for hook in _HOOKS:
            setattr(self, hook, _fan_out(hook, self.children))


def _broadcast_one(methods: list[Callable[..., None]]) -> Callable[[Any], None]:
    def broadcast(first: Any) -> None:
        for method in methods:
            method(first)

    return broadcast


def _broadcast_two(
    methods: list[Callable[..., None]],
) -> Callable[[Any, Any], None]:
    def broadcast(first: Any, second: Any) -> None:
        for method in methods:
            method(first, second)

    return broadcast


#: Each hook with the broadcaster matching its arity (no ``*args``
#: packing on the per-event path).
_HOOKS = {"op": _broadcast_one, "access": _broadcast_two, "work": _broadcast_two}


def _fan_out(hook: str, children: Sequence[Instrument]) -> Callable[..., None]:
    """One callable delivering ``hook`` events to the children that use it."""
    no_op = getattr(Instrument, hook)
    methods = [
        method
        for method in (getattr(child, hook) for child in children)
        if getattr(method, "__func__", None) is not no_op
    ]
    if not methods:
        return getattr(NULL_INSTRUMENT, hook)
    if len(methods) == 1:
        return methods[0]
    return _HOOKS[hook](methods)


class OpCounter(Instrument):
    """Counts bookkeeping operations and work points.

    ``counts`` maps op kind to count; ``work_points`` is the number of
    executed iterations; ``accesses`` the number of logical touches.
    """

    def __init__(self) -> None:
        # A plain dict: ``Counter`` defines ``__delitem__`` in Python,
        # which routes every item store through a slow slot wrapper,
        # and ``op`` is the most frequent event of an instrumented run.
        self._counts: dict[str, int] = {}
        self.work_points = 0
        self.accesses = 0

    @property
    def counts(self) -> Counter[str]:
        """Op kind -> count, in first-seen order (a snapshot)."""
        return Counter(self._counts)

    def op(self, kind: str) -> None:
        try:
            self._counts[kind] += 1
        except KeyError:
            self._counts[kind] = 1

    def access(self, tree: str, node: IndexNode) -> None:
        self.accesses += 1

    def work(self, o: IndexNode, i: IndexNode) -> None:
        self.work_points += 1


class WorkRecorder(Instrument):
    """Records the schedule as a list of ``(outer_label, inner_label)``.

    The label of a node defaults to its pre-order ``number`` when it has
    no ``label`` attribute (spatial-tree nodes, for instance).
    """

    def __init__(self) -> None:
        self.points: list[tuple[Hashable, Hashable]] = []

    def work(self, o: IndexNode, i: IndexNode) -> None:
        self.points.append(
            (getattr(o, "label", o.number), getattr(i, "label", i.number))
        )


class AccessTraceRecorder(Instrument):
    """Records the logical access trace as ``(tree, node_number)`` keys.

    This is the trace format consumed directly by
    :class:`~repro.memory.reuse.ReuseDistanceAnalyzer` for node-granular
    reuse studies (Figure 5 counts "tree nodes that are accessed").
    """

    def __init__(self) -> None:
        self.trace: list[tuple[str, int]] = []

    def access(self, tree: str, node: IndexNode) -> None:
        self.trace.append((tree, node.number))


class ReuseDistanceProbe(Instrument):
    """Streams node-granularity accesses into a reuse-distance analyzer.

    Unlike :class:`AccessTraceRecorder` + offline analysis, this keeps
    only the histogram, so it scales to multi-million-access runs.
    """

    def __init__(self, analyzer: Optional[ReuseDistanceAnalyzer] = None) -> None:
        self.analyzer = analyzer or ReuseDistanceAnalyzer()

    def access(self, tree: str, node: IndexNode) -> None:
        self.analyzer.access((tree, node.number))


class CacheProbe(Instrument):
    """Feeds accesses through an address map into a cache hierarchy.

    Each logical node touch expands to the node's registered cache
    lines (one line for plain tree nodes; several for nodes that own
    point data or vector blocks — see :mod:`repro.memory.layout`).
    Per-level hit counts are tallied for the cost model.

    Lines are buffered in a bounded :class:`~repro.memory.hierarchy.LineFeed`
    and simulated in level-streamed batches.  Every counter below, and
    every read of the hierarchy itself, drains the buffer first, so
    reads always see the whole stream so far.  An unregistered node
    still raises :class:`~repro.errors.MemorySimError` at its access.
    """

    def __init__(self, address_map: AddressMap, hierarchy: CacheHierarchy) -> None:
        self.address_map = address_map
        self.hierarchy = hierarchy
        self._feed = LineFeed(hierarchy)
        self._lines_of = address_map.lines_of
        self._extend = self._feed.extend

    def access(self, tree: str, node: IndexNode) -> None:
        self._extend(self._lines_of((tree, node.number)))

    @property
    def level_hits(self) -> list[int]:
        """Hits per level index, plus one slot for memory at the end."""
        return self._feed.served

    @property
    def accesses(self) -> int:
        """Line accesses fed to the hierarchy."""
        return sum(self._feed.served)

    @property
    def cache_level_hits(self) -> list[int]:
        """Hit counts per cache level (excluding the memory slot)."""
        return self.level_hits[:-1]

    @property
    def memory_accesses(self) -> int:
        """Accesses that missed in every level."""
        return self.level_hits[-1]


class WorkCallback(Instrument):
    """Adapts a plain callable into a work-event probe.

    Handy in tests: ``WorkCallback(lambda o, i: pairs.append(...))``.
    """

    def __init__(self, callback: Callable[[IndexNode, IndexNode], Any]) -> None:
        self.callback = callback

    def work(self, o: IndexNode, i: IndexNode) -> None:
        self.callback(o, i)


def combine(*instruments: Optional[Instrument]) -> Instrument:
    """Compose instruments, dropping ``None`` entries.

    Returns :data:`NULL_INSTRUMENT` when nothing is left, a bare
    instrument when exactly one remains, and a
    :class:`MultiInstrument` otherwise.
    """
    remaining = [probe for probe in instruments if probe is not None]
    if not remaining:
        return NULL_INSTRUMENT
    if len(remaining) == 1:
        return remaining[0]
    return MultiInstrument(remaining)
