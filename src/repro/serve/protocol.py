"""Queries, results, and their JSON wire encoding.

Three query kinds cover the dual-tree benchmarks the service answers:

* :class:`NNQuery` — nearest neighbor of one point;
* :class:`KNNQuery` — the k nearest neighbors, nearest first;
* :class:`CountQuery` — how many reference points lie within a radius
  (one query point's slice of the PC pair count).

Queries carry plain float tuples, never arrays: they are hashable (the
load generator dedups hot queries by value) and JSON-trivial.  The
wire format is one JSON object per query/result; floats survive the
round trip exactly (``json`` emits ``repr`` floats), so a decoded
result still bit-matches the serial oracle.

:func:`group_key` decides which queries may share one admitted batch:
kind plus the parameters the batch executes under (``k``, ``radius``).
Two KNN queries with different ``k`` build different result columns,
and two count queries with different radii prune differently, so they
never share a tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.errors import SpecError


@dataclass(frozen=True)
class NNQuery:
    """Nearest reference neighbor of ``point``."""

    point: tuple[float, ...]


@dataclass(frozen=True)
class KNNQuery:
    """The ``k`` nearest reference neighbors of ``point``."""

    point: tuple[float, ...]
    k: int = 5


@dataclass(frozen=True)
class CountQuery:
    """Count of reference points within ``radius`` of ``point``."""

    point: tuple[float, ...]
    radius: float = 0.3


@dataclass(frozen=True)
class NNResult:
    """Answer to an :class:`NNQuery`."""

    neighbor_id: int
    distance: float


@dataclass(frozen=True)
class KNNResult:
    """Answer to a :class:`KNNQuery`, nearest first."""

    neighbor_ids: tuple[int, ...]
    distances: tuple[float, ...]


@dataclass(frozen=True)
class CountResult:
    """Answer to a :class:`CountQuery`."""

    count: int


Query = Union[NNQuery, KNNQuery, CountQuery]
Result = Union[NNResult, KNNResult, CountResult]

#: Wire tags, one per query/result kind.
_QUERY_KINDS = {"nn": NNQuery, "knn": KNNQuery, "count": CountQuery}


def checked_point(values) -> tuple[float, ...]:
    """A decoded query point as floats; empty or non-finite is a SpecError."""
    point = tuple(float(value) for value in values)
    if not point:
        raise SpecError("query point must have at least one coordinate")
    if not all(map(math.isfinite, point)):
        raise SpecError("query point coordinates must be finite")
    return point


def checked_radius(value) -> float:
    """A decoded count radius; negative or non-finite is a SpecError."""
    radius = float(value)
    if not math.isfinite(radius) or radius < 0:
        raise SpecError(f"count query needs a finite radius >= 0, got {radius}")
    return radius


def group_key(query: Query) -> tuple:
    """The admission-batching key: queries sharing it may share a tick."""
    if isinstance(query, NNQuery):
        return ("nn",)
    if isinstance(query, KNNQuery):
        return ("knn", int(query.k))
    if isinstance(query, CountQuery):
        return ("count", float(query.radius))
    raise SpecError(f"unknown query type {type(query).__name__}")


def encode_query(query: Query) -> dict:
    """One JSON-able dict for a query."""
    if isinstance(query, NNQuery):
        return {"kind": "nn", "point": list(query.point)}
    if isinstance(query, KNNQuery):
        return {"kind": "knn", "point": list(query.point), "k": int(query.k)}
    if isinstance(query, CountQuery):
        return {
            "kind": "count",
            "point": list(query.point),
            "radius": float(query.radius),
        }
    raise SpecError(f"unknown query type {type(query).__name__}")


def decode_query(payload: dict) -> Query:
    """Inverse of :func:`encode_query`, validating as it goes."""
    kind = payload.get("kind")
    if kind not in _QUERY_KINDS:
        raise SpecError(
            f"unknown query kind {kind!r}; known: {sorted(_QUERY_KINDS)}"
        )
    point = checked_point(payload.get("point", ()))
    if kind == "nn":
        return NNQuery(point)
    if kind == "knn":
        k = int(payload.get("k", 5))
        if k < 1:
            raise SpecError(f"knn query needs k >= 1, got {k}")
        return KNNQuery(point, k)
    return CountQuery(point, checked_radius(payload.get("radius", 0.3)))


def encode_result(result: Result) -> dict:
    """One JSON-able dict for a result."""
    if isinstance(result, NNResult):
        return {
            "kind": "nn",
            "neighbor_id": int(result.neighbor_id),
            "distance": float(result.distance),
        }
    if isinstance(result, KNNResult):
        return {
            "kind": "knn",
            "neighbor_ids": [int(i) for i in result.neighbor_ids],
            "distances": [float(d) for d in result.distances],
        }
    if isinstance(result, CountResult):
        return {"kind": "count", "count": int(result.count)}
    raise SpecError(f"unknown result type {type(result).__name__}")


def decode_result(payload: dict) -> Result:
    """Inverse of :func:`encode_result`."""
    kind = payload.get("kind")
    if kind == "nn":
        return NNResult(
            int(payload["neighbor_id"]), float(payload["distance"])
        )
    if kind == "knn":
        return KNNResult(
            tuple(int(i) for i in payload["neighbor_ids"]),
            tuple(float(d) for d in payload["distances"]),
        )
    if kind == "count":
        return CountResult(int(payload["count"]))
    raise SpecError(f"unknown result kind {kind!r}")
