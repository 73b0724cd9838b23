"""Brute-force answers for every query the server is asked.

Each distinct query is answered by :mod:`repro.dualtree.brute` in
``max_batch``-sized chunks per kind.  Brute force evaluates the same
distance expression as the serving kernels, so its answers are
bit-identical to the server's: nearest ids and distances in
``(distance, id)`` order for nn/knn, exact integer counts for count.
The time it takes is the ``baseline.brute_qps`` reference: the
strongest simple way to answer the same distinct queries.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.dualtree import brute

#: Chunk size: the service's default ``max_batch``.
CHUNK = 256


def _count_within(points: np.ndarray, references: np.ndarray, radius: float) -> np.ndarray:
    # brute_point_correlation sums over queries; the per-query counts
    # come from the same distance matrix it thresholds.
    return (brute._all_distances(points, references) <= radius).sum(axis=1)


def _answer_chunk(references, kind: int, chunk: list, k: int, radius: float) -> dict:
    points = np.array([point for _, point in chunk], dtype=float)
    answers = {}
    if kind == 0:
        ids, dists = brute.brute_nearest_neighbor(points, references)
        for (key, _), i, d in zip(chunk, ids, dists):
            answers[key] = {"kind": "nn", "neighbor_id": int(i), "distance": float(d)}
    elif kind == 1:
        ids, dists = brute.brute_knn(points, references, k)
        for (key, _), row_i, row_d in zip(chunk, ids, dists):
            answers[key] = {
                "kind": "knn",
                "neighbor_ids": [int(i) for i in row_i],
                "distances": [float(d) for d in row_d],
            }
    else:
        counts = _count_within(points, references, radius)
        for (key, _), c in zip(chunk, counts):
            answers[key] = {"kind": "count", "count": int(c)}
    return answers


def brute_answers(
    references: np.ndarray, queries: dict, k: int, radius: float, threads: int = 1
) -> tuple[dict, float]:
    """Wire-form results for ``queries`` (key -> (kind code, point)).

    Chunks run on ``threads`` threads (NumPy releases the interpreter
    lock in the distance arithmetic).  Returns ``(answers keyed like
    queries, wall seconds)``.
    """
    by_kind: dict[int, list] = {0: [], 1: [], 2: []}
    for key, (kind, point) in queries.items():
        by_kind[kind].append((key, point))
    jobs = [
        (kind, entries[lo : lo + CHUNK])
        for kind, entries in by_kind.items()
        for lo in range(0, len(entries), CHUNK)
    ]
    answers: dict = {}
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(lambda job: _answer_chunk(references, *job, k, radius), jobs):
            answers.update(part)
    return answers, time.perf_counter() - start
