"""Matrix-matrix multiplication as three-level nested recursion (§7.2).

The paper's motivating example for multi-level twisting: MMM is a
triply-nested loop ``C[i, j] += A[i, k] * B[k, j]``, which two-level
twisting cannot block in all three dimensions at once.  Here each loop
becomes one dimension of a :class:`~repro.core.multilevel.MultiLevelSpec`
(balanced index trees over i, j, k), and
:func:`~repro.core.multilevel.run_twisted_n` produces the recursive
blocking of the classic cache-oblivious MMM — parameter-free.

The memory model is element-granular: a work point ``(i, j, k)``
touches one line each of ``A``, ``B``, and ``C`` (computed from row-
major element coordinates), so the simulated hierarchy sees exactly the
three-array interference pattern that makes MMM the canonical blocking
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.multilevel import MultiLevelInstrument, MultiLevelSpec
from repro.memory.hierarchy import CacheHierarchy, LineFeed
from repro.spaces.node import IndexNode, TreeNode
from repro.spaces.trees import balanced_tree


@dataclass
class MatMul3:
    """Runnable recursive MMM: ``C (n x m) = A (n x p) @ B (p x m)``."""

    n: int
    m: int
    p: int
    seed: int = 0
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)
    #: index trees over i (rows), j (columns), k (inner dimension)
    roots: tuple[TreeNode, TreeNode, TreeNode] = field(init=False)

    def __post_init__(self) -> None:
        if min(self.n, self.m, self.p) < 1:
            raise ValueError("matrix dimensions must be positive")
        rng = np.random.default_rng(self.seed)
        self.a = rng.random((self.n, self.p))
        self.b = rng.random((self.p, self.m))
        self.c = np.zeros((self.n, self.m))
        self.roots = (
            balanced_tree(self.n, data=lambda x: x),
            balanced_tree(self.m, data=lambda x: x),
            balanced_tree(self.p, data=lambda x: x),
        )

    def make_spec(self) -> MultiLevelSpec:
        """A fresh three-dimensional spec; clears the output matrix."""
        self.c = np.zeros((self.n, self.m))
        a, b, c = self.a, self.b, self.c

        def work(node_i: TreeNode, node_j: TreeNode, node_k: TreeNode) -> None:
            i, j, k = node_i.data, node_j.data, node_k.data
            c[i, j] += a[i, k] * b[k, j]

        return MultiLevelSpec(
            roots=self.roots, work=work, name=f"MMM({self.n}x{self.m}x{self.p})"
        )

    def expected(self) -> np.ndarray:
        """The oracle product."""
        return self.a @ self.b

    def max_error(self) -> float:
        """Largest absolute deviation of the last run from the oracle."""
        return float(np.abs(self.c - self.expected()).max())


class MatMul3CacheProbe(MultiLevelInstrument):
    """Element-granular cache probe for three-level MMM.

    Addresses are row-major element indices divided into
    ``elements_per_line`` (doubles per 64-byte line = 8), with the three
    arrays in disjoint regions — the layout a C allocation would have.
    Lines go through the same bounded
    :class:`~repro.memory.hierarchy.LineFeed` as
    :class:`~repro.core.instruments.CacheProbe`.
    """

    def __init__(
        self,
        mmm: MatMul3,
        hierarchy: CacheHierarchy,
        elements_per_line: int = 8,
    ) -> None:
        self.mmm = mmm
        self.hierarchy = hierarchy
        self.elements_per_line = elements_per_line
        a_lines = (mmm.n * mmm.p + elements_per_line - 1) // elements_per_line
        b_lines = (mmm.p * mmm.m + elements_per_line - 1) // elements_per_line
        self._a_base = 0
        self._b_base = a_lines
        self._c_base = a_lines + b_lines
        self._feed = LineFeed(hierarchy)

    def point(self, nodes: Sequence[IndexNode]) -> None:
        i, j, k = (node.data for node in nodes)  # type: ignore[attr-defined]
        per_line = self.elements_per_line
        self._feed.extend(
            (
                self._a_base + (i * self.mmm.p + k) // per_line,
                self._b_base + (k * self.mmm.m + j) // per_line,
                self._c_base + (i * self.mmm.m + j) // per_line,
            )
        )

    @property
    def level_hits(self) -> list[int]:
        """Hits per level index, plus one slot for memory at the end."""
        return self._feed.served

    @property
    def accesses(self) -> int:
        """Line accesses fed to the hierarchy."""
        return sum(self._feed.served)

    @property
    def memory_accesses(self) -> int:
        """Accesses that missed every cache level."""
        return self.level_hits[-1]
