"""Graph builders: the J family, cycle powers, standard fixtures.

The J family: two disjoint m-cycles a_1..a_m and b_1..b_m, hub vertices
c_1..c_{m-1} where c_i is joined to a_i, a_{i+1}, b_i, b_{i+1}, plus the
bridge edges a_1 b_1 and a_m b_m.  The result is 4-regular on 3m-1
vertices with 6m-2 edges.  Vertex ids are fixed: a_i -> i-1,
b_i -> m+i-1, c_i -> 2m+i-1 (indices 1-based in role space).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import EnvelopeError, Graph, VertexSet, from_edges, is_connected, mask_of

# Samples random_connected_graph draws before it gives up.  Measured on 2
# cores at p = 0.01, the CLI then exits in 1.0 s at n = 30 and 3.1 s at n = 62.
_CONNECTED_ATTEMPTS = 10_000


@dataclass(frozen=True)
class JmLabeling:
    """Role map between vertex ids and (a|b|c, index) names for one J graph."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError(f"J family needs m >= 3, got {self.m}")

    @property
    def n(self) -> int:
        return 3 * self.m - 1

    def a(self, i: int) -> int:
        self._check(i, self.m, "a")
        return i - 1

    def b(self, i: int) -> int:
        self._check(i, self.m, "b")
        return self.m + i - 1

    def c(self, i: int) -> int:
        self._check(i, self.m - 1, "c")
        return 2 * self.m + i - 1

    def _check(self, i: int, top: int, role: str) -> None:
        if not 1 <= i <= top:
            raise ValueError(f"{role}-index must be in 1..{top}, got {i}")

    def role(self, v: int) -> tuple[str, int]:
        """Inverse map: vertex id to (role, 1-based index)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        if v < self.m:
            return "a", v + 1
        if v < 2 * self.m:
            return "b", v - self.m + 1
        return "c", v - 2 * self.m + 1

    def name(self, v: int) -> str:
        role, i = self.role(v)
        return f"{role}{i}"

    def names(self) -> list[str]:
        return [self.name(v) for v in range(self.n)]

    def a_mask(self) -> VertexSet:
        return mask_of(range(self.m))

    def b_mask(self) -> VertexSet:
        return mask_of(range(self.m, 2 * self.m))

    def c_mask(self) -> VertexSet:
        return mask_of(range(2 * self.m, self.n))

    def x_mask(self) -> VertexSet:
        """The four bridge-adjacent cycle vertices a_1, a_m, b_1, b_m."""
        return mask_of((self.a(1), self.a(self.m), self.b(1), self.b(self.m)))


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    labeling: JmLabeling


def build_jm(m: int) -> LabeledGraph:
    """Construct the order-(3m-1) member of the J family."""
    lab = JmLabeling(m)
    edges = []
    for i in range(1, m + 1):
        succ = i % m + 1
        edges.append((lab.a(i), lab.a(succ)))
        edges.append((lab.b(i), lab.b(succ)))
    for i in range(1, m):
        for t in (lab.a(i), lab.a(i + 1), lab.b(i), lab.b(i + 1)):
            edges.append((lab.c(i), t))
    edges.append((lab.a(1), lab.b(1)))
    edges.append((lab.a(m), lab.b(m)))
    return LabeledGraph(from_edges(lab.n, edges), lab)


def cycle_power(n: int, k: int) -> Graph:
    """k-th power of the n-cycle: i ~ j when they are <= k apart around the cycle."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if n < 2 * k + 1:
        raise ValueError(f"cycle power needs n >= 2k+1, got n={n}, k={k}")
    edges = []
    for i in range(n):
        for d in range(1, k + 1):
            edges.append((i, (i + d) % n))
    return from_edges(n, edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(k: int) -> Graph:
    """K_{1,k} with the center at vertex 0."""
    if k < 1:
        raise ValueError(f"star needs k >= 1 leaves, got {k}")
    return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen() -> Graph:
    # outer 5-cycle 0..4, inner pentagram 5..9, spokes i ~ i+5
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return from_edges(10, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of g, adjacent when edges share an endpoint."""
    base = g.edges()
    n = len(base)
    if n == 0:
        raise ValueError("line graph of an edgeless graph is empty")
    out = []
    for x in range(n):
        ux, vx = base[x]
        for y in range(x + 1, n):
            uy, vy = base[y]
            if ux in (uy, vy) or vx in (uy, vy):
                out.append((x, y))
    return from_edges(n, out)


def random_connected_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """Seeded connected G(n, p) by rejection; deterministic for a given rng state.

    Needs 0 < p <= 1: at p <= 0 no sample is ever connected, and p > 1
    is not a probability.  Raises EnvelopeError when none of
    ``_CONNECTED_ATTEMPTS`` samples is connected, as at p far below
    ln(n) / n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 < p <= 1:
        raise ValueError(f"need 0 < p <= 1, got {p}")
    for _ in range(_CONNECTED_ATTEMPTS):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = from_edges(n, edges)
        if is_connected(g):
            return g
    raise EnvelopeError(
        f"no connected G({n}, {p}) sample in {_CONNECTED_ATTEMPTS} attempts")
