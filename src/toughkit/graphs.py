"""Immutable bitset-backed simple graphs and component analysis.

Vertex sets are plain ints used as bitmasks (bit i set means vertex i is
in the set), which keeps subset enumeration and BFS down to a handful of
integer ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

VertexSet = int


class EnvelopeError(ValueError):
    """A documented size or scale limit was exceeded."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the vertex ids in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor bitmask of vertex v.  Rows are validated for
    range, irreflexivity and symmetry at construction, so every instance in
    circulation is a well-formed simple graph.  Instances are immutable and
    hashable; all "mutation" happens in builders that return new graphs.
    """

    n: int
    adj: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices >= n={self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        adj = self.adj
        for v, row in enumerate(adj):
            bit = 1 << v
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise ValueError(f"asymmetric edge ({v}, {u})")
                row ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse, loops rejected."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def relabel(g: Graph, mapping: Iterable[int]) -> Graph:
    """Apply a permutation (mapping[old] = new) to the vertex labels."""
    perm = list(mapping)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of 0..n-1")
    rows = [0] * g.n
    for v in range(g.n):
        rows[perm[v]] = mask_of(perm[u] for u in bits(g.adj[v]))
    return Graph(g.n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def components(g: Graph, removed: VertexSet = 0) -> list[VertexSet]:
    """Connected components of g minus ``removed``, ordered by smallest member.

    Each component comes back as a bitmask; the list partitions the surviving
    vertices and is empty only when every vertex was removed.
    """
    if removed & ~g.full_mask:
        raise ValueError("removed set mentions vertices outside the graph")
    adj = g.adj
    rem = g.full_mask & ~removed
    out = []
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & rem & ~comp
            comp |= frontier
        out.append(comp)
        rem &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1
