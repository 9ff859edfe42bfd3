"""Reference implementations for tests: small, slow, and obviously correct.

Everything here works on plain adjacency sets and itertools so it shares no
search logic with the package.  The toughness oracle lives in the package
itself (it is part of the public contract); these cover the rest.
"""

from itertools import combinations

from toughkit import Graph


def adj_sets(g: Graph) -> list[set[int]]:
    return [{u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)]


def components_naive(g: Graph, removed=frozenset()) -> list[set[int]]:
    nbrs = adj_sets(g)
    seen = set(removed)
    out = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def is_connected_naive(g: Graph) -> bool:
    return len(components_naive(g)) == 1


def connectivity_naive(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete."""
    if len(components_naive(g)) > 1:
        return 0
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            if len(components_naive(g, frozenset(cut))) >= 2:
                return size
    return g.n - 1


def independence_naive(g: Graph) -> int:
    nbrs = adj_sets(g)
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for combo in combinations(range(g.n), size):
            cs = set(combo)
            if all(not (nbrs[v] & cs) for v in combo):
                best = size
                break
    return best


def min_vertex_cover_naive(g: Graph) -> int:
    edges = g.edges()
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            cs = set(combo)
            if all(u in cs or v in cs for u, v in edges):
                return size
    raise AssertionError("unreachable")


def girth_naive(g: Graph):
    """Length of a shortest cycle, or None for forests."""
    nbrs = adj_sets(g)
    best = None
    for size in range(3, g.n + 1):
        if best is not None:
            return best
        for combo in combinations(range(g.n), size):
            # cycle through exactly these vertices: 2-regular induced and connected
            cs = set(combo)
            if any(len(nbrs[v] & cs) != 2 for v in combo):
                continue
            comp = {combo[0]}
            stack = [combo[0]]
            while stack:
                u = stack.pop()
                for w in nbrs[u] & cs:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            if comp == cs:
                best = size
                break
    return best


def induced_stars_naive(g: Graph, k: int) -> list[tuple[int, frozenset]]:
    """(center, leaves) of every induced K_{1,k}, by center then sorted leaves."""
    nbrs = adj_sets(g)
    out = []
    for v in range(g.n):
        for leaves in combinations(sorted(nbrs[v]), k):
            if all(b not in nbrs[a] for a, b in combinations(leaves, 2)):
                out.append((v, frozenset(leaves)))
    return out


def cutsets_naive(g: Graph, s: int, k: int = 2) -> set[frozenset]:
    """Every s-set whose removal leaves at least k components."""
    out = set()
    for combo in combinations(range(g.n), s):
        if len(components_naive(g, frozenset(combo))) >= k:
            out.add(frozenset(combo))
    return out


def first_violation_naive(g: Graph, t) -> tuple[bool, int | None]:
    """is_t_tough's contract: (False, S) for the violation |S| < t * c(G - S)
    with c >= 2 that comes first by size, then by bitmask; else (True, None)."""
    for s in range(g.n + 1):
        hits = []
        for combo in combinations(range(g.n), s):
            k = len(components_naive(g, frozenset(combo)))
            if k >= 2 and s < t * k:
                hits.append(sum(1 << v for v in combo))
        if hits:
            return False, min(hits)
    return True, None
