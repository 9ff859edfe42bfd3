"""Reference implementations for tests: small, slow, and obviously correct.

Everything here reads only ``Graph.n`` and ``Graph.adj`` and works with
plain sets, bit tests and itertools, so it shares no search logic with the
package.

The census is checked without canonical forms, by the orbit-stabilizer
identity: a graph G on n vertices has n!/|Aut(G)| distinct labelings, so a
list holding one graph per isomorphism class of connected r-regular graphs
satisfies sum n!/|Aut(G)| = the number of connected labeled r-regular
graphs.  A missing class makes the sum fall short; a duplicated class
fails the pairwise non-isomorphism check, which the sum alone would miss
only if another class were missing.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

from toughkit import INFINITE, EnvelopeError, Graph, ToughnessCertificate

ORACLE_MAX_VERTICES = 22


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


def connectivity_witness_naive(g: Graph) -> tuple[int, int]:
    """(kappa, witness mask) that ``connectivity`` must give a connected,
    non-complete graph, by brute force over separators.

    Pairs come in Even's order: the lowest-id minimum-degree vertex v against
    its non-neighbors ascending, then the non-adjacent pairs of N(v) in
    ``combinations`` order.  The first pair with the fewest separating
    vertices wins; its witness is the smallest s-t separator that leaves the
    fewest vertices in the component of s.
    """
    nbrs = adj_sets(g)
    v = min(range(g.n), key=lambda u: (len(nbrs[u]), u))
    pairs = [(v, u) for u in range(g.n) if u != v and u not in nbrs[v]]
    pairs += [(x, y) for x, y in combinations(sorted(nbrs[v]), 2) if y not in nbrs[x]]
    witness = None
    for s, t in pairs:
        size, cut = separator_naive(g, s, t)
        if witness is None or size < witness[0]:
            witness = size, cut
    return witness


def separator_naive(g: Graph, s: int, t: int) -> tuple[int, int]:
    """(size, mask) of the smallest s-t separator of non-adjacent s and t
    that leaves the fewest vertices in the component of s, by brute force."""
    rest = [u for u in range(g.n) if u not in (s, t)]
    for size in range(len(rest) + 1):
        found = []  # (size of the component of s, separator)
        for cut in combinations(rest, size):
            side = next(c for c in components_naive(g, frozenset(cut)) if s in c)
            if t not in side:
                found.append((len(side), cut))
        if found:
            return size, sum(1 << u for u in min(found)[1])
    raise AssertionError("s and t are adjacent")


def is_independent_naive(g: Graph, vertices) -> bool:
    nbrs = adj_sets(g)
    vs = set(vertices)
    return all(not (nbrs[v] & vs) for v in vs)


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


def frontier_plan_naive(g: Graph) -> tuple[list[tuple], list[int]]:
    """The frontier DP's greedy vertex order, as (steps, widths).

    Each step places the unplaced vertex after which the fewest placed
    vertices still have an unplaced neighbour, recounted for every
    candidate; ties go to the most placed neighbours, then the lowest id.
    A step is (positions in the frontier of the new vertex's neighbours,
    positions of the frontier plus the new vertex that stay in it, the new
    vertex's bit); the width is the frontier size after the step.
    """
    nbrs = adj_sets(g)
    placed: set[int] = set()
    front: list[int] = []
    steps, widths = [], []
    for _ in range(g.n):
        def key(v):
            after = placed | {v}
            width = sum(1 for u in front + [v] if nbrs[u] - after)
            return width, -len(nbrs[v] & placed), v

        v = min((u for u in range(g.n) if u not in placed), key=key)
        placed.add(v)
        grown = front + [v]
        keep = tuple(i for i, u in enumerate(grown) if nbrs[u] - placed)
        steps.append((tuple(i for i, u in enumerate(front) if u in nbrs[v]), keep, 1 << v))
        front = [grown[i] for i in keep]
        widths.append(len(front))
    return steps, widths


def graph6_rows_naive(text: str) -> tuple[int, ...]:
    """Adjacency rows of one graph6 line, read bit by bit; a ValueError
    carries the message ``parse_graph6`` must give for a malformed line.

    The checks run in the order the parser's errors are documented: empty,
    alphabet, header, length, then padding after the body is read.
    """
    s = text
    if s.endswith("\n"):
        s = s[:-1]
    if s.endswith("\r"):
        s = s[:-1]
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"byte {ch!r} outside the graph6 alphabet")
    n = ord(s[0]) - 63
    if n == 63:
        raise ValueError("multi-byte order prefix (n > 62) not supported")
    if n == 0:
        raise ValueError("order-0 graph not representable here")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise ValueError(f"truncated: expected {need} data bytes, got {len(body)}")
    if len(body) > need:
        raise ValueError(f"trailing garbage after {need} data bytes")
    rows = [0] * n
    cursor = 0
    for j in range(1, n):
        for i in range(j):
            if (ord(body[cursor // 6]) - 63) >> (5 - cursor % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            cursor += 1
    tail = nbits % 6
    if need and tail and (ord(body[-1]) - 63) & ((1 << (6 - tail)) - 1):
        raise ValueError("nonzero padding bits")
    return tuple(rows)


def first_asymmetry_naive(rows: tuple[int, ...]):
    """The first (v, u) in (v, u) order with u in row v but v not in row u, or None."""
    n = len(rows)
    for v in range(n):
        for u in range(n):
            if rows[v] >> u & 1 and not rows[u] >> v & 1:
                return v, u
    return None


def cutsets_naive(g: Graph, s: int, k: int = 2) -> set[frozenset]:
    """Every s-set whose removal leaves at least k components."""
    out = set()
    for combo in combinations(range(g.n), s):
        if len(components_naive(g, frozenset(combo))) >= k:
            out.add(frozenset(combo))
    return out


def _oracle_components(nbrs: list[set[int]], alive: set[int]) -> int:
    seen: set[int] = set()
    cnt = 0
    for v in sorted(alive):
        if v in seen:
            continue
        cnt += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w in alive and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return cnt


def toughness_oracle(g: Graph):
    """Same contract as toughness(), via a full 2^n sweep with no pruning.

    Every subset is visited in ascending mask order, so the first strict
    minimum has the smallest mask.  Hard cap n <= 22.
    """
    if g.n > ORACLE_MAX_VERTICES:
        raise EnvelopeError(
            f"toughness oracle sweeps 2^n subsets, capped at n <= {ORACLE_MAX_VERTICES}"
        )
    nbrs = adj_sets(g)
    verts = set(range(g.n))
    best = INFINITE
    for mask in range(1 << g.n):
        alive = {v for v in verts if not mask >> v & 1}
        k = _oracle_components(nbrs, alive)
        if k >= 2:
            val = Fraction(mask.bit_count(), k)
            if best is INFINITE or val < best.value:
                best = ToughnessCertificate(val, mask, k)
    return best


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


def labeled_regular_count(n: int, r: int) -> int:
    """Connected labeled r-regular graphs on vertices 0..n-1, counted by
    completing one adjacency row at a time (no canonical form)."""
    rows = [0] * n
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v == n:
            reach, stack = 1, [0]  # flood fill from vertex 0
            while stack:
                new = rows[stack.pop()] & ~reach
                reach |= new
                stack += [u for u in range(n) if new >> u & 1]
            count += reach == (1 << n) - 1
            return
        need = r - rows[v].bit_count()
        if need < 0:
            return
        for combo in combinations([u for u in range(v + 1, n) if rows[u].bit_count() < r], need):
            for u in combo:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            rec(v + 1)
            for u in combo:
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)

    rec(0)
    return count


def _isomorphisms(a: Graph, b: Graph):
    """Every bijection V(a) -> V(b) preserving adjacency, by backtracking.

    The vertices of ``a`` are mapped in breadth-first order, so each new
    vertex usually has a mapped neighbour that constrains its image."""
    n = a.n
    if b.n != n or sorted(map(int.bit_count, a.adj)) != sorted(map(int.bit_count, b.adj)):
        return
    order: list[int] = []
    for root in range(n):
        if root in order:
            continue
        head = len(order)
        order.append(root)
        while head < len(order):
            x = order[head]
            head += 1
            order += [y for y in range(n) if a.adj[x] >> y & 1 and y not in order]
    image = [0] * n

    def walk(i: int, used: int):
        if i == n:
            yield image.copy()
            return
        x = order[i]
        # the images of x's already mapped neighbours must be exactly the
        # mapped neighbours of x's image
        want = 0
        for w in order[:i]:
            if a.adj[x] >> w & 1:
                want |= 1 << image[w]
        for y in range(n):
            if not used >> y & 1 and b.adj[y] & used == want \
                    and b.adj[y].bit_count() == a.adj[x].bit_count():
                image[x] = y
                yield from walk(i + 1, used | 1 << y)

    yield from walk(0, 0)


def automorphism_count(g: Graph) -> int:
    return sum(1 for _ in _isomorphisms(g, g))


def isomorphic_naive(a: Graph, b: Graph) -> bool:
    return next(_isomorphisms(a, b), None) is not None


def check_regular_classes(classes: list[Graph], n: int, r: int) -> None:
    """Assert that ``classes`` holds exactly one graph per isomorphism class
    of connected r-regular graphs on n vertices."""
    for g in classes:
        assert g.n == n and all(row.bit_count() == r for row in g.adj), (n, r, g)
        assert is_connected_naive(g), (n, r, g)
    for a, b in combinations(classes, 2):
        assert not isomorphic_naive(a, b), (n, r, a, b)
    total = sum(Fraction(factorial(n), automorphism_count(g)) for g in classes)
    assert total == labeled_regular_count(n, r), (n, r, total)
