"""Isomorph-free enumeration of regular graphs and the census pipeline.

Canonical form: the graph6 string of the labeling whose upper-triangle
bitstring (column-major, the graph6 bit order) is lexicographically
maximal over all permutations.  Two graphs share the string iff they are
isomorphic.  One branch and bound finds it, seeded with the identity's
columns: it walks only the prefixes that tie or beat the best string so
far, and of two twins (swapping them is an automorphism that fixes every
other vertex) it tries only the lower.  So K_12 walks one path, not its
12! tied labelings.

Enumeration is orderly: grow one vertex at a time, keep an extension only
when the grown labeled graph is already its own canonical labeling.  The
max-string canonical form is prefix-closed (a permutation improving a
prefix would extend to one improving the whole string), so every class is
produced exactly once and no isomorph store is needed.  Only the
extensions that can still finish r-regular are built: the new vertex's
neighbourhood is drawn from the degree deficits r - deg(v), taking every
vertex that must join and subsets of those that may.  An extension first
meets an O(1) exact test that drops it when swapping the last two vertices
would already beat it.  A surviving child with fewer than n vertices is
skipped when it is barren: its new vertex closes an r-regular component,
which takes no more edges, or none of its own extensions survives the swap
test.  No connected leaf lies below either, and the survivors are handed
down, so each list is built once.  The canonicity check then starts from
the parent's: every partial labeling that ties the parent's identity
columns (a tied prefix) is kept in a trie, and a labeling of the child can
only beat the child if it places the new vertex right after one of them.
So the check scans the parent's tied prefixes and backtracks only below the
ones where the new vertex ties too (McKay 1998; Meringer 1999).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .formats import ParseError, _columns, _pack_columns, parse_graph6, serialize_graph6
from .graphs import EnvelopeError, Graph, bits, is_connected
from .invariants import (
    INFINITE,
    claw_centers,
    connectivity,
    connectivity_json,
    independence_number,
    is_t_tough,
    toughness,
    toughness_json,
)
from .parallel import worker_pool

CANONICAL_MAX_VERTICES = 12
# census predicates, name -> test(g, r), ordered cheap to expensive: the
# pipeline runs the regularity stage and then the requested ones in this order
PREDICATES = {
    "connected": lambda g, r: is_connected(g),
    "claw_free": lambda g, r: claw_centers(g) == 0,
    "has_claw": lambda g, r: claw_centers(g) != 0,
    # r-regular and not complete means toughness <= r/2, so the decision
    # procedure suffices for equality; complete graphs sit at INFINITE.  It
    # is skipped when alpha(r + 2) > 2n: for a maximum independent set I of
    # a non-complete graph, alpha >= 2 and V - I is a cut-set leaving alpha
    # isolated vertices, so toughness <= (n - alpha)/alpha < r/2
    "supertough": lambda g, r: (not g.is_complete()
                                and 2 * g.n >= independence_number(g)[0] * (r + 2)
                                and is_t_tough(g, Fraction(r, 2))[0]),
}


def _max_labeling(n: int, adj) -> list[int]:
    """The lex-max column string over all labelings, as graph6 columns.

    Branch and bound seeded with the identity's columns ``best``, with
    ``best[0] = 0`` for the empty column at position 0.  At each position
    only the vertices of the largest column can lead to the best string:
    a largest column below ``best`` cuts the branch, a tie is walked, and a
    larger one overwrites ``best`` from that position on, the deeper
    positions reset to -1.  So every leaf realizes ``best``, a leaf is
    reached after each overwrite, and ``best`` ends as the maximum.  Of
    two twins (vertices with the same neighbours apart from each other, so
    swapping them is an automorphism that fixes every other vertex) only
    the lower one is tried while both are unplaced.
    """
    best = _columns(adj)
    lower_twins = [sum(1 << u for u in range(v)
                       if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
                   for v in range(n)]

    def dfs(depth: int, mask: int, rest: list[int], cols: list[int]) -> None:
        """Extend a prefix of ``depth`` placed vertices (``mask``) whose
        columns tie ``best``; ``cols[i]`` is the column of the unplaced
        vertex ``rest[i]`` over the prefix."""
        if depth == n:
            return
        top = max(cols)
        if top < best[depth]:
            return
        if top > best[depth]:
            best[depth:] = [top] + [-1] * (n - depth - 1)
        for i, v in enumerate(rest):
            if cols[i] == top and not lower_twins[v] & ~mask:
                row = adj[v]
                dfs(depth + 1, mask | 1 << v, rest[:i] + rest[i + 1:],
                    [c << 1 | row >> u & 1 for u, c in zip(rest, cols) if u != v])

    dfs(0, 0, list(range(n)), [0] * n)
    return best


def _check_canonical_order(n: int) -> None:
    if n > CANONICAL_MAX_VERTICES:
        raise EnvelopeError(
            f"canonical form search is capped at n <= {CANONICAL_MAX_VERTICES}"
        )


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal for two graphs iff they are isomorphic."""
    _check_canonical_order(g.n)
    return _pack_columns(_max_labeling(g.n, g.adj))


# ---------------------------------------------------------------------------
# orderly generation of connected r-regular graphs

def _extensions(rows: list[int], n: int, r: int):
    """Every neighbourhood ``newrow`` of a new vertex k = len(rows) after
    which the prefix can still finish r-regular on n vertices, each once.

    With s = n - k - 1 vertices still to come, a vertex of deficit
    r - deg(v) equal to s + 1 must join, one of deficit 1..s may, and k's
    own deficit r - c must lie in 0..s for c joiners.  The suffix then has
    r*s - D - r + 2c edge ends left to pair among its own vertices, D the
    sum of the old deficits: at least 0, at most s(s - 1), and even: with
    e edges on the placed vertices it is r(n - 2k - 2) + 2e + 2c, and
    ``_check_degree`` rejects odd r*n.  ``rows`` is the root ``[0]`` or
    was grown by this generator, so every deficit is already in 0..s + 1.
    """
    s = n - len(rows) - 1
    forced = 0
    optional = []
    total = 0
    for v, row in enumerate(rows):
        d = r - row.bit_count()
        total += d
        if d == s + 1:
            forced |= 1 << v
        elif d:
            optional.append(1 << v)
    base = r * s - total - r
    need = forced.bit_count()
    lo = max(r - s, need, -base // 2)
    hi = min(r, need + len(optional), (s * (s - 1) - base) // 2)
    for c in range(lo, hi + 1):
        for combo in combinations(optional, c - need):
            yield sum(combo, forced)


def _swap_beats(rows: list[int], newrow: int) -> bool:
    """Would swapping the last vertex of ``rows`` with a new vertex adjacent
    to ``newrow`` give a strictly larger column string?

    The new vertex k only appends column k.  Swapping positions k-1 and k
    leaves columns 1..k-2 alone and puts the new vertex's bits over 0..k-2
    in column k-1, so the swap wins when those bits beat the old column k-1
    at their first difference, the lowest differing vertex.  Such an
    extension is never canonical.
    """
    k = len(rows)
    low = (1 << (k - 1)) - 1
    x = (newrow ^ rows[k - 1]) & low
    return bool(newrow & x & -x)


# A tied prefix of a labeling is a partial labeling (position -> vertex)
# whose columns equal the identity's, the nodes the canonicity check walks.
# They are kept as a parent-pointer trie with one pair of lists per depth:
# node i of depth d places vertex ``verts[d][i]`` at position d-1 under
# node ``pars[d][i]`` of depth d-1.  Depth 0 holds only the root, the empty
# prefix.  ``want[d]`` is the identity's column at position d, and
# ``want[0] = 0`` stands for the empty column at position 0.


def _tie_dfs(adj, want, verts, pars, placed: list[int], mask: int, node: int) -> bool:
    """Walk the labelings that extend ``placed`` while they tie the identity;
    False as soon as one beats it.  Every tied extension is added to the
    trie under ``node``, the trie node of ``placed``."""
    n = len(adj)
    depth = len(placed)
    if depth == n:
        return True  # an automorphism, not a beater
    w = want[depth]
    for v in range(n):
        if mask >> v & 1:
            continue
        row = adj[v]
        col = 0
        for p in placed:
            col = col << 1 | row >> p & 1
        if col > w:
            return False  # found a strictly larger labeling
        if col == w:
            child = len(verts[depth + 1])
            verts[depth + 1].append(v)
            pars[depth + 1].append(node)
            placed.append(v)
            ok = _tie_dfs(adj, want, verts, pars, placed, mask | 1 << v, child)
            placed.pop()
            if not ok:
                return False
    return True


def _tied_prefixes(rows: list[int], order: int):
    """``(verts, pars, want)`` of a canonical labeling, walked from scratch,
    with empty depths up to ``order`` for its descendants' prefixes."""
    want = _columns(rows)
    verts: list[list[int]] = [[] for _ in range(order + 1)]
    pars: list[list[int]] = [[] for _ in range(order + 1)]
    if not _tie_dfs(rows, want, verts, pars, [], 0, 0):
        raise ValueError("the labeling is not canonical")
    return verts, pars, want


def _child_is_canonical(grown: list[int], want, verts, pars) -> bool:
    """Is ``grown``, a canonical parent P plus vertex k, canonical too?

    The trie holds P's tied prefixes, and ``want`` the child's identity
    columns.  Cut any labeling of the child where it places k, at position
    d.  If its first d vertices do not tie P's identity they fall below it,
    since P is canonical, and so does the labeling.  Otherwise they are a
    tied prefix p of P.  Then k's column over p beats ``want[d]`` (reject),
    falls below it, or ties it, and the ordinary walk goes on from
    p + (k,).  So P's prefixes are scanned first, and only the ties are
    walked.  The child's own new tied prefixes, those that hold k, are
    added to the trie.
    """
    k = len(grown) - 1
    newrow = grown[k]
    prev = [0]
    ties = [(0, 0)]  # k at position 0 always ties
    for d in range(1, k + 1):
        w = want[d]
        cols = [prev[p] << 1 | newrow >> v & 1 for p, v in zip(pars[d], verts[d])]
        if max(cols) > w:
            return False
        if w in cols:
            ties += [(d, i) for i, col in enumerate(cols) if col == w]
        prev = cols
    for d, i in ties:
        placed = []
        mask = 1 << k
        node = i
        for e in range(d, 0, -1):
            v = verts[e][node]
            placed.append(v)
            mask |= 1 << v
            node = pars[e][node]
        placed.reverse()
        placed.append(k)
        node = len(verts[d + 1])
        verts[d + 1].append(k)
        pars[d + 1].append(i)
        if not _tie_dfs(grown, want, verts, pars, placed, mask, node):
            return False
    return True


def _viable(rows: list[int], n: int, r: int) -> list[int]:
    """The extensions of ``rows`` that survive the swap test."""
    return [newrow for newrow in _extensions(rows, n, r) if not _swap_beats(rows, newrow)]


def _closes_component(grown: list[int], r: int) -> bool:
    """Is the component of the last vertex of ``grown`` already r-regular?"""
    comp = frontier = 1 << len(grown) - 1
    while frontier:
        reach = 0
        for v in bits(frontier):
            if grown[v].bit_count() != r:
                return False
            reach |= grown[v]
        frontier = reach & ~comp
        comp |= frontier
    return True


def _descend(rows: list[int], cands: list[int], trie, order: int, n: int, r: int,
             out: list) -> None:
    """Grow the canonical labeling ``rows`` depth-first to ``order`` vertices
    and append each leaf to ``out`` with its candidates.  ``cands`` is
    ``_viable(rows, n, r)`` (empty at order n) and ``trie`` is ``(verts,
    pars, want)`` of ``rows``; it is left as it was found.  A barren child
    (see the module docstring) is skipped before its canonicity check."""
    verts, pars, want = trie
    k = len(rows)
    if k == order:
        out.append((rows, cands))
        return
    sizes = [len(level) for level in verts]
    for newrow in cands:
        grown = [row | (newrow >> v & 1) << k for v, row in enumerate(rows)]
        grown.append(newrow)
        grown_cands: list[int] = []
        if k + 1 < n:
            if _closes_component(grown, r):
                continue
            grown_cands = _viable(grown, n, r)
            if not grown_cands:
                continue
        col = 0
        for v in range(k):
            col = col << 1 | newrow >> v & 1
        want.append(col)
        if _child_is_canonical(grown, want, verts, pars):
            _descend(grown, grown_cands, trie, order, n, r, out)
        want.pop()
        for vs, ps, size_d in zip(verts, pars, sizes):
            del vs[size_d:], ps[size_d:]


def _subtrees(task) -> list[tuple[list[int], list[int]]]:
    """The descendants of order ``order``, with their candidates, of each
    canonical parent given as ``(rows, candidates)``."""
    parents, order, n, r = task
    out: list[tuple[list[int], list[int]]] = []
    for rows, cands in parents:
        _descend(rows, cands, _tied_prefixes(rows, order), order, n, r, out)
    return out


# the search runs breadth-first until a level has this many parents, then
# hands the pool _GROUPS_PER_WORKER strided groups of that level per worker
_POOL_MIN_LEVEL = 64
_GROUPS_PER_WORKER = 8


def _enumerate(n: int, r: int, pmap, workers: int) -> list[Graph]:
    level = [([0], _viable([0], n, r))]
    while level and len(level) < _POOL_MIN_LEVEL and len(level[0][0]) < n:
        level = _subtrees((level, len(level[0][0]) + 1, n, r))
    step = _GROUPS_PER_WORKER * workers
    tasks = [(level[i::step], n, n, r) for i in range(step)]
    out = [Graph(n, tuple(rows)) for part in pmap(_subtrees, tasks) for rows, _ in part]
    out = [g for g in out if is_connected(g)]
    return sorted(out, key=serialize_graph6)


def _check_degree(n: int, r: int) -> None:
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    if n * r % 2:
        raise ValueError(f"no {r}-regular graph on {n} vertices")


def _check_regular_params(n: int, r: int) -> None:
    if n > CANONICAL_MAX_VERTICES or r > 4:
        raise EnvelopeError(
            f"enumeration capped at n <= {CANONICAL_MAX_VERTICES}, r <= 4, got ({n}, {r})")
    _check_degree(n, r)


def enumerate_regular(n: int, r: int, workers: int = 1) -> list[Graph]:
    """All connected r-regular graphs on n vertices, one per isomorphism class.

    Orderly vertex-extension search; output sorted by canonical graph6 (the
    emitted labelings are already canonical).  A child that closes an
    r-regular component early, or that has no extension left to try, is
    skipped before its canonicity check: no connected leaf lies below it,
    so r <= 1 stops near the root instead of walking an empty graph's
    automorphisms.  The search runs breadth-first until a level has at
    least 64 parents, deals that level into 8 strided groups per worker and
    grows each group depth-first to order n on ``workers`` processes.  The
    leaves do not depend on how the level was dealt, so neither does the
    output.  Envelope: n <= 12, r <= 4.
    """
    _check_regular_params(n, r)
    with worker_pool(workers) as pmap:
        return _enumerate(n, r, pmap, workers)


# ---------------------------------------------------------------------------
# census pipeline

@dataclass(frozen=True)
class SearchSpec:
    n: int
    r: int
    source: str = "builtin"  # "builtin" or "stream"
    predicates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.source not in ("builtin", "stream"):
            raise ValueError(f"unknown source {self.source!r}")
        preds = tuple(sorted(set(self.predicates)))
        unknown = [p for p in preds if p not in PREDICATES]
        if unknown:
            raise ValueError(f"unknown predicates {unknown}")
        if "claw_free" in preds and "has_claw" in preds:
            raise ValueError("claw_free and has_claw are mutually exclusive")
        object.__setattr__(self, "predicates", preds)
        _check_degree(self.n, self.r)
        # survivors carry canonical forms; checked here, before any input is read
        _check_canonical_order(self.n)


@dataclass
class CensusResult:
    spec: SearchSpec
    examined: int = 0
    complete_graphs: int = 0
    counts: dict = field(default_factory=dict)
    survivors: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "spec": {
                "n": self.spec.n,
                "r": self.spec.r,
                "source": self.spec.source,
                "predicates": list(self.spec.predicates),
            },
            "examined": self.examined,
            "complete_graphs": self.complete_graphs,
            "counts": dict(self.counts),
            "survivors": self.survivors,
            "errors": [{"line": ln, "message": msg} for ln, msg in self.errors],
        }


def _examine(args):
    """One graph through the predicate pipeline.

    Returns (stage flags dict, survivor record or None, is_complete)."""
    g, spec = args
    ok = all(g.degree(v) == spec.r for v in range(g.n))
    flags = {"regular": ok}
    for name, test in PREDICATES.items():
        if ok and name in spec.predicates:
            ok = flags[name] = test(g, spec.r)
    record = None
    if ok:
        cert = toughness(g)
        if "supertough" in spec.predicates and (
                cert is INFINITE or cert.value != Fraction(spec.r, 2)):
            raise RuntimeError(
                f"is_t_tough passed {serialize_graph6(g)} at {spec.r}/2 but toughness is {cert}")
        record = {
            "graph6": canonical_form(g),
            "toughness": toughness_json(cert),
            "connectivity": connectivity_json(connectivity(g)),
            "has_claw": PREDICATES["has_claw"](g, spec.r),
        }
    return flags, record, g.is_complete()


def run_census(spec: SearchSpec, stream=None, workers: int = 1) -> CensusResult:
    """Filter a universe of graphs through the predicate pipeline.

    Builtin source enumerates connected r-regular classes; a stream source
    reads graph6 lines (malformed or mis-sized lines are recorded per line
    number and skipped).  One pool of ``workers`` processes serves both the
    enumeration and the pipeline.  Results are independent of worker count:
    counts are sums and survivors are sorted by canonical form.  Survivors
    carry canonical forms, so a spec with n above the canonical-form cap
    cannot be built (EnvelopeError), for either source.
    """
    res = CensusResult(spec=spec, counts={"regular": 0})
    res.counts.update((p, 0) for p in PREDICATES if p in spec.predicates)
    graphs: list[Graph] = []
    if spec.source == "builtin":
        if stream is not None:
            raise ValueError("builtin source does not take a stream")
        _check_regular_params(spec.n, spec.r)
    else:
        if stream is None:
            raise ValueError("stream source needs lines of graph6")
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except ParseError as exc:
                res.errors.append((lineno, str(exc)))
                continue
            if g.n != spec.n:
                res.errors.append((lineno, f"expected order {spec.n}, got {g.n}"))
                continue
            graphs.append(g)
    with worker_pool(workers) as pmap:
        if spec.source == "builtin":
            graphs = _enumerate(spec.n, spec.r, pmap, workers)
        res.examined = len(graphs)
        outcomes = pmap(_examine, [(g, spec) for g in graphs])
    for flags, record, comp in outcomes:
        if comp:
            res.complete_graphs += 1
        for p, passed in flags.items():
            if passed:
                res.counts[p] += 1
        if record is not None:
            res.survivors.append(record)
    res.survivors.sort(key=lambda rec: rec["graph6"])
    return res
