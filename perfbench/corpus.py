"""Seeded random connected graphs for the ``corpus`` workload.

Stdlib only and independent of toughkit, so the inputs do not move when
toughkit's own generators or codecs change.

Each graph is a random spanning tree (so it is connected without
rejection sampling) plus G(n, p) edges.  ``POOL_SEED`` fixes ``PER_CELL``
base graphs for every (n, p) cell and ``LABELINGS`` random vertex
relabelings of each; together they form the pool.  A run's ``--seed``
picks one labeling of every base graph.

Why a fixed pool: the toughkit output of every pool graph was recorded once
at the seed commit (``expected.json``), so every seed's outputs are checked
byte for byte.  Why seeds vary labels and not graphs: a solver's work is
nearly the same under relabeling (the subset sweep visits the same induced
subgraphs), while two different random graphs of one cell can differ 50x in
toughness time.  So the work per pass stays alike from seed to seed, while
label-dependent paths (pivot choices, lex-min witnesses, pool task
splits) still see new inputs.
"""

from __future__ import annotations

import random

N_VALUES = tuple(range(14, 21))
P_VALUES = (0.15, 0.30, 0.45)
CELLS = tuple((n, p) for n in N_VALUES for p in P_VALUES)
POOL_SEED = 20230131
PER_CELL = 2
LABELINGS = 8


def random_connected(n: int, p: float, rng: random.Random) -> list[int]:
    """Adjacency bitmasks of a spanning tree plus G(n, p) edges."""
    adj = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def encode_graph6(adj: list[int]) -> str:
    """graph6 for n <= 62: header n + 63, upper triangle column-major."""
    n = len(adj)
    out = [chr(63 + n)]
    acc = nb = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | adj[j] >> i & 1
            nb += 1
            if nb == 6:
                out.append(chr(63 + acc))
                acc = nb = 0
    if nb:
        out.append(chr(63 + (acc << (6 - nb))))
    return "".join(out)


def decode_graph6(text: str) -> list[int]:
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 header out of range: {text[:1]!r}")
    adj = [0] * n
    body = text[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length for n={n}")
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (ord(body[k // 6]) - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Adjacency of the same graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def pool() -> list[list[str]]:
    """For every base graph, cell by cell, its labelings as graph6."""
    rng = random.Random(POOL_SEED)
    out = []
    for n, p in CELLS:
        for _ in range(PER_CELL):
            adj = random_connected(n, p, rng)
            labelings = []
            for _ in range(LABELINGS):
                perm = list(range(n))
                rng.shuffle(perm)
                labelings.append(encode_graph6(relabel(adj, perm)))
            out.append(labelings)
    return out


def corpus(seed: int) -> list[str]:
    """The graphs of one run: one labeling of every base graph."""
    rng = random.Random(seed)
    return [labelings[rng.randrange(LABELINGS)] for labelings in pool()]
