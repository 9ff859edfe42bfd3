import pytest

from toughkit import bits, build_jm, from_edges, independence_number
from toughkit.generators import complete, cycle, cycle_power, path, petersen, star
from toughkit.invariants import independence_json

from oracles import independence_naive, min_vertex_cover_naive


@pytest.mark.parametrize("build,alpha", [
    (petersen, 4),
    (lambda: complete(5), 1),
    (lambda: star(6), 6),
    (lambda: path(6), 3),
    (lambda: cycle(7), 3),
    (lambda: cycle_power(8, 2), 2),
    (lambda: cycle_power(10, 2), 3),
    (lambda: build_jm(3).graph, 2),
    (lambda: build_jm(5).graph, 4),
    (lambda: build_jm(7).graph, 6),
    (lambda: build_jm(4).graph, 4),
])
def test_frozen_alpha(build, alpha):
    g = build()
    got, witness = independence_number(g)
    assert got == alpha
    members = list(bits(witness))
    assert len(members) == alpha
    assert all(not g.has_edge(u, v) for i, u in enumerate(members)
               for v in members[i + 1:])


# (alpha, witness) on J_9..J_19 as the branch and bound gave them before the
# clique-cover prune (J_19 took 8.1 s then): the prune cuts only subtrees
# that cannot strictly beat the incumbent, so no witness may move
JM_ALPHA = {
    9: (8, 0x429449), 10: (10, 0xaa955), 11: (10, 0x42a5249), 12: (12, 0xaaa555),
    13: (12, 0x241494a49), 14: (14, 0xaaa9555), 15: (14, 0x12429251249),
    16: (16, 0xaaaa5555), 17: (16, 0x1242a4949249), 18: (18, 0xaaaa95555),
    19: (18, 0x9241492529249),
}


@pytest.mark.parametrize("m", sorted(JM_ALPHA))
def test_jm_alpha_witness_is_pinned(m):
    assert independence_number(build_jm(m).graph) == JM_ALPHA[m]


def test_matches_naive_on_randoms(rng):
    for _ in range(40):
        n = rng.randrange(1, 10)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.4])
        alpha, witness = independence_number(g)
        assert alpha == independence_naive(g)


def test_gallai_identity(rng):
    # alpha + minimum vertex cover = n
    for _ in range(25):
        n = rng.randrange(1, 9)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.5])
        alpha, witness = independence_number(g)
        assert alpha + min_vertex_cover_naive(g) == n
        # the witness is independent, so its complement is a vertex cover
        members = list(bits(witness))
        assert all(not g.has_edge(u, v) for i, u in enumerate(members)
                   for v in members[i + 1:])


def test_json_shape():
    payload = independence_json(*independence_number(cycle(5)))
    assert payload["invariant"] == "independence"
    assert payload["value"] == {"num": 2, "den": 1}
    assert len(payload["witness"]) == 2


def test_alpha_matches_networkx(rng):
    # past the brute-force oracle's n < 10, where the clique-cover prune
    # cuts most: alpha against networkx's maximum clique of the complement
    nx = pytest.importorskip("networkx")
    for _ in range(60):
        n, p = rng.randrange(12, 31), rng.choice([0.1, 0.3, 0.5])
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        clique, size = nx.max_weight_clique(nx.complement(h), weight=None)
        alpha, witness = independence_number(g)
        assert alpha == size == len(clique), g.edges()
        members = list(bits(witness))
        assert len(members) == alpha
        assert all(not g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1:])
