import pytest

from toughkit import bits, build_jm, connectivity, from_edges
from toughkit.generators import complete, cycle, path, petersen, random_connected_graph, star
from toughkit.graphs import components
from toughkit.invariants import _disjoint_paths, connectivity_json

from oracles import connectivity_naive, connectivity_witness_naive, separator_naive


@pytest.mark.parametrize("build,kappa", [
    (petersen, 3),
    (lambda: cycle(8), 2),
    (lambda: path(5), 1),
    (lambda: star(4), 1),
    (lambda: build_jm(3).graph, 4),
    (lambda: build_jm(4).graph, 4),
    (lambda: build_jm(5).graph, 4),
    (lambda: build_jm(6).graph, 4),
])
def test_frozen_kappa(build, kappa):
    g = build()
    cert = connectivity(g)
    assert cert.kappa == kappa
    assert cert.witness_cut is not None
    assert bin(cert.witness_cut).count("1") == kappa
    # the witness really disconnects
    assert len(components(g, removed=cert.witness_cut)) >= 2


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_complete_marker(n):
    cert = connectivity(complete(n))
    assert cert.kappa == n - 1
    assert cert.witness_cut is None
    assert connectivity_json(cert)["witness"] is None


def test_disconnected_is_zero():
    cert = connectivity(from_edges(5, [(0, 1), (2, 3)]))
    assert cert.kappa == 0
    assert cert.witness_cut == 0


def test_matches_naive_on_randoms(rng):
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.5])
        cert = connectivity(g)
        assert cert.kappa == connectivity_naive(g)
        if cert.witness_cut is not None and cert.kappa > 0:
            assert len(components(g, removed=cert.witness_cut)) >= 2


def test_certificate_validates(rng):
    for _ in range(15):
        g = random_connected_graph(rng.randrange(4, 9), rng, p=0.5)
        cert = connectivity(g)
        assert cert.validate(g)


def test_witness_matches_naive_oracle(rng):
    # the separator nearest s for the first pair of Even's family with the
    # smallest flow, found again by brute force over separators
    for _ in range(150):
        n = rng.randrange(4, 11)
        g = random_connected_graph(n, rng, p=rng.choice([0.2, 0.35, 0.5, 0.7, 0.85]))
        if g.is_complete():
            continue
        cert = connectivity(g)
        assert (cert.kappa, cert.witness_cut) == connectivity_witness_naive(g), g.edges()


def test_pair_flow_and_separator_match_naive(rng):
    # every non-adjacent pair, with and without a cap: the flow starts from
    # the paths through common neighbours, which dense graphs have in
    # numbers at and past the cap, and the separator nearest s must not move
    pairs = 0
    for _ in range(12):
        n = rng.randrange(5, 10)
        g = random_connected_graph(n, rng, p=rng.choice([0.35, 0.6, 0.8]))
        for s in range(n):
            for t in range(n):
                if s == t or g.has_edge(s, t):
                    continue
                pairs += 1
                flow, cut = separator_naive(g, s, t)
                assert _disjoint_paths(g.adj, s, t, None) == (flow, cut), (g.edges(), s, t)
                for cap in range(1, flow + 2):
                    want = (cap, None) if cap <= flow else (flow, cut)
                    assert _disjoint_paths(g.adj, s, t, cap) == want, (g.edges(), s, t, cap)
    assert pairs > 50


def test_kappa_matches_networkx(rng):
    # past the brute-force witness oracle's n <= 10: kappa against networkx,
    # and the witness is a separator of kappa vertices
    nx = pytest.importorskip("networkx")
    for _ in range(60):
        n = rng.randrange(12, 21)
        g = random_connected_graph(n, rng, p=rng.choice([0.15, 0.3, 0.45, 0.6, 0.8]))
        cert = connectivity(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert cert.kappa == nx.node_connectivity(h), g.edges()
        if cert.witness_cut is not None:
            assert cert.witness_cut.bit_count() == cert.kappa
            assert len(components(g, removed=cert.witness_cut)) >= 2, g.edges()


def test_witness_vertices_in_range():
    cert = connectivity(build_jm(5).graph)
    assert all(0 <= v < 14 for v in bits(cert.witness_cut))
