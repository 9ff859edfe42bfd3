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
