import random

import pytest

from toughkit import bits, build_jm, canonical_form, complement, from_edges
from toughkit.generators import (
    JmLabeling,
    complete,
    cycle,
    cycle_power,
    line_graph,
    path,
    petersen,
    random_connected_graph,
    star,
)
from toughkit.graphs import EnvelopeError, is_connected

from oracles import girth_naive, independence_naive, is_connected_naive


def test_labeling_conventions():
    lab = JmLabeling(5)
    assert lab.n == 14
    assert [lab.a(i) for i in range(1, 6)] == [0, 1, 2, 3, 4]
    assert [lab.b(i) for i in range(1, 6)] == [5, 6, 7, 8, 9]
    assert [lab.c(i) for i in range(1, 5)] == [10, 11, 12, 13]
    assert lab.name(0) == "a1" and lab.name(9) == "b5" and lab.name(13) == "c4"
    assert sorted(bits(lab.x_mask())) == [lab.a(1), lab.a(5), lab.b(1), lab.b(5)]
    assert lab.a_mask() | lab.b_mask() | lab.c_mask() == (1 << 14) - 1
    with pytest.raises(ValueError):
        lab.a(6)
    with pytest.raises(ValueError):
        lab.c(5)
    with pytest.raises(ValueError):
        JmLabeling(2)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_jm_is_4_regular(m):
    g = build_jm(m).graph
    assert g.n == 3 * m - 1
    assert g.edge_count() == 6 * m - 2
    assert all(g.degree(v) == 4 for v in range(g.n))
    assert is_connected(g)


def test_jm_edge_structure():
    lg = build_jm(4)
    g, lab = lg.graph, lg.labeling
    # cycles
    assert g.has_edge(lab.a(1), lab.a(2)) and g.has_edge(lab.a(4), lab.a(1))
    assert g.has_edge(lab.b(2), lab.b(3))
    # hubs
    for i in range(1, 4):
        for v in (lab.a(i), lab.a(i + 1), lab.b(i), lab.b(i + 1)):
            assert g.has_edge(lab.c(i), v)
    # the two bridges and nothing else between the cycles
    assert g.has_edge(lab.a(1), lab.b(1)) and g.has_edge(lab.a(4), lab.b(4))
    assert not g.has_edge(lab.a(2), lab.b(2))


def test_jm_rejects_small_m():
    with pytest.raises(ValueError):
        build_jm(2)


def test_cycle_power():
    g = cycle_power(8, 2)
    assert all(g.degree(v) == 4 for v in range(8))
    assert g.has_edge(0, 2) and not g.has_edge(0, 3)
    assert cycle_power(5, 2).is_complete()
    with pytest.raises(ValueError):
        cycle_power(4, 2)  # needs n >= 2k+1


def test_fixture_families():
    assert [cycle(5).degree(v) for v in range(5)] == [2] * 5
    assert path(1).n == 1 and path(4).edge_count() == 3
    assert complete(4).edge_count() == 6
    assert star(3).degree(0) == 3 and star(3).n == 4
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star(0)


def test_petersen_profile():
    g = petersen()
    assert g.n == 10 and sorted(g.degree(v) for v in range(g.n)) == [3] * 10
    assert girth_naive(g) == 5
    assert independence_naive(g) == 4


def test_line_graph():
    # L(K_4) is the octahedron: 4-regular on 6 vertices, same class as
    # the complement of a perfect matching
    lk4 = line_graph(complete(4))
    assert lk4.n == 6 and sorted(lk4.degree(v) for v in range(6)) == [4] * 6
    matching = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert canonical_form(lk4) == canonical_form(complement(matching))
    # L(petersen) is 4-regular on 15 vertices
    lp = line_graph(petersen())
    assert lp.n == 15 and sorted(lp.degree(v) for v in range(15)) == [4] * 15
    # L(C_n) = C_n
    assert canonical_form(line_graph(cycle(6))) == canonical_form(cycle(6))


def test_random_connected_graph_is_connected(rng):
    for _ in range(30):
        n = rng.randrange(2, 10)
        g = random_connected_graph(n, rng, p=0.4)
        assert g.n == n
        assert is_connected_naive(g)


def test_random_connected_graph_seed_determinism():
    a = random_connected_graph(8, random.Random(7), p=0.5)
    b = random_connected_graph(8, random.Random(7), p=0.5)
    assert a.adj == b.adj


@pytest.mark.parametrize("p", [0, -1, 1.5, float("nan")])
def test_random_connected_graph_rejects_bad_p(p):
    # p <= 0 used to loop forever: no sample is ever connected
    with pytest.raises(ValueError, match="0 < p <= 1"):
        random_connected_graph(5, random.Random(1), p=p)


def test_random_connected_graph_gives_up_at_tiny_p():
    # G(30, 0.01) has about 4 edges and needs 29; this used to run forever
    with pytest.raises(EnvelopeError, match=r"G\(30, 0.01\) sample in 10000 attempts"):
        random_connected_graph(30, random.Random(1), p=0.01)


def test_random_connected_graph_accepts_p_one():
    g = random_connected_graph(5, random.Random(1), p=1)
    assert g.is_complete()
