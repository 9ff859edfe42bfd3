import pytest

from toughkit import Graph, bits, complement, components, from_edges, mask_of, relabel
from toughkit.graphs import is_connected

from oracles import components_naive, first_asymmetry_naive


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert mask_of([]) == 0
    assert list(bits(0)) == []


def test_from_edges_basics():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_from_edges_collapses_duplicates():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(0, [])


def test_graph_validates_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # row count mismatch
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b01))  # self-loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b00))  # neighbor out of range


def test_graph_names_the_first_asymmetric_edge(rng):
    # symmetric rows with a few bits flipped: the error names the first
    # (v, u) in (v, u) order whose mirror is missing, and symmetric rows pass
    asymmetric = 0
    for _ in range(400):
        n = rng.randrange(2, 40)
        p = rng.choice([0.1, 0.5, 0.9])
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for _ in range(rng.randrange(3)):
            v, u = rng.sample(range(n), 2)
            rows[v] ^= 1 << u
        rows = tuple(rows)
        first = first_asymmetry_naive(rows)
        if first is None:
            assert Graph(n, rows).adj == rows
            continue
        asymmetric += 1
        with pytest.raises(ValueError) as err:
            Graph(n, rows)
        assert str(err.value) == f"asymmetric edge ({first[0]}, {first[1]})"
    assert asymmetric > 100


def test_is_complete():
    assert from_edges(3, [(0, 1), (0, 2), (1, 2)]).is_complete()
    assert Graph(1, (0,)).is_complete()
    assert not from_edges(3, [(0, 1), (1, 2)]).is_complete()


def test_components_ordering_and_removal():
    # two triangles: components listed by smallest member
    g = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    comps = components(g)
    assert [min(bits(c)) for c in comps] == [0, 3]
    assert len(comps) == 2
    assert not is_connected(g)
    # removing a whole triangle leaves one component
    assert len(components(g, removed=mask_of([0, 1, 2]))) == 1
    with pytest.raises(ValueError):
        components(g, removed=1 << 6)


def test_components_match_naive(rng):
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 0.4])
        got = sorted(sorted(bits(c)) for c in components(g))
        want = sorted(sorted(c) for c in components_naive(g))
        assert got == want


def test_relabel_is_isomorphism(rng):
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    perm = list(range(5))
    rng.shuffle(perm)
    h = relabel(g, perm)
    for u in range(5):
        for v in range(5):
            if u != v:
                assert g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2, 3])
    with pytest.raises(ValueError):
        relabel(g, [0, 1, 2])


def test_complement():
    g = from_edges(4, [(0, 1)])
    h = complement(g)
    assert h.edge_count() == 5
    assert not h.has_edge(0, 1)
    assert complement(h).adj == g.adj

