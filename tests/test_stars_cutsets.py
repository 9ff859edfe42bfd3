import json
from pathlib import Path

import pytest

from toughkit import (
    bits,
    build_jm,
    claw_centers,
    cutsets_of_size,
    from_edges,
    induced_stars,
    is_claw_free,
    mask_of,
)
from toughkit.generators import complete, cycle, line_graph, petersen, star
from toughkit.invariants import stars_json

from oracles import cutset_masks_naive, cutsets_naive, induced_stars_naive

# outputs pinned by the benchmark (read here, written only by perfbench/pin.py)
PINS = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())


def test_star_graph_claws():
    claws = induced_stars(star(3), 3)
    assert len(claws) == 1
    assert claws[0].center == 0
    assert claws[0].leaves == 0b1110
    assert claw_centers(star(3)) == 0b0001


def test_star4_k4_free_structure():
    g = star(4)
    assert len(induced_stars(g, 4)) == 1
    assert len(induced_stars(g, 3)) == 4  # any 3 of the 4 leaves
    assert claw_centers(g) == 0b00001


def test_no_claws_in_dense_or_cyclic_graphs():
    for g in (complete(5), cycle(6), line_graph(petersen()), build_jm(3).graph):
        assert is_claw_free(g)
        assert claw_centers(g) == 0
        assert induced_stars(g, 3) == []


def test_petersen_has_one_claw_per_vertex():
    # girth 5: every vertex's 3 neighbors are pairwise non-adjacent
    g = petersen()
    claws = induced_stars(g, 3)
    assert len(claws) == 10
    assert claw_centers(g) == g.full_mask
    assert not is_claw_free(g)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_jm_claw_centers_are_the_bridge_ends(m):
    lg = build_jm(m)
    assert claw_centers(lg.graph) == lg.labeling.x_mask()


def test_jm_has_no_k14_at_bridge_ends():
    lg = build_jm(5)
    x = lg.labeling.x_mask()
    stars4 = induced_stars(lg.graph, 4)
    assert all(not (x >> s.center & 1) for s in stars4)


def test_induced_star_instances_are_induced():
    for s in induced_stars(petersen(), 3):
        g = petersen()
        leaves = list(bits(s.leaves))
        assert all(g.has_edge(s.center, v) for v in leaves)
        assert all(not g.has_edge(u, v) for i, u in enumerate(leaves)
                   for v in leaves[i + 1:])


def test_stars_match_naive(rng):
    for _ in range(100):
        n = rng.randrange(5, 13)
        p = rng.choice([0.2, 0.35, 0.5])
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])
        for k in (3, 4):
            got = [(s.center, frozenset(bits(s.leaves))) for s in induced_stars(g, k)]
            assert got == induced_stars_naive(g, k)
        assert claw_centers(g) == mask_of({c for c, _ in induced_stars_naive(g, 3)})
    # wide neighbourhoods: the leaf recursion must keep combination order
    for _ in range(60):
        n = rng.randrange(5, 17)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])
        for k in (2, 3, 4, 5):
            got = [(s.center, frozenset(bits(s.leaves))) for s in induced_stars(g, k)]
            assert got == induced_stars_naive(g, k), (g.edges(), k)
        assert claw_centers(g) == mask_of({c for c, _ in induced_stars_naive(g, 3)})


def test_induced_stars_validates_k():
    with pytest.raises(ValueError):
        induced_stars(cycle(4), 1)


def test_cutsets_of_size_small_cases():
    assert cutsets_of_size(complete(4), 1) == []
    assert cutsets_of_size(complete(4), 2) == []
    # C_5: exactly the 5 non-adjacent pairs
    got = cutsets_of_size(cycle(5), 2)
    assert len(got) == 5
    assert mask_of([0, 2]) in got
    assert mask_of([0, 1]) not in got
    # oversized requests are empty, not an error
    assert cutsets_of_size(cycle(5), 4) == []
    assert cutsets_of_size(cycle(5), 5) == []
    with pytest.raises(ValueError):
        cutsets_of_size(cycle(5), 0)


def _random_graph(rng, n, p):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def _disjoint_union(g, h):
    return from_edges(g.n + h.n, g.edges() + [(g.n + u, g.n + v) for u, v in h.edges()])


def test_cutsets_match_naive(rng):
    graphs = [from_edges(12, []), from_edges(1, []), from_edges(2, [])]
    for p in (0.1, 0.3, 0.5, 0.8):
        graphs += [_random_graph(rng, rng.randint(1, 12), p) for _ in range(4)]
        graphs.append(_disjoint_union(_random_graph(rng, rng.randint(2, 6), p),
                                      _random_graph(rng, rng.randint(2, 6), p)))
    for g in graphs:
        for s in range(1, g.n + 1):
            want = sorted(mask_of(c) for c in cutsets_naive(g, s))
            assert cutsets_of_size(g, s) == want, (g.n, g.adj, s)


@pytest.mark.parametrize("m", range(5, 13))
def test_jm_cutsets_match_plain_walk(m):
    # the reference tries every s-set: at s = 6 it takes about 6 s on J_11
    # and 13 s on J_12, so those two stop at s = 5 (s = 6 is covered to m = 10)
    g = build_jm(m).graph
    for s in (4, 5, 6) if m <= 10 else (4, 5):
        assert cutsets_of_size(g, s) == cutset_masks_naive(g, s), s


def test_cutsets_are_ascending_masks():
    masks = cutsets_of_size(build_jm(4).graph, 4)
    assert masks == sorted(masks)


def test_cutset_counts_match_benchmark_pins():
    cases = [(m, s) for m in (7, 8, 9) for s in (5, 6)]
    counts = [len(cutsets_of_size(build_jm(m).graph, s)) for m, s in cases]
    assert counts == PINS["fixed"]["cutset_counts"]


def test_stars_json_shape():
    payload = stars_json(induced_stars(star(3), 3))
    assert payload == {
        "invariant": "claws",
        "count": 1,
        "stars": [{"center": 0, "leaves": [1, 2, 3]}],
    }
