"""Canonical forms, isomorph-free enumeration, and the census pipeline."""

import copy
import hashlib
import json
import os
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from toughkit import INFINITE, search
from toughkit.graphs import (
    EnvelopeError,
    Graph,
    bits,
    complement,
    components,
    from_edges,
    is_connected,
    mask_of,
    relabel,
)
from toughkit.generators import (
    build_jm,
    complete,
    cycle,
    cycle_power,
    path,
    petersen,
    random_connected_graph,
)
from toughkit.invariants import independence_number
from toughkit.search import (
    CANONICAL_MAX_VERTICES,
    PREDICATES,
    SearchSpec,
    canonical_form,
    enumerate_regular,
    run_census,
    _child_is_canonical,
    _descend,
    _extensions,
    _swap_beats,
    _tied_prefixes,
    _viable,
)
from toughkit.cli import main
from toughkit.formats import parse_graph6, serialize_graph6
from toughkit.parallel import worker_pool

from oracles import (
    check_regular_classes,
    components_naive,
    girth_naive,
    induced_stars_naive,
    is_connected_naive,
    is_independent_naive,
    toughness_oracle,
)

# outputs pinned by the benchmark (read here, written only by perfbench/pin.py)
PINS = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())


# ---------------------------------------------------------------------------
# canonical forms

def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_canonical_form_is_relabeling_invariant(rng):
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_connected_graph(n, rng, p=rng.choice([0.3, 0.5, 0.7]))
        ref = canonical_form(g)
        for _ in range(4):
            assert canonical_form(shuffled(g, rng)) == ref


def test_canonical_form_parses_back_to_isomorph():
    g = petersen()
    h = parse_graph6(canonical_form(g))
    assert h.n == g.n
    assert sorted(h.degree(v) for v in range(h.n)) == [3] * 10
    assert canonical_form(h) == canonical_form(g)


def test_canonical_form_separates_c6_from_two_triangles(rng):
    c6 = cycle(6)
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    assert canonical_form(c6) != canonical_form(two_triangles)
    # both 2-regular, so the forms must carry more than the degree sequence
    assert canonical_form(shuffled(two_triangles, rng)) == canonical_form(
        two_triangles
    )


def test_canonical_form_separates_cubic_graphs_by_girth():
    pet = petersen()
    prism = from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    assert all(prism.degree(v) == 3 for v in range(10))
    assert girth_naive(pet) == 5
    assert girth_naive(prism) == 4
    assert canonical_form(pet) != canonical_form(prism)


def test_canonical_form_envelope():
    g = cycle(CANONICAL_MAX_VERTICES + 1)
    with pytest.raises(EnvelopeError):
        canonical_form(g)
    canonical_form(cycle(CANONICAL_MAX_VERTICES))  # boundary is allowed


def _complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return from_edges(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                                  if part[u] != part[v]])


# graphs with automorphism groups far too large to walk one labeling at a time
SYMMETRIC_FORMS = [
    ("K_12", lambda: complete(12), "K~~~~~~~~~~~"),
    ("K_6,6", lambda: _complete_multipartite(6, 6), "KsaCB|}^b{No"),
    ("K_4,4,4", lambda: _complete_multipartite(4, 4, 4), "K}rD|y{^z~N{"),
    ("cocktail party", lambda: _complete_multipartite(*[2] * 6), "K~~~vnnv|~n~"),
    ("2K_6", lambda: complement(_complete_multipartite(6, 6)), "K~~w?CB?wF_^"),
    ("3K_4", lambda: complement(_complete_multipartite(4, 4, 4)), "K~?GW[??G@_F"),
]


@pytest.mark.parametrize("build,form", [case[1:] for case in SYMMETRIC_FORMS],
                         ids=[case[0] for case in SYMMETRIC_FORMS])
def test_canonical_form_of_symmetric_graphs(rng, build, form):
    g = build()
    assert canonical_form(g) == form
    for _ in range(3):
        assert canonical_form(shuffled(g, rng)) == form


def test_canonical_forms_count_the_small_classes():
    # every labeled graph on n <= 5 vertices; OEIS A000088
    for n, classes in enumerate([1, 2, 4, 11, 34], start=1):
        pairs = list(combinations(range(n), 2))
        forms = {canonical_form(from_edges(n, [e for i, e in enumerate(pairs) if m >> i & 1]))
                 for m in range(1 << len(pairs))}
        assert len(forms) == classes, n
        assert all(canonical_form(parse_graph6(f)) == f for f in forms)


# ---------------------------------------------------------------------------
# enumeration

ENUM_COUNTS = [
    # (n, r, connected class count)
    (5, 4, 1),
    (6, 4, 1),
    (7, 4, 2),
    (8, 4, 6),
    (4, 3, 1),
    (6, 3, 2),
    (8, 3, 5),
    (5, 2, 1),
    (6, 2, 1),
    (9, 2, 1),
    (2, 1, 1),
    (4, 1, 0),
    (1, 0, 1),
    (2, 0, 0),
    # OEIS A006820 (connected quartic) and A002851 (connected cubic)
    (9, 4, 16),
    (10, 4, 59),
    (10, 3, 19),
    (12, 3, 85),
]


@pytest.mark.parametrize("n,r,count", ENUM_COUNTS)
def test_enumerate_regular_counts(n, r, count):
    assert len(enumerate_regular(n, r)) == count


def test_enumerate_regular_output_contract():
    gs = enumerate_regular(8, 4)
    forms = [serialize_graph6(g) for g in gs]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)
    for g in gs:
        assert all(g.degree(v) == 4 for v in range(g.n))
        assert canonical_form(g) == serialize_graph6(g)


def test_enumerate_regular_rejections():
    with pytest.raises(EnvelopeError):
        enumerate_regular(13, 2)
    with pytest.raises(EnvelopeError):
        enumerate_regular(8, 5)
    with pytest.raises(ValueError):
        enumerate_regular(4, 4)  # r must stay below n
    with pytest.raises(ValueError):
        enumerate_regular(5, 3)  # odd degree sum
    with pytest.raises(ValueError):
        enumerate_regular(3, -1)


def test_enumeration_matches_labeled_oracle():
    # the oracle (orbit-stabilizer count, pairwise non-isomorphism) uses no
    # canonical form
    for n in range(2, 8):
        for r in range(0, min(n, 5)):
            if n * r % 2:
                continue
            classes = enumerate_regular(n, r)
            assert all(canonical_form(g) == serialize_graph6(g) for g in classes)
            check_regular_classes(classes, n, r)


def test_enumerate_regular_of_degree_at_most_one():
    # the only connected classes are K_1 and K_2; every larger prefix closes
    # a component or cannot finish, so the search stops near the root
    # instead of walking the automorphisms of an empty graph
    for n in range(1, CANONICAL_MAX_VERTICES + 1):
        for r in (0, 1):
            if r < n and n * r % 2 == 0:
                expected = [serialize_graph6(complete(n))] if n == r + 1 else []
                assert [serialize_graph6(g) for g in enumerate_regular(n, r)] == expected


def test_enumerate_order_11_quartic_with_two_workers():
    assert len(enumerate_regular(11, 4, workers=2)) == 265  # OEIS A006820


def _digest(text):
    # the rule of perfbench/check.py's digest
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_enumeration_and_census_match_benchmark_pins(capsys):
    for n, r in ((10, 4), (11, 4), (12, 3)):
        lines = [serialize_graph6(g) for g in enumerate_regular(n, r, workers=2)]
        assert _digest("\n".join(lines)) == PINS["fixed"][f"classes_n{n}r{r}"], (n, r)
    code = main(["census", "--n", "11", "--r", "4", "--connected", "--supertough"])
    out = capsys.readouterr().out
    assert code == PINS["census"]["exit"]
    assert _digest(out) == PINS["census"]["stdout"]


def _feasible_naive(grown, n, r):
    s = n - len(grown)
    need = [r - row.bit_count() for row in grown]
    spare = r * s - sum(need)
    return (min(need) >= 0 and max(need) <= s and spare >= 0
            and spare % 2 == 0 and spare <= s * (s - 1))


def _is_canonical(rows):
    """Is this labeling its own canonical one?  A full labeling walk,
    independent of the tied-prefix trie."""
    g = Graph(len(rows), tuple(rows))
    return canonical_form(g) == serialize_graph6(g)


def _grow(rows, newrow):
    k = len(rows)
    return [row | (newrow >> v & 1) << k for v, row in enumerate(rows)] + [newrow]


def _canonical_children(rows, n, r):
    """The canonical children of ``rows``, with no barren-child skip."""
    for newrow in _extensions(rows, n, r):
        if not _swap_beats(rows, newrow):
            grown = _grow(rows, newrow)
            if _is_canonical(grown):
                yield grown


# connected r-regular classes for r > 4, beyond enumerate_regular's envelope
# (OEIS A006821, A006822)
_WIDE_COUNTS = {(6, 5): 1, (8, 5): 3, (7, 6): 1, (8, 6): 1, (9, 6): 4}


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 10) for r in range(0, 7)
                                 if r < n and n * r % 2 == 0] + [(10, 3)])
def test_extensions_are_exactly_the_feasible_subsets(n, r):
    # on every canonical prefix, barren or not, compare the generator with
    # a filter over every subset of the open vertices; the levels are grown
    # here, so r > 4 needs no lift of enumerate_regular's cap
    level = [[0]]
    while level and len(level[0]) < n:
        for rows in level:
            open_verts = [v for v in range(len(rows)) if rows[v].bit_count() < r]
            feasible = sorted(mask_of(combo)
                              for size in range(len(open_verts) + 1)
                              for combo in combinations(open_verts, size)
                              if _feasible_naive(_grow(rows, mask_of(combo)), n, r))
            assert sorted(_extensions(rows, n, r)) == feasible, (n, r, rows)
        level = [grown for rows in level for grown in _canonical_children(rows, n, r)]
    assert all(row.bit_count() == r for rows in level for row in rows)
    connected = [rows for rows in level if is_connected(Graph(n, tuple(rows)))]
    expected = _WIDE_COUNTS[n, r] if r > 4 else len(enumerate_regular(n, r))
    assert len(connected) == expected


def _barren(grown, n, r):
    """Would the search skip this child?  Its new vertex closes an r-regular
    component, or none of its extensions survives the swap test."""
    g = Graph(len(grown), tuple(grown))
    last = 1 << g.n - 1
    comp = next(c for c in components(g) if c & last)
    closed = all(g.degree(v) == r for v in range(g.n) if comp >> v & 1)
    return closed or all(_swap_beats(grown, e) for e in _extensions(grown, n, r))


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 10) for r in range(0, 5)
                                 if r < n and n * r % 2 == 0] + [(10, 3)])
def test_barren_child_skip_loses_no_leaf(n, r):
    # walk the orderly search without the skip; no connected leaf lies below
    # a child the skip drops, and the connected leaves are enumerate_regular's
    # classes.  Only canonical children are walked: the canonical form is
    # prefix-closed, so a dropped non-canonical child has no canonical leaf.
    leaves = []

    def walk(rows, dropped_at):
        if len(rows) == n:
            g = Graph(n, tuple(rows))
            if is_connected(g):
                assert dropped_at is None, (n, r, dropped_at, rows)
                leaves.append(serialize_graph6(g))
            return
        for grown in _canonical_children(rows, n, r):
            if dropped_at is None and len(grown) < n and _barren(grown, n, r):
                walk(grown, grown)
            else:
                walk(grown, dropped_at)

    walk([0], None)
    assert sorted(leaves) == [serialize_graph6(g) for g in enumerate_regular(n, r)]


def test_swap_prefilter_never_rejects_a_canonical_extension():
    # walk the orderly search without the prefilter and test it on every
    # candidate extension the full canonicity check sees
    rejected = kept = 0
    for n in range(4, 10):
        for r in (3, 4):
            if r >= n or n * r % 2:
                continue
            level = [[0]]
            for k in range(1, n):
                nxt = []
                for rows in level:
                    for newrow in _extensions(rows, n, r):
                        grown = _grow(rows, newrow)
                        canonical = _is_canonical(grown)
                        if _swap_beats(rows, newrow):
                            assert not canonical, (n, r, grown)
                            rejected += 1
                        else:
                            kept += 1
                        if canonical:
                            nxt.append(grown)
                level = nxt
            assert len([g for g in level if is_connected(Graph(n, tuple(g)))]) == len(
                enumerate_regular(n, r))
    assert rejected > kept > 0


def test_serial_search_builds_only_feasible_candidates(monkeypatch):
    # the swap test runs once on every feasible extension of each kept
    # prefix and of each child tested for barrenness, and the canonicity
    # check once on each child that is not barren (the breadth-first levels
    # hand their candidates on, so no list is built twice); noise-free,
    # unlike a timing
    calls = {"swap": 0, "canonical": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(search, "_swap_beats", counted("swap", _swap_beats))
    monkeypatch.setattr(search, "_child_is_canonical",
                        counted("canonical", _child_is_canonical))
    assert len(enumerate_regular(10, 4, workers=1)) == 59
    assert calls == {"swap": 27159, "canonical": 1674}


@pytest.mark.parametrize("n,r", [(10, 4), (10, 3)])
def test_enumerate_workers_do_not_change_output(monkeypatch, n, r):
    task_counts = []

    @contextmanager
    def counting_pool(workers):
        with worker_pool(workers) as pmap:
            def spy(fn, tasks):
                task_counts.append(len(tasks))
                return pmap(fn, tasks)
            yield spy

    monkeypatch.setattr(search, "worker_pool", counting_pool)
    solo = enumerate_regular(n, r, workers=1)
    multi = enumerate_regular(n, r, workers=2)
    # every worker count takes the same path: one level split into 8 strided
    # groups per worker, each grown to order n by one map task
    assert task_counts == [8, 16]
    assert [serialize_graph6(g) for g in multi] == [serialize_graph6(g) for g in solo]


def _tied_set(verts, pars) -> set:
    """Every tied prefix in a trie, as a tuple of vertices."""
    out = {()}
    for d in range(1, len(verts)):
        for i, v in enumerate(verts[d]):
            prefix = [v]
            node = pars[d][i]
            for e in range(d - 1, 0, -1):
                prefix.append(verts[e][node])
                node = pars[e][node]
            out.add(tuple(reversed(prefix)))
    return out


def _naive_tied_set(rows) -> set:
    """Every partial labeling whose columns equal the identity's, found by
    trying every vertex at every position."""
    n = len(rows)

    def col(v, placed):
        return [rows[v] >> p & 1 for p in placed]

    out = set()
    frontier = [()]
    while frontier:
        out.update(frontier)
        frontier = [p + (v,) for p in frontier for v in range(n)
                    if v not in p and col(v, p) == col(len(p), range(len(p)))]
    return out


@pytest.mark.parametrize("n,r", [(n, r) for n in range(4, 10) for r in (3, 4)
                                 if r < n and n * r % 2 == 0] + [(10, 3)])
def test_parent_check_matches_full_check(n, r):
    # walk the orderly search without the prefilter; every feasible candidate
    # gets the parent-based check and the full one, and every accepted graph's
    # carried tied prefixes are compared with a fresh walk
    accepted = rejected = 0
    level = [([0], _tied_prefixes([0], n))]
    for k in range(1, n):
        nxt = []
        for rows, (verts, pars, want) in level:
            for newrow in _extensions(rows, n, r):
                grown = _grow(rows, newrow)
                child_want = want + [int("".join(str(newrow >> v & 1)
                                                 for v in range(k)), 2)]
                canonical = _is_canonical(grown)
                child_verts = [vs.copy() for vs in verts]
                child_pars = [ps.copy() for ps in pars]
                assert _child_is_canonical(grown, child_want, child_verts,
                                           child_pars) == canonical, grown
                if not canonical:
                    rejected += 1
                    continue
                accepted += 1
                carried = _tied_set(child_verts, child_pars)
                fresh_verts, fresh_pars, fresh_want = _tied_prefixes(grown, n)
                assert fresh_want == child_want
                assert carried == _tied_set(fresh_verts, fresh_pars), grown
                if k < 7:
                    assert carried == _naive_tied_set(grown), grown
                nxt.append((grown, (child_verts, child_pars, child_want)))
        level = nxt
    assert len([g for g, _ in level if is_connected(Graph(n, tuple(g)))]) == len(
        enumerate_regular(n, r))
    assert accepted > 0 and (rejected > 0 or n == r + 1)  # K_n rejects no candidate


@pytest.mark.parametrize("n,r", [(8, 3), (9, 4)])
def test_descend_leaves_the_trie_as_it_found_it(n, r):
    # every canonicity check records the child's tied prefixes, a leaf's
    # included, so _descend must cut the trie back after each candidate;
    # grow a few canonical parents of each order to the leaves and compare
    # their tries with copies taken before
    leaves = 0
    level = [[0]]
    while len(level[0]) < n - 1:
        level = [grown for rows in level for grown in _canonical_children(rows, n, r)]
        for rows in level[:3]:
            trie = _tied_prefixes(rows, n)
            before = copy.deepcopy(trie)
            out = []
            _descend(rows, _viable(rows, n, r), trie, n, n, r, out)
            assert trie == before, rows
            leaves += len(out)
    assert leaves > 0


# ---------------------------------------------------------------------------
# census: spec validation

def test_searchspec_validation():
    with pytest.raises(ValueError):
        SearchSpec(8, 4, predicates=("sparkly",))
    with pytest.raises(ValueError):
        SearchSpec(8, 4, predicates=("claw_free", "has_claw"))
    with pytest.raises(ValueError):
        SearchSpec(7, 3)  # odd degree sum
    with pytest.raises(ValueError):
        SearchSpec(4, 4)
    with pytest.raises(ValueError):
        SearchSpec(8, 4, source="folklore")
    spec = SearchSpec(8, 4, predicates=("supertough", "connected", "connected"))
    assert spec.predicates == ("connected", "supertough")
    assert set(spec.predicates) <= set(PREDICATES)


def test_predicates_match_the_oracles():
    # every connected quartic class on up to 10 vertices (K_5 is the one on
    # five), then two disjoint triangles, a disconnected 2-regular graph,
    # then the connected cubic classes on 6, 8 and 10 vertices (one
    # supertough class on 6, none on 8 or 10)
    cases = [(g, 4) for n in range(5, 11) for g in enumerate_regular(n, 4)]
    cases.append((from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), 2))
    cases += [(g, 3) for n in (6, 8, 10) for g in enumerate_regular(n, 3)]
    assert len(cases) == 112 and cases[0][0] == complete(5)
    for g, r in cases:
        claws = len(induced_stars_naive(g, 3))
        cert = toughness_oracle(g)
        want = {
            "connected": is_connected_naive(g),
            "claw_free": claws == 0,
            "has_claw": claws > 0,
            "supertough": cert is not INFINITE and cert.value == Fraction(r, 2),
        }
        assert {name: test(g, r) for name, test in PREDICATES.items()} == want, g


@pytest.mark.parametrize("n, r, rejected, classes",
                         [(10, 4, 32, 59), (11, 4, 250, 265), (12, 3, 78, 85)])
def test_supertough_alpha_rejections_carry_a_cut(monkeypatch, n, r, rejected, classes):
    # a class the supertough predicate turns down without calling is_t_tough
    # must have a maximum independent set I whose cut V - I leaves |I|
    # components, |I| > 2n/(r + 2) of them, so its toughness is below r/2
    calls = []
    decide = search.is_t_tough
    monkeypatch.setattr(search, "is_t_tough", lambda g, t: calls.append(g) or decide(g, t))
    graphs = enumerate_regular(n, r, workers=2)
    assert len(graphs) == classes
    skipped = []
    for g in graphs:
        before = len(calls)
        if not PREDICATES["supertough"](g, r) and len(calls) == before:
            skipped.append(g)
    assert len(skipped) == rejected
    for g in skipped:
        alpha, witness = independence_number(g)
        indep = set(bits(witness))
        cut = frozenset(range(n)) - indep
        assert len(indep) == alpha and is_independent_naive(g, indep), g
        assert len(components_naive(g, cut)) == len(indep), g
        assert Fraction(n - len(indep), len(indep)) < Fraction(r, 2), g


def test_census_source_and_stream_must_agree():
    with pytest.raises(ValueError):
        run_census(SearchSpec(5, 4), stream=["D~{"])
    with pytest.raises(ValueError):
        run_census(SearchSpec(5, 4, source="stream"))


# ---------------------------------------------------------------------------
# census: builtin source

def test_census_quartic_order_8():
    res = run_census(SearchSpec(8, 4, predicates=("connected", "supertough")))
    assert res.examined == 6
    assert res.complete_graphs == 0
    assert res.counts == {"regular": 6, "connected": 6, "supertough": 2}
    forms = [rec["graph6"] for rec in res.survivors]
    assert forms == ["G}hPW{", "G~`HW{"]
    assert canonical_form(cycle_power(8, 2)) in forms
    for rec in res.survivors:
        assert rec["toughness"]["value"] == {"num": 2, "den": 1}
        assert rec["has_claw"] is False
        assert rec["connectivity"]["value"] == {"num": 4, "den": 1}


def test_census_complete_graph_convention():
    # K_5 is the lone quartic graph on five vertices; its toughness is the
    # infinite sentinel, so it never counts as supertough
    res = run_census(SearchSpec(5, 4, predicates=("connected", "supertough")))
    assert res.examined == 1
    assert res.complete_graphs == 1
    assert res.counts["supertough"] == 0
    assert res.survivors == []


def test_census_claw_predicates_partition_the_universe():
    base = SearchSpec(8, 4, predicates=("connected",))
    free = SearchSpec(8, 4, predicates=("connected", "claw_free"))
    clawed = SearchSpec(8, 4, predicates=("connected", "has_claw"))
    total = run_census(base).counts["connected"]
    a = run_census(free).counts["claw_free"]
    b = run_census(clawed).counts["has_claw"]
    assert a + b == total
    assert a == 2


def test_census_worker_count_is_invisible():
    for n in (8, 10):
        spec = SearchSpec(n, 4, predicates=("connected", "supertough"))
        solo = run_census(spec, workers=1).to_json_dict()
        multi = run_census(spec, workers=2).to_json_dict()
        assert solo == multi


# ---------------------------------------------------------------------------
# worker pool

def _pid(_):
    return os.getpid()


def test_worker_pool_rejects_fewer_than_one_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            with worker_pool(workers):
                pass


def test_worker_pool_caps_workers_at_core_count(monkeypatch):
    # the affinity set wins over the core count where the OS has one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with worker_pool(2) as pmap:
        assert pmap(_pid, range(4)) == [os.getpid()] * 4  # plain loop, no fork
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cores in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        with worker_pool(2) as pmap:
            assert pmap(_pid, range(4)) == [os.getpid()] * 4  # plain loop, no fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with worker_pool(2) as pmap:
        assert os.getpid() not in pmap(_pid, range(8))  # forked despite one core
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with worker_pool(2) as pmap:
        pids = pmap(_pid, range(8))
        assert pmap(str, [3, 1, 2]) == ["3", "1", "2"]  # one pool, many maps
    assert os.getpid() not in pids and len(set(pids)) <= 2


# ---------------------------------------------------------------------------
# census: stream source

def test_census_envelope_is_checked_before_the_stream_is_read():
    def unread():
        raise AssertionError("stream read past the envelope")
        yield

    for source, stream in (("stream", unread()), ("builtin", None)):
        with pytest.raises(EnvelopeError):
            run_census(SearchSpec(CANONICAL_MAX_VERTICES + 1, 2, source=source),
                       stream=stream)


def test_census_stream_records_errors_and_continues():
    good = serialize_graph6(cycle_power(8, 2))
    wrong_order = serialize_graph6(cycle(5))
    stream = [good, "", "not graph6 at all\n", wrong_order, good]
    res = run_census(
        SearchSpec(8, 4, source="stream", predicates=("connected", "supertough")),
        stream=stream,
    )
    assert res.examined == 2  # the blank line is skipped silently
    assert res.counts["supertough"] == 2
    assert [ln for ln, _ in res.errors] == [3, 4]
    assert "expected order 8" in res.errors[1][1]


def test_census_stream_filters_irregular_graphs():
    stream = [serialize_graph6(path(6)), serialize_graph6(cycle(6))]
    res = run_census(SearchSpec(6, 2, source="stream", predicates=("connected",)),
                     stream=stream)
    assert res.examined == 2
    assert res.counts["regular"] == 1
    assert res.counts["connected"] == 1
    assert len(res.survivors) == 1
    assert res.survivors[0]["graph6"] == canonical_form(cycle(6))


def test_census_stream_accepts_jm_family():
    stream = [serialize_graph6(build_jm(4).graph)]
    res = run_census(
        SearchSpec(11, 4, source="stream", predicates=("connected", "supertough")),
        stream=stream,
    )
    assert res.examined == 1
    assert res.counts["supertough"] == 0  # toughness 7/4 falls short


def test_census_json_shape():
    res = run_census(SearchSpec(6, 2, predicates=("connected",)))
    d = res.to_json_dict()
    assert d["spec"] == {
        "n": 6, "r": 2, "source": "builtin", "predicates": ["connected"],
    }
    assert d["examined"] == 1
    assert d["errors"] == []
    assert {"graph6", "toughness", "connectivity", "has_claw"} <= set(
        d["survivors"][0]
    )
