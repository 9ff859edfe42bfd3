import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from toughkit import (
    INFINITE,
    build_jm,
    connectivity,
    from_edges,
    independence_number,
    invariants,
    is_t_tough,
    mask_of,
    toughness,
)
from toughkit.cli import main
from toughkit.formats import parse_graph6, serialize_graph6
from toughkit.generators import (
    complete,
    cycle,
    cycle_power,
    line_graph,
    path,
    petersen,
    random_connected_graph,
    star,
)
from toughkit.graphs import EnvelopeError, components
from toughkit.invariants import (
    _dinkelbach,
    _dp_steps,
    _frontier_dp,
    _frontier_plan,
    _grown_seeds,
    _isolation_seed,
    _representatives,
    _seed_cuts,
    _size_cuts,
    _sweep_sizes,
    _sweep_value,
    _union_tables,
    toughness_json,
)

from oracles import cutsets_naive, first_violation_naive, frontier_plan_naive, toughness_oracle

# graph6 -> output digests of the four invariant commands, recorded from the
# benchmark's corpus pool (336 labelings of 42 random graphs, n 14-20)
CORPUS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())["corpus"]

# value, lex-min witness mask, component count; all derived by the unpruned
# 2^n oracle and frozen here
FIXTURE_VALUES = [
    (lambda: path(3), Fraction(1, 2), 0b010, 2),
    (lambda: path(5), Fraction(1, 2), 0b00010, 2),
    (lambda: cycle(4), Fraction(1), 0b0101, 2),
    (lambda: cycle(5), Fraction(1), 0b00101, 2),
    (lambda: cycle(6), Fraction(1), 0b000101, 2),
    (lambda: star(3), Fraction(1, 3), 0b0001, 3),
    (lambda: star(4), Fraction(1, 4), 0b00001, 4),
    (petersen, Fraction(4, 3), 116, 3),
    (lambda: cycle_power(8, 2), Fraction(2), 27, 2),
    (lambda: cycle_power(10, 2), Fraction(2), 27, 2),
    (lambda: line_graph(complete(4)), Fraction(2), 30, 2),
    (lambda: build_jm(3).graph, Fraction(2), 27, 2),
    (lambda: build_jm(4).graph, Fraction(7, 4), 1882, 4),
    (lambda: build_jm(5).graph, Fraction(2), 99, 2),
    # the isolation seed {3} (mask 8) ties the optimum; only a sweep that
    # also scans the tie size finds the smaller mask {1}
    (lambda: from_edges(5, [(0, 1), (0, 4), (1, 3), (1, 4), (2, 3)]), Fraction(1, 2), 0b00010, 2),
]


@pytest.mark.parametrize("build,value,witness,k", FIXTURE_VALUES)
def test_frozen_values_solver(build, value, witness, k):
    cert = toughness(build())
    assert (cert.value, cert.witness_cut, cert.component_count) == (value, witness, k)
    assert cert.validate(build())


@pytest.mark.parametrize("build,value,witness,k", FIXTURE_VALUES)
def test_frozen_values_oracle(build, value, witness, k):
    cert = toughness_oracle(build())
    assert (cert.value, cert.witness_cut, cert.component_count) == (value, witness, k)


def test_jm_witness_is_the_aligned_pair():
    # lex-min optimal cut for odd m: {a_1, a_2, b_1, b_2}
    lg = build_jm(5)
    lab = lg.labeling
    cert = toughness(lg.graph)
    assert cert.witness_cut == mask_of([lab.a(1), lab.a(2), lab.b(1), lab.b(2)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complete_graphs_are_infinite(n):
    assert toughness(complete(n)) is INFINITE
    assert toughness_oracle(complete(n)) is INFINITE


def test_infinite_sentinel_compares_above_everything():
    assert INFINITE > Fraction(10**9)
    assert not (INFINITE < Fraction(2))
    assert INFINITE == INFINITE
    assert toughness_json(INFINITE)["value"] == "infinite"


def test_disconnected_graph_has_toughness_zero():
    g = from_edges(4, [(0, 1), (2, 3)])
    cert = toughness(g)
    assert cert.value == 0
    assert cert.witness_cut == 0
    assert cert.component_count == 2
    o = toughness_oracle(g)
    assert (o.value, o.witness_cut, o.component_count) == (0, 0, 2)


def test_oracle_envelope():
    with pytest.raises(EnvelopeError):
        toughness_oracle(cycle(23))


def test_solver_matches_oracle_on_randoms(rng):
    for _ in range(60):
        n = rng.randrange(3, 9)
        g = random_connected_graph(n, rng, p=rng.choice([0.3, 0.5, 0.8]))
        s, o = toughness(g), toughness_oracle(g)
        if o is INFINITE:
            assert s is INFINITE
        else:
            assert (s.value, s.witness_cut, s.component_count) == \
                (o.value, o.witness_cut, o.component_count)


def _invariant(capsys, monkeypatch, which, g6, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(g6 + "\n"))
    code = main(["invariant", which, "--stdin", *argv])
    out = capsys.readouterr().out
    assert code == 0, g6
    return out


def test_workers_do_not_change_results(capsys, monkeypatch):
    # toughness itself runs in one process; the CLI still takes --workers
    # and its output must not depend on it
    by_edges = {len(parse_graph6(g6).edges()): g6 for g6 in sorted(CORPUS)}
    densest = [g6 for _, g6 in sorted(by_edges.items())[-5:]]
    for g6 in [serialize_graph6(build_jm(7).graph)] + densest:
        outs = {_invariant(capsys, monkeypatch, "toughness", g6, "--workers", w) for w in "12"}
        assert len(outs) == 1, g6


def test_toughness_at_most_half_connectivity(rng):
    from toughkit import connectivity
    for _ in range(30):
        g = random_connected_graph(rng.randrange(3, 9), rng, p=0.5)
        cert = toughness(g)
        if cert is INFINITE:
            continue
        assert cert.value <= Fraction(connectivity(g).kappa, 2)


def test_adding_edge_never_decreases_toughness(rng):
    for _ in range(25):
        n = rng.randrange(4, 8)
        g = random_connected_graph(n, rng, p=0.4)
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if not g.has_edge(u, v)]
        if not missing:
            continue
        extra = rng.choice(missing)
        h = from_edges(n, g.edges() + [extra])
        before = toughness_oracle(g)
        after = toughness_oracle(h)
        b = Fraction(10**9) if before is INFINITE else before.value
        a = Fraction(10**9) if after is INFINITE else after.value
        assert a >= b


def test_is_t_tough_decision():
    c6 = cycle(6)
    ok, witness = is_t_tough(c6, Fraction(1))
    assert ok and witness is None
    ok, witness = is_t_tough(c6, Fraction(11, 10))
    assert not ok
    # returned witness really violates: |S| < t * k
    k = len(components(c6, removed=witness))
    assert Fraction(bin(witness).count("1")) < Fraction(11, 10) * k

    ok, witness = is_t_tough(star(3), Fraction(1, 2))
    assert not ok and witness == 0b0001  # the center

    assert is_t_tough(build_jm(5).graph, Fraction(2))[0]
    assert not is_t_tough(build_jm(4).graph, Fraction(2))[0]


def test_is_t_tough_edge_conventions():
    disconnected = from_edges(4, [(0, 1), (2, 3)])
    assert is_t_tough(disconnected, Fraction(0)) == (True, None)
    ok, witness = is_t_tough(disconnected, Fraction(1, 100))
    assert not ok and witness == 0
    assert is_t_tough(complete(4), Fraction(100))[0]
    with pytest.raises(ValueError):
        is_t_tough(cycle(4), Fraction(-1))


def test_next_rational_fails(rng):
    # any rational strictly above the toughness, with denominator up to n,
    # must be rejected by the decision procedure
    for _ in range(15):
        n = rng.randrange(3, 8)
        g = random_connected_graph(n, rng, p=0.5)
        cert = toughness(g)
        if cert is INFINITE:
            continue
        assert is_t_tough(g, cert.value)[0]
        for den in range(1, n + 1):
            above = Fraction(cert.value.numerator * den // cert.value.denominator + 1, den)
            assert above > cert.value
            assert not is_t_tough(g, above)[0]


# ---------------------------------------------------------------------------
# frontier DP value path

def _seed(g):
    """The isolation seed, with the union tables toughness() builds for it."""
    return _isolation_seed(g, _union_tables(g.adj, g.n))


def _plan(g):
    """The whole greedy ordering, as (steps, widths)."""
    pairs = list(_frontier_plan(g))
    return [step for step, _ in pairs], [width for _, width in pairs]


def _dp_result(g):
    """(value, witness, k) from Dinkelbach's iteration on the DP alone."""
    steps, _ = _plan(g)
    s, k, witness = _dinkelbach(steps, *_seed(g)[:2])
    return Fraction(s, k), witness, k


def _dp_value(g):
    return _dp_result(g)[0]


def _dp_chosen(g):
    """Whether toughness() takes the DP path for g (its cost rule)."""
    alpha, _ = independence_number(g)
    return _dp_steps(g, alpha, *_seed(g)[:2], ties=True) is not None


def test_dp_value_matches_oracle_on_randoms(rng):
    checked = 0
    while checked < 200:
        n = rng.randrange(4, 13)
        g = random_connected_graph(n, rng, p=rng.choice([0.2, 0.35, 0.5, 0.7]))
        o = toughness_oracle(g)
        if o is INFINITE:
            continue
        assert _dp_result(g) == (o.value, o.witness_cut, o.component_count), g.edges()
        checked += 1


# sparse graphs past the corpus pool's n <= 20, with their (|S|, k, witness):
# n = 25 at frontier width 10 and n = 24 at width 9.  Both take the sweep:
# forced, the DP takes 165-200 and 46-63 ms there, the sweep 10-19 and 24-35 ms
WIDE_GRAPHS = {
    "XOCgO?S?BAs?X?Aq_BlCCtAiCMxG@GG?EX_CO@_?PT?Gf_H?TA?": (3, 2, mask_of([1, 11, 12])),
    "W?_C_?Lg?O??BJWA?K@_?aOKA?C???TDHKiCGQIHUO?GCdP": (2, 2, mask_of([0, 2])),
}


def test_dp_matches_sweep_beyond_the_oracle_range(rng):
    # sparse graphs up to n = 20 can take the DP, past the n <= 12 that the
    # DP-against-oracle test covers; both forced paths must give the same
    # (|S|, k, lex-min witness)
    cases = [(random_connected_graph(rng.randrange(14, 21), rng, p=rng.choice([0.1, 0.15, 0.2])),
              None) for _ in range(40)]
    cases += [(parse_graph6(g6), want) for g6, want in WIDE_GRAPHS.items()]
    for g, want in cases:
        tables = _union_tables(g.adj, g.n)
        seed = _isolation_seed(g, tables)
        steps, _ = _plan(g)
        swept = _sweep_value(g, tables, independence_number(g)[0], seed)
        assert _dinkelbach(steps, *seed[:2]) == swept, g.edges()
        assert want is None or swept == want, g.edges()


JM_VALUES = {3: Fraction(2), 4: Fraction(7, 4), 5: Fraction(2), 6: Fraction(11, 6),
             7: Fraction(2), 8: Fraction(15, 8), 9: Fraction(2)}
# J_8's certificate comes from the subset sweep at the commit before the DP
# existed (33 s there), J_10's from the separate lex-min witness scan that
# followed the DP value (95.7 s on 2 cores); the DP must reproduce both
JM_CERTIFICATES = {
    8: ({"num": 15, "den": 8}, [1, 3, 5, 7, 8, 10, 12, 14, 16, 17, 18, 19, 20, 21, 22], 8),
    10: ({"num": 19, "den": 10},
         [1, 3, 5, 7, 9, 10, 12, 14, 16, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28], 10),
}


@pytest.mark.parametrize("m", sorted(JM_VALUES))
def test_dp_pins_jm_values(m):
    g = build_jm(m).graph
    assert _dp_value(g) == JM_VALUES[m]


@pytest.mark.parametrize("m", sorted(JM_CERTIFICATES))
def test_jm_certificates_are_pinned(m):
    g = build_jm(m).graph
    assert _dp_chosen(g)
    cert = toughness(g)
    value, witness, k = JM_CERTIFICATES[m]
    assert toughness_json(cert) == {
        "invariant": "toughness", "value": value, "witness": witness, "components": k,
    }
    assert cert.validate(g)


def test_jm_frontier_stays_narrow():
    # J_m has a width-5 path decomposition, so the DP is linear in m
    for m in (5, 9, 13):
        assert max(_plan(build_jm(m).graph)[1]) <= 5


def test_frontier_plan_matches_naive(rng):
    # the single-neighbour mask must pick the same vertex at every step as
    # recounting each candidate's closed frontier vertices
    graphs = [build_jm(m).graph for m in range(3, 14)]
    graphs += [random_connected_graph(rng.randrange(8, 21), rng,
                                      p=rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]))
               for _ in range(200)]
    for g in graphs:
        assert _plan(g) == frontier_plan_naive(g), g.edges()


def test_cost_rule_sends_jm7_to_dp_and_dense_randoms_to_sweep(rng):
    # forced sweeps take J_6 13-25 ms, J_7 0.10-0.18 s and J_9 6.5-8.5 s,
    # against 3-11 ms on the DP
    for m in range(6, 14):
        assert _dp_chosen(build_jm(m).graph), m
    for n in range(14, 21):
        g = random_connected_graph(n, rng, p=0.45)
        assert not _dp_chosen(g), g.edges()


def _full_ordering_route(g, alpha, p, q, ties):
    """The cost rule on the whole greedy ordering, recomputed: the DP's
    steps when the sweep's C(n, s) sum reaches the floor and the weighted
    Bell sum over every step stays under it, else None."""
    sweep = 0
    for s in range(1, g.n - 1):
        kcap = min(g.n - s, alpha)
        if kcap < 2 or s * q > p * kcap or (s * q == p * kcap and not ties):
            break
        sweep += comb(g.n, s)
    steps, widths = frontier_plan_naive(g)
    bell = [1]  # B_{m+1} = sum over k of C(m, k) B_k
    while len(bell) <= max(widths) + 1:
        m = len(bell) - 1
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
    dp = invariants._DP_STATE_COST * sum(3 * bell[w + 1] for w in widths)
    return steps if sweep >= invariants._DP_MIN_SWEEP_WORK and dp < sweep else None


def test_ordering_stops_early_without_moving_the_route(rng, monkeypatch):
    # _dp_steps stops the ordering once the DP's running estimate reaches
    # the sweep's; the route must be the one the whole ordering gives
    graphs = [build_jm(m).graph for m in range(3, 14)]
    graphs += [random_connected_graph(rng.randrange(14, 25), rng,
                                      p=rng.choice([0.1, 0.15, 0.2, 0.3, 0.45]))
               for _ in range(60)]
    whole = invariants._frontier_plan
    placed = []

    def counted(g):
        for pair in whole(g):
            placed.append(pair)
            yield pair

    monkeypatch.setattr(invariants, "_frontier_plan", counted)
    routes, stopped = set(), 0
    for g in graphs:
        alpha, _ = independence_number(g)
        p, q, _ = _seed(g)
        for ties in (True, False):
            placed.clear()
            steps = _dp_steps(g, alpha, p, q, ties=ties)
            assert steps == _full_ordering_route(g, alpha, p, q, ties), g.edges()
            routes.add(steps is not None)
            stopped += 0 < len(placed) < g.n
    assert routes == {True, False}
    assert stopped > 20


def test_toughness_sweep_estimate_counts_the_tie_size(monkeypatch):
    # toughness's sweep also scans the size whose cap only ties the seed
    # ratio; is_t_tough's stops before it, since a violation is strict
    assert list(_sweep_sizes(20, 10, 1, 2, ties=True)) == [1, 2, 3, 4, 5]
    assert list(_sweep_sizes(20, 10, 1, 2)) == [1, 2, 3, 4]
    # n = 22, kappa = 1, alpha = 10: the seed {14} has ratio 1/2, and the tie
    # size 5 (26 334 of 35 442 subsets) tips the estimate to the DP, which
    # finds the smaller optimal mask {3} (forced: DP 1.2-1.3 ms, sweep 3.8-4.6 ms)
    g = parse_graph6("U??G?d?_OE?c?@I?A?D?_??G??@?G?_?g?a@Oa??")
    alpha, _ = independence_number(g)
    tables = _union_tables(g.adj, g.n)
    seed = _isolation_seed(g, tables)
    assert (g.n, connectivity(g).kappa, alpha, seed) == (22, 1, 10, (1, 2, 1 << 14))
    assert _dp_chosen(g)
    assert _dp_steps(g, alpha, *seed[:2]) is None
    swept = _sweep_value(g, tables, alpha, seed)

    def no_sweep(*args):
        raise AssertionError("toughness swept a graph its cost rule sends to the DP")

    with monkeypatch.context() as m:
        m.setattr(invariants, "_sweep_value", no_sweep)
        cert = toughness(g)
    assert swept == (1, 2, cert.witness_cut) == (1, 2, 1 << 3)
    # n = 20, kappa = 1, alpha = 10: the tie size 5 is most of the sweep
    # estimate, but the sweep runs (forced: DP 3.2-4.8 ms, sweep 0.4-0.5 ms); both
    # paths give the same certificate
    g = parse_graph6("S?SC?GRcXPOhAAOgKC??_gACGW_@_A???")
    alpha, _ = independence_number(g)
    tables = _union_tables(g.adj, g.n)
    seed = _isolation_seed(g, tables)
    assert (g.n, connectivity(g).kappa, alpha, seed[:2]) == (20, 1, 10, (1, 2))
    cert = toughness(g)
    assert toughness_json(cert) == {
        "invariant": "toughness", "value": {"num": 1, "den": 2}, "witness": [1], "components": 2,
    }
    steps, _ = _plan(g)
    assert _dinkelbach(steps, *seed[:2]) == _sweep_value(g, tables, alpha, seed) == (1, 2, 0b10)


def test_cost_rule_skips_the_ordering_for_small_sweeps(monkeypatch):
    def no_plan(g):
        raise AssertionError("ordering computed for a cheap sweep")

    monkeypatch.setattr(invariants, "_frontier_plan", no_plan)
    assert toughness(petersen()).value == Fraction(4, 3)
    assert is_t_tough(cycle_power(10, 2), 2) == (True, None)


def test_state_ceiling_falls_back_to_the_sweep(monkeypatch):
    g = build_jm(6).graph
    assert _dp_chosen(g)
    want = toughness(g)
    monkeypatch.setattr(invariants, "_DP_MAX_STATES", 10)
    steps, _ = _plan(g)
    assert _dinkelbach(steps, *_seed(g)[:2]) is None
    assert toughness(g) == want
    assert is_t_tough(g, Fraction(11, 6)) == (True, None)


def test_state_ceiling_counts_labels_with_capped_count(monkeypatch):
    # peak live (frontier labels, capped count) states of one pass at the
    # isolation seed's ratio: the pass fits a ceiling of exactly that many
    for g, peak in ((build_jm(5).graph, 124), (build_jm(7).graph, 170),
                    (line_graph(petersen()), 386)):
        steps, _ = _plan(g)
        s, k, _ = _seed(g)
        monkeypatch.setattr(invariants, "_DP_MAX_STATES", peak)
        assert _frontier_dp(steps, s, k) is not None
        monkeypatch.setattr(invariants, "_DP_MAX_STATES", peak - 1)
        assert _frontier_dp(steps, s, k) is None


def test_is_t_tough_dp_path_keeps_sweep_witness():
    # J_6 takes the DP; above its toughness the first violation in
    # (size, subset) order still comes from the sweep
    g = build_jm(6).graph
    assert is_t_tough(g, Fraction(11, 6)) == (True, None)
    ok, witness = is_t_tough(g, Fraction(2))
    assert not ok and witness == 128362


# ---------------------------------------------------------------------------
# the sweep's representative walk and the "no" path

def test_forcing_lemma_walk_covers_every_separating_set(rng):
    # every s-set leaving >= k components contains F(I) for the least
    # vertices I of its first k components, so the walk over the F(I)
    # supersets (and the per-size choice of source) must yield it; it also
    # has a component of at most (n - s) // k vertices, so the growth walk
    # with that cap must yield it too, and nothing that is not a cut-set;
    # whichever walk runs, _size_cuts keeps exactly those sets, each with
    # its true component count
    for _ in range(100):
        n = rng.randrange(5, 13)
        g = random_connected_graph(n, rng, p=rng.choice([0.2, 0.35, 0.5, 0.7]))
        tables = _union_tables(g.adj, n)
        chosen_reps: dict = {}
        for k in range(2, independence_number(g)[0] + 1):
            for s in range(1, n - 1):
                want = {mask_of(c) for c in cutsets_naive(g, s, k)}
                walked = set(_seed_cuts(_representatives(g, s, k), s))
                counted = list(_size_cuts(g, tables, s, k, chosen_reps))
                chosen = {x for x, _ in counted}
                grown = set(_seed_cuts(_grown_seeds(g, s, k), s))
                assert want <= walked, (g.edges(), s, k, want - walked)
                assert want <= chosen, (g.edges(), s, k, want - chosen)
                assert want <= grown, (g.edges(), s, k, want - grown)
                assert all(len(components(g, x)) >= 2 for x in grown), (g.edges(), s, k)
                assert chosen == want and all(c == len(components(g, x)) for x, c in counted), \
                    (g.edges(), s, k, chosen ^ want)


def _spy_counts(monkeypatch):
    """Count _count_components calls, keyed by the size _size_cuts last took."""
    calls = {}
    size = [None]
    count, size_cuts = invariants._count_components, invariants._size_cuts

    def spy_count(alive, tables):
        calls[size[0]] = calls.get(size[0], 0) + 1
        return count(alive, tables)

    def spy_size_cuts(g, tables, s, k, reps):
        size[0] = s
        return size_cuts(g, tables, s, k, reps)

    monkeypatch.setattr(invariants, "_count_components", spy_count)
    monkeypatch.setattr(invariants, "_size_cuts", spy_size_cuts)
    return calls


def test_toughness_component_count_work_is_pinned(monkeypatch):
    # the exact work of the walk choice and the route, free of timing noise:
    # 7 210 calls when every walk was measured against C(n, s); and the
    # forcing-lemma seeds listed, 9 252 without the size bound on F(I)
    graphs = [build_jm(m).graph for m in range(3, 14)]
    rng = random.Random(2026)
    graphs += [random_connected_graph(n, rng, p=p)
               for n in range(12, 19) for p in (0.15, 0.3, 0.45)]
    calls = _spy_counts(monkeypatch)
    listed = []
    representatives = invariants._representatives
    monkeypatch.setattr(invariants, "_representatives",
                        lambda g, s, k: listed.append(representatives(g, s, k)) or listed[-1])
    for g in graphs:
        toughness(g)
    assert (sum(calls.values()), sum(map(len, listed))) == (2345, 1138)


def test_is_t_tough_sizes_below_kappa_cost_at_most_n_counts(rng, monkeypatch):
    # no cut-set is smaller than kappa, so below it the growth walk proposes
    # nothing and the forcing walk runs only when it proposes at most n sets
    below = 0
    for _ in range(30):
        n = rng.randrange(10, 15)
        g = random_connected_graph(n, rng, p=rng.choice([0.4, 0.55, 0.7]))
        kappa = connectivity(g).kappa
        with monkeypatch.context() as m:
            calls = _spy_counts(m)
            is_t_tough(g, Fraction(kappa, 2))
        for s in range(1, kappa):
            assert calls.get(s, 0) <= n, (g.edges(), s, calls)
            below += s in calls
    assert below


def test_is_t_tough_matches_first_violation_oracle(rng):
    ts = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    for _ in range(60):
        n = rng.randrange(4, 12)
        g = random_connected_graph(n, rng, p=rng.choice([0.2, 0.35, 0.5, 0.7]))
        for t in ts:
            assert is_t_tough(g, t) == first_violation_naive(g, t), (g.edges(), t)


def test_is_t_tough_jm8_no_path_is_pinned():
    # (False, 8345002) was recorded from the ordered sweep before the
    # representative walk existed (26 s there)
    assert is_t_tough(build_jm(8).graph, 2) == (False, 8345002)


def test_corpus_certificates_are_pinned(capsys, monkeypatch):
    # digests follow the benchmark's order of the four invariant commands
    for g6, digests in sorted(CORPUS.items()):
        for which, want in zip(("toughness", "connectivity", "independence", "claws"),
                               digests, strict=True):
            out = _invariant(capsys, monkeypatch, which, g6)
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, (which, g6)
