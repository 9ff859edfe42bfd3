"""Acceptance suite: eight end-to-end criteria, one printed verdict line each.

Criterion 2 pins the claim ledger's verdicts: the connectivity and
independence claims pass, and the four-cut classification (LEMMA_B) is
refuted for m = 5, 6, 7 by exactly the skew cut-sets {a_1, a_j, b_j, b_m}
and {a_j, a_m, b_1, b_j}, checked against a naive cut-set oracle and a
classification built from the role labeling alone.
"""

import random
from fractions import Fraction
from itertools import combinations

from toughkit.cli import VERIFY_FAIL, main
from toughkit.formats import parse_graph6, serialize_graph6
from toughkit.generators import (
    build_jm,
    complete,
    cycle_power,
    petersen,
    random_connected_graph,
)
from toughkit.graphs import from_edges
from toughkit.invariants import (
    claw_centers,
    connectivity,
    toughness,
)
from toughkit.search import (
    SearchSpec,
    canonical_form,
    enumerate_regular,
    run_census,
)
from toughkit.verify import run_claim

from oracles import (
    adj_sets,
    check_regular_classes,
    components_naive,
    cutsets_naive,
    isomorphic_naive,
    toughness_oracle,
)


def _verdict(idx: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {idx} {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_1_family_toughness_exact():
    values = {}
    for m in (3, 5, 7):
        g = build_jm(m).graph
        cert = toughness(g)
        assert cert.validate(g)
        values[m] = cert.value
    ok = all(v == Fraction(2) for v in values.values())
    _verdict(1, ok, f"toughness of the order-(3m-1) family at m=3,5,7 is "
                    f"{[str(v) for v in values.values()]}, exact rationals")
    assert ok


def _skew_4cuts(lab) -> set[frozenset]:
    """{a_1, a_j, b_j, b_m} and {a_j, a_m, b_1, b_j} for 2 <= j <= m-1."""
    m = lab.m
    out = set()
    for j in range(2, m):
        out.add(frozenset((lab.a(1), lab.a(j), lab.b(j), lab.b(m))))
        out.add(frozenset((lab.a(j), lab.a(m), lab.b(1), lab.b(j))))
    return out


def _classify_4cuts_from_labeling(g, lab, cuts) -> dict[str, set[frozenset]]:
    """Sort cut-sets into the LEMMA_B shapes using only the role map."""
    nbrs = adj_sets(g)
    cycle_vertices = [f(i) for i in range(1, lab.m + 1) for f in (lab.a, lab.b)]
    aligned = {frozenset((lab.a(i), lab.a(j), lab.b(i), lab.b(j)))
               for i in range(1, lab.m + 1) for j in range(i + 1, lab.m + 1)}
    kinds = {"isolates_cycle_vertex": set(), "aligned_pair": set(),
             "outside_claim": set()}
    for cut in cuts:
        if any(v not in cut and nbrs[v] <= cut for v in cycle_vertices):
            kinds["isolates_cycle_vertex"].add(cut)
        elif cut in aligned:
            kinds["aligned_pair"].add(cut)
        else:
            kinds["outside_claim"].add(cut)
    return kinds


# m -> (isolating, aligned, skew) counts of the naive 4-cuts
LEMMA_B_SPLITS = {5: (10, 9, 6), 6: (12, 14, 8), 7: (14, 20, 10)}


def test_criterion_2_lemma_ledger():
    for m in range(3, 10):
        r = run_claim("LEMMA_A", m)
        assert r.passed and r.details["kappa"] == 4, (
            f"LEMMA_A m={m}: {r.verdict} {r.details}")
    for m in (3, 5, 7):
        for r in (run_claim("LEMMA_C", m), run_claim("LEMMA_C_TRIANGLES", m)):
            assert r.passed, f"{r.claim} m={m}: {r.verdict} {r.details}"

    # LEMMA_B is false for m >= 5; pin the refutation against the oracle
    refuted = []
    for m, split in LEMMA_B_SPLITS.items():
        lg = build_jm(m)
        g, lab = lg.graph, lg.labeling
        r = run_claim("LEMMA_B", m)
        d = r.details
        assert r.verdict == "FAIL", f"LEMMA_B m={m} not refuted: {d}"
        cuts = cutsets_naive(g, 4)
        assert d["cutsets"] == len(cuts), (m, d["cutsets"], len(cuts))
        kinds = _classify_4cuts_from_labeling(g, lab, cuts)
        skew = _skew_4cuts(lab)
        assert kinds["outside_claim"] == skew, (m, kinds["outside_claim"])
        expected = dict(zip(kinds, split))
        assert {k: len(v) for k, v in kinds.items()} == expected, m
        assert d["by_kind"] == expected, (m, d["by_kind"])
        # the payload is capped at ten sets, so it is complete only for m <= 7
        payload = d["counterexamples"]
        assert {frozenset(c) for c in payload} == skew, (m, payload)
        assert len(payload) == d["by_kind"]["outside_claim"], (m, payload)
        # |S|/k = 4/2 = 2 on every skew cut, in line with THEOREM
        for cut in skew:
            assert len(components_naive(g, cut)) == 2, (m, sorted(cut))
        refuted.append(m)
    _verdict(2, True, "connectivity / independence checks pass at every m; "
                      "the four-cut classification is refuted at "
                      f"m={refuted} by exactly the skew cut-sets "
                      "{a_1, a_j, b_j, b_m} and {a_j, a_m, b_1, b_j}, "
                      "each leaving two components")


def test_criterion_3_claw_structure():
    all_ok = True
    for m in range(4, 8):
        centers_rep, k14_rep = run_claim("CLAW_CENTERS", m), run_claim("NO_K14_AT_X", m)
        all_ok = all_ok and centers_rep.passed and k14_rep.passed
        lab = build_jm(m).labeling
        assert centers_rep.details["expected"] == sorted(
            [lab.a(1), lab.a(m), lab.b(1), lab.b(m)])
    _verdict(3, all_ok, "for m=4..7 claw centers are exactly the four bridge "
                        "vertices and none of them centers an induced K_{1,4}")
    assert all_ok


def test_criterion_4_background_consistency():
    j3 = run_claim("MS_CONSISTENCY", "J_3")
    g3 = build_jm(3).graph
    assert claw_centers(g3) == 0
    assert toughness(g3).value == Fraction(connectivity(g3).kappa, 2) == 2
    powers = [run_claim("CYCLE_POWER_TOUGH", lbl) for lbl in ("C_8^2", "C_10^2")]
    bounds = [run_claim("ALPHA_BOUND", lbl)
              for lbl in ("J_3", "J_5", "J_7", "C_8^2", "C_10^2")]
    ok = j3.passed and all(r.passed for r in powers + bounds)
    _verdict(4, ok, "smallest family member is claw-free with toughness "
                    "kappa/2 = 2; both even cycle squares are exactly "
                    "2-tough; every supertough graph in the suite has "
                    "alpha <= 2n/(r+2)")
    assert ok


CENSUS_FORMS = ["I{dQPcdBg", "I}`HPKYDW", "I}hPOgJ@w"]


def test_criterion_5_order_10_census():
    # enumeration is trusted only after the labeled count agrees with
    # sum n!/|Aut(G)| over the classes, which are pairwise non-isomorphic
    for n, r in [(5, 4), (6, 4), (7, 4), (8, 4), (4, 3), (6, 3), (8, 3)]:
        classes = enumerate_regular(n, r)
        assert all(canonical_form(g) == serialize_graph6(g) for g in classes), (n, r)
        check_regular_classes(classes, n, r)

    classes = enumerate_regular(10, 4)
    assert len(classes) == 59
    assert not any(isomorphic_naive(a, b) for a, b in combinations(classes, 2))

    res = run_census(SearchSpec(10, 4, predicates=("connected", "supertough")))
    assert res.examined == 59
    assert res.counts == {"regular": 59, "connected": 59, "supertough": 3}
    forms = [rec["graph6"] for rec in res.survivors]
    assert forms == CENSUS_FORMS
    flags = [rec["has_claw"] for rec in res.survivors]
    assert flags == [True, True, False]
    clawless = forms[flags.index(False)]
    assert clawless == canonical_form(cycle_power(10, 2))

    for rec in res.survivors:
        g = parse_graph6(rec["graph6"])
        cert = toughness(g)
        assert cert.validate(g) and cert.value == Fraction(2)
        ocert = toughness_oracle(g)
        assert (cert.value, cert.witness_cut) == (ocert.value, ocert.witness_cut)
        assert bool(claw_centers(g)) == rec["has_claw"]

    _verdict(5, True,
             "59 connected 4-regular classes of order 10; 3 are supertough, "
             "of which exactly 2 contain claws and the claw-free third is "
             "the square of the 10-cycle; reading the expected pair as the "
             "claw-bearing survivors, with claw status reported per graph")


def test_criterion_6_solver_matches_oracle():
    rng = random.Random(20260814)
    graphs = []
    for _ in range(200):
        n = rng.randint(2, 9)
        graphs.append(random_connected_graph(n, rng, rng.choice((0.3, 0.5, 0.7))))
    graphs += [build_jm(3).graph, build_jm(5).graph, petersen(), cycle_power(8, 2)]
    for g in graphs:
        fast = toughness(g)
        slow = toughness_oracle(g)
        if fast is not slow:  # both INFINITE for complete graphs
            assert fast.value == slow.value
            assert fast.witness_cut == slow.witness_cut
            assert fast.component_count == slow.component_count
    _verdict(6, True, "pruned solver and exhaustive oracle agree on value, "
                      "lex-min witness and component count for 200 seeded "
                      "random graphs plus the named fixtures")


def test_criterion_7_graph6_round_trip():
    rng = random.Random(1789)
    count = 0
    for _ in range(500):
        n = rng.randint(1, 30)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((0.15, 0.4, 0.7))]
        g = from_edges(n, edges)
        assert parse_graph6(serialize_graph6(g)).adj == g.adj
        count += 1
    assert serialize_graph6(complete(3)) == "Bw"
    assert parse_graph6("Bw").adj == complete(3).adj
    _verdict(7, True, f"parse/serialize identity on {count} random graphs "
                      "and the hand-derived triangle encoding Bw")


def test_criterion_8_ledger_determinism(capsys):
    code_1 = main(["verify", "--m", "3..7", "--workers", "1"])
    out_1 = capsys.readouterr().out
    code_8 = main(["verify", "--m", "3..7", "--workers", "8"])
    out_8 = capsys.readouterr().out
    ok = out_1 == out_8 and code_1 == code_8 and bool(out_1)
    _verdict(8, ok,
             "ledger JSON for m=3..7 is byte-identical across worker counts "
             f"1 and 8 ({len(out_1)} bytes, exit {code_1} both; nonzero exit "
             "reflects the refuted four-cut rows, identically in both runs)")
    assert out_1 == out_8
    assert code_1 == code_8 == VERIFY_FAIL
    assert '"LEMMA_B"' in out_1 and '"THEOREM"' in out_1
