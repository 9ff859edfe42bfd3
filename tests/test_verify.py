"""Claim checks through the runner: PASS paths, hypothesis guards, the
machine-refuted four-cut classification, ledger orchestration and the
pinned ledger."""

import ast
import hashlib
import json
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

import toughkit.verify as verify
from toughkit.cli import VERIFY_FAIL, main
from toughkit.generators import build_jm, cycle
from toughkit.graphs import components, mask_of
from toughkit.invariants import ToughnessCertificate, cutsets_of_size
from toughkit.verify import (
    CLAIM_IDS,
    CLAIMS,
    ClaimReport,
    build_tasks,
    ledger_json,
    run_claim,
    run_ledger,
)

EXPECTED = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())


def test_claim_report_surface():
    rep = ClaimReport("LEMMA_A", 3, "PASS", {"kappa": 4})
    assert rep.passed
    assert rep.to_json_dict() == {
        "claim": "LEMMA_A", "parameter": 3, "verdict": "PASS",
        "details": {"kappa": 4},
    }
    assert not ClaimReport("LEMMA_A", 3, "FAIL", {}).passed


# ---------------------------------------------------------------------------
# connectivity claim

@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_lemma_a_passes(m):
    rep = run_claim("LEMMA_A", m)
    assert rep.verdict == "PASS"
    assert rep.details["kappa"] == 4
    cut = mask_of(rep.details["witness_cut"])
    assert cut.bit_count() == 4
    assert len(components(build_jm(m).graph, cut)) >= 2


def test_lemma_a_fails_on_doctored_graph(monkeypatch):
    monkeypatch.setattr(verify, "_jm", lambda m: SimpleNamespace(graph=cycle(8)))
    rep = run_claim("LEMMA_A", 3)
    assert rep.verdict == "FAIL"
    assert rep.details["kappa"] == 2


# ---------------------------------------------------------------------------
# four-cut classification: FAILs honestly for every m >= 5

def bridge_skew_family(m):
    """Cut-sets {a_1, a_j, b_j, b_m} and {a_j, a_m, b_1, b_j}, 2 <= j < m."""
    fam = set()
    for j in range(2, m):
        fam.add(frozenset({0, j - 1, m + j - 1, 2 * m - 1}))
        fam.add(frozenset({j - 1, m - 1, m, m + j - 1}))
    return fam


@pytest.mark.parametrize("m,total,by_kind", [
    (5, 25, {"isolates_cycle_vertex": 10, "aligned_pair": 9, "outside_claim": 6}),
    (6, 34, {"isolates_cycle_vertex": 12, "aligned_pair": 14, "outside_claim": 8}),
])
def test_lemma_b_fails_with_exact_tallies(m, total, by_kind):
    rep = run_claim("LEMMA_B", m)
    assert rep.verdict == "FAIL"
    assert rep.details["cutsets"] == total
    assert rep.details["by_kind"] == by_kind
    assert sum(by_kind.values()) == total
    found = {frozenset(c) for c in rep.details["counterexamples"]}
    assert found == bridge_skew_family(m)


def test_lemma_b_tallies_up_to_the_graph6_limit(capsys):
    # J_21 has 62 vertices, the most a short graph6 header can carry
    code = main(["verify", "--claim", "LEMMA_B", "--m", "5..21", "--workers", "1"])
    reports = json.loads(capsys.readouterr().out)
    assert code == VERIFY_FAIL
    assert [r["parameter"] for r in reports] == list(range(5, 22))
    for r in reports:
        m = r["parameter"]
        assert r["verdict"] == "FAIL"
        assert r["details"]["by_kind"] == {
            "isolates_cycle_vertex": 2 * m,
            "aligned_pair": comb(m, 2) - 1,
            "outside_claim": 2 * (m - 2),
        }


def test_lemma_b_counterexamples_revalidate():
    m = 5
    lg = build_jm(m)
    g, lab = lg.graph, lg.labeling
    rep = run_claim("LEMMA_B", m)
    ab = lab.a_mask() | lab.b_mask()
    for ids in rep.details["counterexamples"]:
        cut = mask_of(ids)
        assert cut.bit_count() == 4
        comps = components(g, cut)
        assert len(comps) >= 2  # genuinely disconnects
        alive = g.full_mask & ~cut
        for v in range(g.n):
            if alive >> v & 1 and ab >> v & 1:
                assert g.adj[v] & alive != 0  # no cycle vertex isolated
        a_idx = sorted(v + 1 for v in ids if v < m)
        b_idx = sorted(v - m + 1 for v in ids if m <= v < 2 * m)
        assert not (len(a_idx) == 2 and a_idx == b_idx)  # not an aligned pair
    # the report enumerates the same universe the cut-set scanner sees
    assert rep.details["cutsets"] == len(cutsets_of_size(g, 4))


# ---------------------------------------------------------------------------
# independence claim and its triangle device

@pytest.mark.parametrize("m", [3, 5, 7])
def test_lemma_c_passes(m):
    alpha_rep, tri_rep = run_claim("LEMMA_C", m), run_claim("LEMMA_C_TRIANGLES", m)
    assert alpha_rep.verdict == "PASS"
    assert alpha_rep.details["alpha"] == m - 1
    g = build_jm(m).graph
    wit = mask_of(alpha_rep.details["witness"])
    assert wit.bit_count() == m - 1
    for v in alpha_rep.details["witness"]:
        assert g.adj[v] & wit == 0

    assert tri_rep.verdict == "PASS"
    assert len(tri_rep.details["triangles"]) == m - 1
    assert tri_rep.details["disjoint_triangles"] is True
    assert tri_rep.details["spanning"] is True
    lab = build_jm(m).labeling
    assert sorted(tri_rep.details["dropped"]) == sorted([lab.a(1), lab.b(m)])


# ---------------------------------------------------------------------------
# toughness claim

@pytest.mark.parametrize("m", [3, 5])
def test_theorem_passes(m):
    rep = run_claim("THEOREM", m)
    assert rep.verdict == "PASS"
    assert rep.details["toughness"] == {"num": 2, "den": 1}
    cut = mask_of(rep.details["witness_cut"])
    comps = components(build_jm(m).graph, cut)
    assert len(comps) == rep.details["components"]
    assert Fraction(cut.bit_count(), len(comps)) == Fraction(2)


def test_theorem_fails_on_doctored_value(monkeypatch):
    fake = ToughnessCertificate(Fraction(3, 2), mask_of([0, 1, 2]), 2)
    monkeypatch.setattr(verify, "_toughness", lambda label: fake)
    rep = run_claim("THEOREM", 5)
    assert rep.verdict == "FAIL"
    assert rep.details["toughness"] == {"num": 3, "den": 2}


# ---------------------------------------------------------------------------
# claw structure claims

@pytest.mark.parametrize("m", [4, 5, 6])
def test_claw_structure_passes(m):
    centers_rep, k14_rep = run_claim("CLAW_CENTERS", m), run_claim("NO_K14_AT_X", m)
    assert centers_rep.verdict == "PASS"
    lab = build_jm(m).labeling
    assert centers_rep.details["centers"] == sorted(
        [lab.a(1), lab.a(m), lab.b(1), lab.b(m)]
    )
    assert k14_rep.verdict == "PASS"
    assert k14_rep.details["k14_at_bridge"] == []


# ---------------------------------------------------------------------------
# background claims

@pytest.mark.parametrize("label", ["J_3", "C_5", "L(K_4)", "L(K_5)", "L(petersen)"])
def test_ms_consistency_passes(label):
    rep = run_claim("MS_CONSISTENCY", label)
    assert rep.verdict == "PASS"
    assert rep.details["claw_free"] is True
    tough = Fraction(rep.details["toughness"]["num"],
                     rep.details["toughness"]["den"])
    assert tough == Fraction(rep.details["kappa"], 2)


def test_ms_consistency_line_graph_values():
    rep = run_claim("MS_CONSISTENCY", "L(petersen)")
    assert rep.details["kappa"] == 4
    assert Fraction(rep.details["toughness"]["num"],
                    rep.details["toughness"]["den"]) == Fraction(2)


@pytest.mark.parametrize("label", ["C_8^2", "C_10^2"])
def test_cycle_power_tough_passes(label):
    rep = run_claim("CYCLE_POWER_TOUGH", label)
    assert rep.verdict == "PASS"
    assert rep.details["toughness"] == {"num": 2, "den": 1}


@pytest.mark.parametrize("label,n,alpha", [
    ("J_3", 8, 2),
    ("J_5", 14, 4),
    ("J_7", 20, 6),
    ("C_8^2", 8, 2),
    ("C_10^2", 10, 3),
])
def test_alpha_bound_passes(label, n, alpha):
    rep = run_claim("ALPHA_BOUND", label)
    assert rep.verdict == "PASS"
    assert rep.details["n"] == n
    assert rep.details["alpha"] == alpha
    assert rep.details["supertough"] is True
    bound = rep.details["bound"]
    assert Fraction(bound["num"], bound["den"]) == Fraction(2 * n, 6)
    assert alpha <= Fraction(2 * n, 6)


# ---------------------------------------------------------------------------
# orchestration

def test_applicable_table():
    def holds(claim, m):
        return CLAIMS[claim].hypothesis(m)

    assert holds("LEMMA_A", 3)
    assert not holds("LEMMA_B", 4)
    assert holds("LEMMA_B", 5)
    assert holds("THEOREM", 5)
    assert not holds("THEOREM", 4)
    assert not holds("LEMMA_C", 6)
    assert holds("CLAW_CENTERS", 4)
    assert not holds("CLAW_CENTERS", 3)
    assert CLAIMS["MS_CONSISTENCY"].hypothesis is None  # not m-parameterized


def test_build_tasks_default_composition():
    tasks = build_tasks()
    assert len(tasks) == 47
    assert ("LEMMA_A", 9) in tasks
    assert ("THEOREM", 7) in tasks
    assert ("THEOREM", 9) not in tasks  # toughness default stops at 7
    assert ("LEMMA_B", 4) not in tasks
    assert ("CYCLE_POWER_TOUGH", "C_8^2") in tasks
    # m-parameterized claims come first, grouped in registry order
    names = [c for c, _ in tasks]
    assert names[:7] == ["LEMMA_A"] * 7
    assert set(names) == set(CLAIM_IDS)


def test_build_tasks_selection_and_parity():
    assert build_tasks(range(3, 8), ["LEMMA_A"], odd_only=True) == [
        ("LEMMA_A", 3), ("LEMMA_A", 5), ("LEMMA_A", 7),
    ]
    # a named claim must apply at every m asked for; unnamed, it is skipped
    with pytest.raises(ValueError, match=r"^claim LEMMA_B does not apply at m=4 \("):
        build_tasks([4], ["LEMMA_B"])
    assert ("LEMMA_B", 4) not in build_tasks([4])
    assert [r.parameter for r in run_ledger(claims=["LEMMA_B"])] == list(range(5, 10))
    assert build_tasks([3], ["CYCLE_POWER_TOUGH"]) == [
        ("CYCLE_POWER_TOUGH", "C_8^2"), ("CYCLE_POWER_TOUGH", "C_10^2"),
    ]
    with pytest.raises(ValueError):
        build_tasks(claims=["LEMMA_Z"])


def test_run_ledger_workers_agree():
    kwargs = dict(m_values=range(3, 6), claims=["LEMMA_A", "MS_CONSISTENCY"])
    solo = run_ledger(**kwargs, workers=1)
    duo = run_ledger(**kwargs, workers=2)
    assert ledger_json(solo) == ledger_json(duo)
    assert all(r.verdict == "PASS" for r in solo)
    assert len(solo) == 3 + 5


def test_run_ledger_calls_checks_through_module_names(monkeypatch):
    monkeypatch.setattr(verify, "verify_theorem", lambda m: (False, {"stub": m}))
    assert run_ledger(m_values=[3], claims=["THEOREM"]) == [
        ClaimReport("THEOREM", 3, "FAIL", {"stub": 3})]


@pytest.mark.parametrize("claim", [c for c in CLAIMS.values() if c.hypothesis],
                         ids=lambda c: c.id)
def test_runner_enforces_each_hypothesis(monkeypatch, claim):
    # the largest m below 10 outside the hypothesis: m = 4 for LEMMA_B, 8
    # for the odd-m claims, 3 for the claw claims, 2 for LEMMA_A
    m = max(m for m in range(2, 10) if not claim.hypothesis(m))
    calls = []
    monkeypatch.setattr(verify, claim.check.__name__, calls.append)
    with pytest.raises(ValueError, match=rf"^claim {claim.id} does not apply at m={m} \("):
        run_claim(claim.id, m)
    assert calls == []


def test_each_claim_id_is_written_once_in_verify():
    tree = ast.parse(Path(verify.__file__).read_text())
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert {c: strings.count(c) for c in CLAIM_IDS} == dict.fromkeys(CLAIM_IDS, 1)
    # and only the runner and build_tasks read a hypothesis through _check_applies
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_check_applies"}
    assert callers == {"run_claim", "build_tasks"}


def test_ledger_json_is_stable_and_parseable():
    reports = run_ledger(m_values=[3], claims=["LEMMA_A"])
    text = ledger_json(reports)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == [r.to_json_dict() for r in reports]
    first = text.index('"claim"')
    assert first < text.index('"details"') < text.index('"parameter"') \
        < text.index('"verdict"')


# ---------------------------------------------------------------------------
# the ledger pinned in perfbench/expected.json

def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_default_ledger_matches_pin(capsys, workers):
    code = main(["verify", "--workers", workers])
    out = capsys.readouterr().out
    assert code == VERIFY_FAIL == EXPECTED["ledger"]["exit"]
    assert _digest(out) == EXPECTED["ledger"]["stdout"]


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_single_claim_ledger_matches_pin(claim):
    reports = run_ledger(claims=[claim], workers=1)
    assert _digest(ledger_json(reports)) == EXPECTED["claims"][claim]
