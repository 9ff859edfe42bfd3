"""Machine checks for the structural claims about the J family.

Every check returns a ClaimReport whose details carry enough data to
re-validate the verdict from scratch (witness cuts, independent sets,
triangle covers, offending counterexamples on FAIL).  Reports are pure
data, serialize with sorted keys, and are byte-identical across runs and
worker counts.

Claim registry:
  LEMMA_A            connectivity of the order-(3m-1) member is exactly 4
  LEMMA_B            for m >= 5 every 4-vertex cut-set isolates a cycle
                     vertex or is an aligned pair {a_i, a_j, b_i, b_j}
  LEMMA_C            for odd m the independence number is m - 1
  LEMMA_C_TRIANGLES  dropping a_1 and b_m leaves m - 1 spanning triangles
  THEOREM            for odd m >= 3 toughness is exactly 2
  CLAW_CENTERS       for m >= 4 the claw centers are exactly the four
                     bridge vertices a_1, a_m, b_1, b_m
  NO_K14_AT_X        no induced K_{1,4} is centered at a bridge vertex
  CYCLE_POWER_TOUGH  squares of even cycles C_8^2, C_10^2 have toughness 2
  ALPHA_BOUND        every supertough 4-regular graph in the suite has
                     independence number <= 2n / 6
  MS_CONSISTENCY     claw-free fixtures have toughness = connectivity / 2
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .generators import LabeledGraph, build_jm, complete, cycle, cycle_power, line_graph, petersen
from .graphs import Graph, bits, mask_of
from .invariants import (
    claw_centers,
    connectivity,
    cutsets_of_size,
    independence_number,
    induced_stars,
    toughness,
)
from .parallel import worker_pool

CLAIM_IDS = (
    "LEMMA_A",
    "LEMMA_B",
    "LEMMA_C",
    "LEMMA_C_TRIANGLES",
    "THEOREM",
    "CLAW_CENTERS",
    "NO_K14_AT_X",
    "CYCLE_POWER_TOUGH",
    "ALPHA_BOUND",
    "MS_CONSISTENCY",
)

# default parameter ceilings: toughness-backed claims stop at 7, the rest at 9
DEFAULT_M_CHEAP = range(3, 10)
DEFAULT_M_TOUGH = range(3, 8)


@dataclass(frozen=True)
class ClaimReport:
    claim: str
    parameter: object  # m for J-family claims, a graph label for background ones
    verdict: str  # "PASS" | "FAIL"
    details: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "parameter": self.parameter,
            "verdict": self.verdict,
            "details": self.details,
        }


def _report(claim: str, parameter, ok: bool, details: dict) -> ClaimReport:
    return ClaimReport(claim, parameter, "PASS" if ok else "FAIL", details)


def _vlist(mask: int) -> list[int]:
    return list(bits(mask))


@lru_cache(maxsize=None)
def _jm(m: int) -> LabeledGraph:
    return build_jm(m)


@lru_cache(maxsize=None)
def _jm_toughness(m: int):
    return toughness(_jm(m).graph)


# ---------------------------------------------------------------------------
# J-family claims

def verify_lemma_a(m: int) -> ClaimReport:
    """Connectivity exactly 4."""
    cert = connectivity(_jm(m).graph)
    details = {
        "kappa": cert.kappa,
        "witness_cut": None if cert.witness_cut is None else _vlist(cert.witness_cut),
    }
    return _report("LEMMA_A", m, cert.kappa == 4, details)


def _classify_4cut(lg: LabeledGraph, cut: int) -> str:
    """Sort a 4-vertex cut-set into the claim's two shapes or leave it out."""
    g, lab = lg.graph, lg.labeling
    ab = lab.a_mask() | lab.b_mask()
    alive = g.full_mask & ~cut
    for v in bits(ab & alive):
        if g.adj[v] & alive == 0:
            return "isolates_cycle_vertex"
    if cut & lab.c_mask() == 0:
        a_idx = sorted(v + 1 for v in bits(cut & lab.a_mask()))
        b_idx = sorted(v - lab.m + 1 for v in bits(cut & lab.b_mask()))
        if len(a_idx) == 2 and a_idx == b_idx:
            return "aligned_pair"
    return "outside_claim"


def verify_lemma_b(m: int) -> ClaimReport:
    """Every size-4 cut-set isolates a cycle vertex or is an aligned pair.

    This is machine-refuted for every m >= 5: cut-sets made of one aligned
    pair plus one endpoint of each bridge (for example a_1, a_2, b_2, b_m)
    disconnect the graph while fitting neither shape.  There are 2(m-2)
    of them.  The FAIL payload lists the first ten in ascending mask order
    (all of them for m <= 7, 10 of 12 at m = 8, 10 of 14 at m = 9);
    by_kind["outside_claim"] always gives the full count.
    """
    if m < 5:
        raise ValueError(f"four-cut classification needs m >= 5, got {m}")
    lg = _jm(m)
    tallies = {"isolates_cycle_vertex": 0, "aligned_pair": 0, "outside_claim": 0}
    bad: list[list[int]] = []
    cuts = cutsets_of_size(lg.graph, 4)
    for cut in cuts:
        kind = _classify_4cut(lg, cut)
        tallies[kind] += 1
        if kind == "outside_claim":
            bad.append(_vlist(cut))
    details = {
        "cutsets": len(cuts),
        "by_kind": tallies,
        "counterexamples": bad[:10],
    }
    return _report("LEMMA_B", m, not bad, details)


def _triangle_cover(lab) -> list[tuple[int, int, int]]:
    """The alternating triangle cover of the graph minus a_1 and b_m."""
    tris = []
    for i in range(1, lab.m):
        if i % 2 == 1:
            tris.append((lab.c(i), lab.b(i), lab.b(i + 1)))
        else:
            tris.append((lab.c(i), lab.a(i), lab.a(i + 1)))
    return tris


def verify_lemma_c(m: int) -> tuple[ClaimReport, ClaimReport]:
    """Independence number m-1, plus the triangle-cover device behind it."""
    if m % 2 == 0:
        raise ValueError(f"lemma (c) hypothesis needs odd m, got {m}")
    lg = _jm(m)
    g, lab = lg.graph, lg.labeling
    alpha, witness = independence_number(g)
    alpha_report = _report(
        "LEMMA_C",
        m,
        alpha == m - 1,
        {"alpha": alpha, "expected": m - 1, "witness": _vlist(witness)},
    )

    tris = _triangle_cover(lab)
    dropped = mask_of((lab.a(1), lab.b(m)))
    seen = 0
    all_triangles = True
    for x, y, z in tris:
        tm = mask_of((x, y, z))
        if tm & seen or tm & dropped:
            all_triangles = False
            break
        if not (g.has_edge(x, y) and g.has_edge(y, z) and g.has_edge(x, z)):
            all_triangles = False
            break
        seen |= tm
    spanning = seen == g.full_mask & ~dropped
    tri_report = _report(
        "LEMMA_C_TRIANGLES",
        m,
        all_triangles and spanning,
        {
            "triangles": [sorted((x, y, z)) for x, y, z in tris],
            "dropped": _vlist(dropped),
            "disjoint_triangles": all_triangles,
            "spanning": spanning,
        },
    )
    return alpha_report, tri_report


def verify_theorem(m: int) -> ClaimReport:
    """Toughness exactly 2 for odd m >= 3."""
    if m % 2 == 0:
        raise ValueError(f"theorem hypothesis needs odd m, got {m}")
    cert = _jm_toughness(m)
    details = {
        "toughness": {"num": cert.value.numerator, "den": cert.value.denominator},
        "witness_cut": _vlist(cert.witness_cut),
        "components": cert.component_count,
    }
    return _report("THEOREM", m, cert.value == Fraction(2), details)


def verify_claw_structure(m: int) -> tuple[ClaimReport, ClaimReport]:
    """Claw centers are exactly the bridge set; no K_{1,4} centered there."""
    if m < 4:
        raise ValueError(f"claw structure claims need m >= 4, got {m}")
    lg = _jm(m)
    g, lab = lg.graph, lg.labeling
    centers = claw_centers(g)
    x = lab.x_mask()
    centers_report = _report(
        "CLAW_CENTERS",
        m,
        centers == x,
        {"centers": _vlist(centers), "expected": _vlist(x)},
    )
    four_stars = induced_stars(g, 4)
    at_x = [s for s in four_stars if x >> s.center & 1]
    k14_report = _report(
        "NO_K14_AT_X",
        m,
        not at_x,
        {
            "k14_total": len(four_stars),
            "k14_at_bridge": [
                {"center": s.center, "leaves": _vlist(s.leaves)} for s in at_x
            ],
        },
    )
    return centers_report, k14_report


# ---------------------------------------------------------------------------
# background claims on fixed graphs

def _background_graphs() -> dict[str, Graph]:
    return {
        "J_3": _jm(3).graph,
        "C_5": cycle(5),
        "L(K_4)": line_graph(complete(4)),
        "L(K_5)": line_graph(complete(5)),
        "L(petersen)": line_graph(petersen()),
    }


def verify_ms_consistency(label: str) -> ClaimReport:
    """Claw-free graphs must land exactly on toughness = connectivity / 2."""
    g = _background_graphs()[label]
    free = claw_centers(g) == 0
    tough = toughness(g)
    kappa = connectivity(g).kappa
    ok = free and tough.value == Fraction(kappa, 2)
    details = {
        "claw_free": free,
        "kappa": kappa,
        "toughness": {"num": tough.value.numerator, "den": tough.value.denominator},
        "witness_cut": _vlist(tough.witness_cut),
    }
    return _report("MS_CONSISTENCY", label, ok, details)


def verify_cycle_power_tough(label: str) -> ClaimReport:
    """C_n^2 fixtures are exactly 2-tough."""
    n = {"C_8^2": 8, "C_10^2": 10}[label]
    cert = toughness(cycle_power(n, 2))
    details = {
        "toughness": {"num": cert.value.numerator, "den": cert.value.denominator},
        "witness_cut": _vlist(cert.witness_cut),
        "components": cert.component_count,
    }
    return _report("CYCLE_POWER_TOUGH", label, cert.value == Fraction(2), details)


_SUPERTOUGH_SUITE = ("J_3", "J_5", "J_7", "C_8^2", "C_10^2")


def verify_alpha_bound(label: str) -> ClaimReport:
    """Supertough 4-regular graphs obey alpha <= 2n / (r + 2) = n/3."""
    if label.startswith("J_"):
        m = int(label[2:])
        g = _jm(m).graph
        cert = _jm_toughness(m)
    else:
        n = {"C_8^2": 8, "C_10^2": 10}[label]
        g = cycle_power(n, 2)
        cert = toughness(g)
    regular4 = all(g.degree(v) == 4 for v in range(g.n))
    supertough = regular4 and cert.value == Fraction(2)
    alpha, witness = independence_number(g)
    bound = Fraction(2 * g.n, 6)
    details = {
        "n": g.n,
        "supertough": supertough,
        "alpha": alpha,
        "bound": {"num": bound.numerator, "den": bound.denominator},
        "witness": _vlist(witness),
    }
    return _report("ALPHA_BOUND", label, supertough and alpha <= bound, details)


# ---------------------------------------------------------------------------
# ledger orchestration

def _run_task(task: tuple[str, object]) -> ClaimReport:
    claim, param = task
    if claim == "LEMMA_A":
        return verify_lemma_a(param)
    if claim == "LEMMA_B":
        return verify_lemma_b(param)
    if claim == "LEMMA_C":
        return verify_lemma_c(param)[0]
    if claim == "LEMMA_C_TRIANGLES":
        return verify_lemma_c(param)[1]
    if claim == "THEOREM":
        return verify_theorem(param)
    if claim == "CLAW_CENTERS":
        return verify_claw_structure(param)[0]
    if claim == "NO_K14_AT_X":
        return verify_claw_structure(param)[1]
    if claim == "MS_CONSISTENCY":
        return verify_ms_consistency(param)
    if claim == "CYCLE_POWER_TOUGH":
        return verify_cycle_power_tough(param)
    if claim == "ALPHA_BOUND":
        return verify_alpha_bound(param)
    raise ValueError(f"unknown claim {claim!r}")


def applicable(claim: str, m: int) -> bool:
    """Whether an m-parameterized claim's hypothesis holds at this m."""
    if claim in ("LEMMA_A",):
        return m >= 3
    if claim == "LEMMA_B":
        return m >= 5
    if claim in ("LEMMA_C", "LEMMA_C_TRIANGLES", "THEOREM"):
        return m >= 3 and m % 2 == 1
    if claim in ("CLAW_CENTERS", "NO_K14_AT_X"):
        return m >= 4
    return False


_BACKGROUND_PARAMS = {
    "MS_CONSISTENCY": ("J_3", "C_5", "L(K_4)", "L(K_5)", "L(petersen)"),
    "CYCLE_POWER_TOUGH": ("C_8^2", "C_10^2"),
    "ALPHA_BOUND": _SUPERTOUGH_SUITE,
}

M_CLAIMS = ("LEMMA_A", "LEMMA_B", "LEMMA_C", "LEMMA_C_TRIANGLES", "THEOREM",
            "CLAW_CENTERS", "NO_K14_AT_X")


def build_tasks(m_values=None, claims=None, odd_only: bool = False):
    """Canonical (claim, parameter) task list for a ledger run."""
    chosen = CLAIM_IDS if claims is None else tuple(claims)
    for c in chosen:
        if c not in CLAIM_IDS:
            raise ValueError(f"unknown claim {c!r}")
    tasks: list[tuple[str, object]] = []
    for claim in M_CLAIMS:
        if claim not in chosen:
            continue
        if m_values is None:
            ms = DEFAULT_M_TOUGH if claim == "THEOREM" else DEFAULT_M_CHEAP
        else:
            ms = m_values
        for m in ms:
            if odd_only and m % 2 == 0:
                continue
            if applicable(claim, m):
                tasks.append((claim, m))
    for claim, params in _BACKGROUND_PARAMS.items():
        if claim in chosen:
            tasks.extend((claim, p) for p in params)
    return tasks


def run_ledger(m_values=None, claims=None, odd_only: bool = False,
               workers: int = 1) -> list[ClaimReport]:
    """Run the selected claims and return reports in canonical task order.

    Reports for distinct parameters are independent, so workers > 1 farms
    them to a process pool; map preserves order, so output is identical to
    the sequential run.
    """
    tasks = build_tasks(m_values, claims, odd_only)
    with worker_pool(workers) as pmap:
        return pmap(_run_task, tasks)


def ledger_json(reports: list[ClaimReport]) -> str:
    """Stable JSON for a ledger: sorted keys, fixed list order, newline end."""
    payload = [r.to_json_dict() for r in reports]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
