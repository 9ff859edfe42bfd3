"""Machine checks for the structural claims about the J family.

Every check is a pure computation that returns ``(ok, details)``, with
details that carry enough data to re-validate the verdict from scratch
(witness cuts, independent sets, triangle covers, offending
counterexamples on FAIL).  ``run_claim`` turns one check into a
ClaimReport.  Reports are pure data, serialize with sorted keys, and are
byte-identical across runs and worker counts.

``CLAIMS`` at the end of this module is the claim table: one record per
claim, in ledger order, with its id, check, default parameters and
hypothesis.  Only ``run_claim`` and ``build_tasks`` read a hypothesis.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .formats import json_text
from .generators import LabeledGraph, build_jm, complete, cycle, cycle_power, line_graph, petersen
from .graphs import Graph, bits, mask_of
from .invariants import (
    claw_centers,
    connectivity,
    cutsets_of_size,
    fraction_json,
    independence_number,
    induced_stars,
    toughness,
)
from .parallel import worker_pool


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


def _vlist(mask: int) -> list[int]:
    return list(bits(mask))


@lru_cache(maxsize=None)
def _jm(m: int) -> LabeledGraph:
    return build_jm(m)


# the fixed graphs of the background claims, by label; the rest are "J_<m>"
_FIXED_GRAPHS = {
    "C_5": lambda: cycle(5),
    "L(K_4)": lambda: line_graph(complete(4)),
    "L(K_5)": lambda: line_graph(complete(5)),
    "L(petersen)": lambda: line_graph(petersen()),
    "C_8^2": lambda: cycle_power(8, 2),
    "C_10^2": lambda: cycle_power(10, 2),
}


@lru_cache(maxsize=None)
def _graph(label: str) -> Graph:
    build = _FIXED_GRAPHS.get(label)
    return _jm(int(label[2:])).graph if build is None else build()


@lru_cache(maxsize=None)
def _toughness(label: str):
    return toughness(_graph(label))


# ---------------------------------------------------------------------------
# J-family claims

def verify_lemma_a(m: int) -> tuple[bool, dict]:
    """Connectivity exactly 4."""
    cert = connectivity(_jm(m).graph)
    details = {
        "kappa": cert.kappa,
        "witness_cut": None if cert.witness_cut is None else _vlist(cert.witness_cut),
    }
    return cert.kappa == 4, details


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


def verify_lemma_b(m: int) -> tuple[bool, dict]:
    """Every size-4 cut-set isolates a cycle vertex or is an aligned pair.

    This is machine-refuted for every m >= 5: cut-sets made of one aligned
    pair plus one endpoint of each bridge (for example a_1, a_2, b_2, b_m)
    disconnect the graph while fitting neither shape.  There are 2(m-2)
    of them, checked at every m up to 21, the graph6 limit.  The FAIL
    payload lists the first ten in ascending mask order (all of them for
    m <= 7, 10 of 12 at m = 8, 10 of 14 at m = 9); by_kind["outside_claim"]
    always gives the full count.
    """
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
    return not bad, details


def _triangle_cover(lab) -> list[tuple[int, int, int]]:
    """The alternating triangle cover of the graph minus a_1 and b_m."""
    tris = []
    for i in range(1, lab.m):
        if i % 2 == 1:
            tris.append((lab.c(i), lab.b(i), lab.b(i + 1)))
        else:
            tris.append((lab.c(i), lab.a(i), lab.a(i + 1)))
    return tris


def verify_lemma_c(m: int) -> tuple[bool, dict]:
    """Independence number m-1 for odd m."""
    alpha, witness = independence_number(_jm(m).graph)
    details = {"alpha": alpha, "expected": m - 1, "witness": _vlist(witness)}
    return alpha == m - 1, details


def verify_lemma_c_triangles(m: int) -> tuple[bool, dict]:
    """Dropping a_1 and b_m leaves m-1 disjoint spanning triangles (odd m)."""
    lg = _jm(m)
    g, lab = lg.graph, lg.labeling
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
    details = {
        "triangles": [sorted((x, y, z)) for x, y, z in tris],
        "dropped": _vlist(dropped),
        "disjoint_triangles": all_triangles,
        "spanning": spanning,
    }
    return all_triangles and spanning, details


def verify_theorem(m: int) -> tuple[bool, dict]:
    """Toughness exactly 2 for odd m >= 3."""
    return verify_two_tough(f"J_{m}")


def verify_claw_centers(m: int) -> tuple[bool, dict]:
    """Claw centers are exactly the bridge set a_1, a_m, b_1, b_m."""
    lg = _jm(m)
    centers = claw_centers(lg.graph)
    x = lg.labeling.x_mask()
    details = {"centers": _vlist(centers), "expected": _vlist(x)}
    return centers == x, details


def verify_no_k14_at_x(m: int) -> tuple[bool, dict]:
    """No induced K_{1,4} is centered at a bridge vertex."""
    lg = _jm(m)
    x = lg.labeling.x_mask()
    four_stars = induced_stars(lg.graph, 4)
    at_x = [s for s in four_stars if x >> s.center & 1]
    details = {
        "k14_total": len(four_stars),
        "k14_at_bridge": [{"center": s.center, "leaves": _vlist(s.leaves)} for s in at_x],
    }
    return not at_x, details


# ---------------------------------------------------------------------------
# background claims on fixed graphs

def verify_ms_consistency(label: str) -> tuple[bool, dict]:
    """Claw-free graphs must land exactly on toughness = connectivity / 2."""
    g = _graph(label)
    free = claw_centers(g) == 0
    tough = _toughness(label)
    kappa = connectivity(g).kappa
    ok = free and tough.value == Fraction(kappa, 2)
    details = {
        "claw_free": free,
        "kappa": kappa,
        "toughness": fraction_json(tough.value),
        "witness_cut": _vlist(tough.witness_cut),
    }
    return ok, details


def verify_two_tough(label: str) -> tuple[bool, dict]:
    """The graph is exactly 2-tough: the C_n^2 fixtures, and J_m (odd m)."""
    cert = _toughness(label)
    details = {
        "toughness": fraction_json(cert.value),
        "witness_cut": _vlist(cert.witness_cut),
        "components": cert.component_count,
    }
    return cert.value == Fraction(2), details


def verify_alpha_bound(label: str) -> tuple[bool, dict]:
    """Supertough 4-regular graphs obey alpha <= 2n / (r + 2) = n/3."""
    g = _graph(label)
    regular4 = all(g.degree(v) == 4 for v in range(g.n))
    supertough = regular4 and _toughness(label).value == Fraction(2)
    alpha, witness = independence_number(g)
    bound = Fraction(2 * g.n, 6)
    details = {
        "n": g.n,
        "supertough": supertough,
        "alpha": alpha,
        "bound": fraction_json(bound),
        "witness": _vlist(witness),
    }
    return supertough and alpha <= bound, details


# ---------------------------------------------------------------------------
# the claim table and ledger orchestration

class Claim(NamedTuple):
    """One ledger claim.

    A J-family claim checks one m per report: by default each m in
    ``params``, and only where ``hypothesis(m)`` holds; ``run_claim``
    raises at any other m.  A fixed-graph claim has ``hypothesis`` None and
    checks every graph label in ``params``, whatever m is asked for."""

    id: str
    check: Callable[[object], tuple[bool, dict]]
    params: tuple | range
    hypothesis: Callable[[int], bool] | None = None


def _odd(m: int) -> bool:
    return m >= 3 and m % 2 == 1


# in ledger order, which the default `verify` output keeps; toughness-backed
# THEOREM stops at m = 7, the other J claims at 9
CLAIMS = {c.id: c for c in (
    Claim("LEMMA_A", verify_lemma_a, range(3, 10), lambda m: m >= 3),
    Claim("LEMMA_B", verify_lemma_b, range(3, 10), lambda m: m >= 5),
    Claim("LEMMA_C", verify_lemma_c, range(3, 10), _odd),
    Claim("LEMMA_C_TRIANGLES", verify_lemma_c_triangles, range(3, 10), _odd),
    Claim("THEOREM", verify_theorem, range(3, 8), _odd),
    Claim("CLAW_CENTERS", verify_claw_centers, range(3, 10), lambda m: m >= 4),
    Claim("NO_K14_AT_X", verify_no_k14_at_x, range(3, 10), lambda m: m >= 4),
    Claim("MS_CONSISTENCY", verify_ms_consistency,
          ("J_3", "C_5", "L(K_4)", "L(K_5)", "L(petersen)")),
    Claim("CYCLE_POWER_TOUGH", verify_two_tough, ("C_8^2", "C_10^2")),
    Claim("ALPHA_BOUND", verify_alpha_bound, ("J_3", "J_5", "J_7", "C_8^2", "C_10^2")),
)}

CLAIM_IDS = tuple(CLAIMS)


def _check_applies(claim: str, m: int) -> None:
    """Raise unless the hypothesis of ``claim`` holds at m."""
    hypothesis = CLAIMS[claim].hypothesis
    if hypothesis is not None and not hypothesis(m):
        raise ValueError(f"claim {claim} does not apply at m={m} "
                         "(check the hypothesis; --odd-only skips even m)")


def run_claim(claim: str, param) -> ClaimReport:
    """Check one claim at one parameter and report its verdict.

    Raises ValueError if ``claim`` is J-family and its hypothesis fails at
    m = ``param``.  The check is called through the module's name for it,
    not the object the table holds, so a wrapper bound to that name (a
    tracer, a test double) sees the call."""
    _check_applies(claim, param)
    ok, details = globals()[CLAIMS[claim].check.__name__](param)
    return ClaimReport(claim, param, "PASS" if ok else "FAIL", details)


def _run_task(task: tuple[str, object]) -> ClaimReport:
    return run_claim(*task)


def build_tasks(m_values=None, claims=None, odd_only: bool = False):
    """Canonical (claim, parameter) task list for a ledger run.

    Naming claims together with ``m_values`` raises ValueError at the first
    named claim, in the caller's order, that does not apply at a kept m;
    otherwise the m where a claim does not apply are skipped."""
    chosen = CLAIM_IDS if claims is None else tuple(claims)
    for c in chosen:
        if c not in CLAIMS:
            raise ValueError(f"unknown claim {c!r}")
    if claims is not None and m_values is not None:
        for c in chosen:
            for m in m_values:
                if not (odd_only and m % 2 == 0):
                    _check_applies(c, m)
    tasks: list[tuple[str, object]] = []
    for claim in CLAIMS.values():
        if claim.id not in chosen:
            continue
        if claim.hypothesis is None:
            tasks.extend((claim.id, p) for p in claim.params)
            continue
        for m in claim.params if m_values is None else m_values:
            if not (odd_only and m % 2 == 0) and claim.hypothesis(m):
                tasks.append((claim.id, m))
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
    return json_text([r.to_json_dict() for r in reports])
