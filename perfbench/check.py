"""Output checks for every op the benchmark times.

The certificate checks use only the standard library and this directory's
graph6 decoder, so they share no code with the solvers they check.  Each
check returns a problem description, or None when the output is right.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from corpus import decode_graph6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _components(adj: list[int], removed: int) -> int:
    """Connected components of the graph minus ``removed``, by BFS."""
    alive = (1 << len(adj)) - 1 & ~removed
    count = 0
    while alive:
        count += 1
        start = (alive & -alive).bit_length() - 1
        seen = 1 << start
        queue = [start]
        while queue:
            v = queue.pop()
            fresh = adj[v] & alive & ~seen
            seen |= fresh
            queue.extend(u for u in range(len(adj)) if fresh >> u & 1)
        alive &= ~seen
    return count


def _mask(vertices: list[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n or mask >> v & 1:
            raise ValueError(f"witness vertex {v} repeated or out of range")
        mask |= 1 << v
    return mask


def _is_complete(adj: list[int]) -> bool:
    full = (1 << len(adj)) - 1
    return all(row | 1 << v == full for v, row in enumerate(adj))


def _check_toughness(adj, out) -> str | None:
    if out["value"] == "infinite":
        return None if _is_complete(adj) else "infinite toughness on a non-complete graph"
    cut = _mask(out["witness"], len(adj))
    k = _components(adj, cut)
    if k < 2 or k != out["components"]:
        return f"witness leaves {k} components, output says {out['components']}"
    value = Fraction(out["value"]["num"], out["value"]["den"])
    if Fraction(len(out["witness"]), k) != value:
        return f"|S|/k = {len(out['witness'])}/{k}, output says {value}"
    return None


def _check_connectivity(adj, out) -> str | None:
    kappa = out["value"]["num"]
    if out["witness"] is None:
        ok = _is_complete(adj) and kappa == len(adj) - 1
        return None if ok else "no connectivity witness on a non-complete graph"
    cut = _mask(out["witness"], len(adj))
    if len(out["witness"]) != kappa:
        return f"witness has {len(out['witness'])} vertices, kappa is {kappa}"
    if _components(adj, cut) < 2:
        return "connectivity witness does not disconnect the graph"
    return None


def _check_independence(adj, out) -> str | None:
    s = _mask(out["witness"], len(adj))
    if len(out["witness"]) != out["value"]["num"]:
        return "independence witness size differs from the value"
    if any(adj[v] & s for v in out["witness"]):
        return "independence witness is not independent"
    return None


def _check_claws(adj, out) -> str | None:
    if out["count"] != len(out["stars"]):
        return "claw count differs from the star list"
    for star in out["stars"]:
        c, leaves = star["center"], star["leaves"]
        lm = _mask(leaves, len(adj))
        if len(leaves) != 3 or c in leaves or adj[c] & lm != lm:
            return f"star at {c} is not a K_1,3 on neighbours of its center"
        if any(adj[u] & lm for u in leaves):
            return f"star at {c} is not induced"
    return None


CERTIFICATE_CHECKS = {
    "toughness": _check_toughness,
    "connectivity": _check_connectivity,
    "independence": _check_independence,
    "claws": _check_claws,
}


def check_invariant(which: str, graph6: str, rc: int, stdout: str,
                    expected_digest: str | None) -> str | None:
    """Check one ``toughkit invariant`` op: exit 0, a valid certificate and
    the output recorded at the seed commit."""
    if rc != 0:
        return f"exit {rc}"
    try:
        problem = CERTIFICATE_CHECKS[which](decode_graph6(graph6), json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"malformed output: {exc!r}"
    if problem is None and digest(stdout) != expected_digest:
        problem = "output differs from the seed commit's"
    return problem and f"{which} {graph6}: {problem}"


def check_ledger(rc: int, stdout: str, expected: dict) -> str | None:
    """``verify`` exits 5 by design: LEMMA_B is refuted."""
    if rc != expected["exit"]:
        return f"verify exit {rc}, expected {expected['exit']}"
    if digest(stdout) != expected["stdout"]:
        return "verify output differs from the seed commit's"
    return None


def check_census(rc: int, stdout: str, expected: dict) -> str | None:
    if rc != expected["exit"]:
        return f"census exit {rc}, expected {expected['exit']}"
    try:
        survivors = [s["graph6"] for s in json.loads(stdout)["survivors"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"census output malformed: {exc!r}"
    if survivors != expected["survivors"]:
        return f"census survivors {survivors}, expected {expected['survivors']}"
    if digest(stdout) != expected["stdout"]:
        return "census output differs from the seed commit's"
    return None
