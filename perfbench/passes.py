"""One unit of measured work, run by run.py in a fresh interpreter.

Every pass runs in its own interpreter so that toughkit's in-process caches
(``verify._jm`` and ``verify._jm_toughness``) start cold, as they do for a
real CLI call, and a repeated pass never times a cache hit.  The clock runs
inside the interpreter, around each ``toughkit.cli.main`` call, so
interpreter start, import and input generation are timed apart as set-up.

Modes, each printing one JSON object as its last stdout line:
  setup   start, import toughkit, make the workload's inputs, stop
  pass    one pass of a workload; with --spool DIR, traced
  fixed   the fixed per-layer cases of the traced run
  claim   one ledger claim, from a cold cache
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import sys
import time
from math import comb

import check
import corpus
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
INVARIANTS = ("toughness", "connectivity", "independence", "claws")
CLI_ARGV = {
    "ledger": ["verify"],
    "census": ["census", "--n", "11", "--r", "4", "--connected", "--supertough"],
}
SOLVERS = ("invariants.toughness", "invariants.connectivity",
           "invariants.independence_number", "invariants.induced_stars")
CUTSET_CASES = tuple((m, s) for m in (7, 8, 9) for s in (5, 6))
ENUMERATIONS = ((10, 4), (11, 4), (12, 3))
CLAIM_IDS = ("LEMMA_A", "LEMMA_B", "LEMMA_C", "LEMMA_C_TRIANGLES", "THEOREM",
             "CLAW_CENTERS", "NO_K14_AT_X", "CYCLE_POWER_TOUGH", "ALPHA_BOUND",
             "MS_CONSISTENCY")


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def make_ops(workload: str, seed: int, work_dir: str, expected: dict) -> list:
    """The (argv, check) pairs of one pass; check(rc, stdout) -> problem."""
    if workload == "ledger":
        return [(CLI_ARGV["ledger"],
                 lambda rc, out: check.check_ledger(rc, out, expected["ledger"]))]
    if workload == "census":
        return [(CLI_ARGV["census"],
                 lambda rc, out: check.check_census(rc, out, expected["census"]))]
    ops = []
    for i, g6 in enumerate(corpus.corpus(seed)):
        path = os.path.join(work_dir, f"g{i:02d}.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(g6 + "\n")
        digests = expected["corpus"].get(g6, [None] * len(INVARIANTS))
        for which, want in zip(INVARIANTS, digests):
            ops.append((["invariant", which, "--input", path],
                        lambda rc, out, w=which, g=g6, d=want:
                        check.check_invariant(w, g, rc, out, d)))
    return ops


def call_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run cli.main with stdout and stderr captured; returns rc, stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed pass
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def workers_default(cli) -> int | str:
    """The --workers value the CLI picks when none is given.

    Read through a private name, so a refactor that renames it records
    "unknown" instead of stopping the benchmark."""
    try:
        return cli._build_parser().parse_args(["verify"]).workers
    except (AttributeError, SystemExit):
        return "unknown"


def trace_summary(all_spans: list[dict]) -> dict:
    """Per-layer figures from the spans of one traced pass."""
    kids = spans.children_of(all_spans)
    own = spans.self_times(all_spans)
    self_s: dict = {}
    for s in all_spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own[s["id"]]
    cli_overhead = [
        s["end"] - s["start"]
        - sum(c["end"] - c["start"] for c in spans.outermost(s, kids, SOLVERS))
        for s in all_spans if s["name"] == "cli.main"
    ]
    parse = [s["end"] - s["start"] for s in all_spans if s["name"] == "formats.parse_graph6"]
    return {
        "spans": len(all_spans),
        "orphans": len(spans.orphans(all_spans)),
        "self_s": self_s,
        "cli_overhead_s": statistics.median(cli_overhead) if cli_overhead else None,
        "parse_graph6_s": statistics.median(parse) if parse else None,
    }


def run_pass(args, t0: float) -> dict:
    from toughkit import cli
    expected = load_expected()
    ops = make_ops(args.workload, args.seed, args.work, expected)
    setup_s = time.monotonic() - t0
    uninstall = None
    if args.spool:
        tracer = spans.Tracer(args.spool)
        uninstall = spans.install(tracer)
    results = []
    start = time.perf_counter()
    for argv, _ in ops:
        results.append(call_cli(cli, argv))
    wall_s = time.perf_counter() - start
    if uninstall:
        uninstall()
    problems = [problem for (argv, verify), (rc, out, _) in zip(ops, results)
                if (problem := verify(rc, out))]
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": [elapsed for _, _, elapsed in results],
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems[:5],
        "workers_default": workers_default(cli),
    }
    if args.spool:
        summary = trace_summary(tracer.collect())
        if summary["orphans"]:
            report["problems"].append(f"{summary['orphans']} orphan spans")
            report["failed"] += 1
        report["trace"] = summary
    return report


def _toughness_problem(g, cert, want: str) -> str | None:
    from toughkit.invariants import toughness_json
    problem = check.CERTIFICATE_CHECKS["toughness"](list(g.adj), toughness_json(cert))
    value = f"{cert.value.numerator}/{cert.value.denominator}"
    if problem is None and value != want:
        problem = f"toughness {value}, expected {want}"
    return problem


def run_fixed(args) -> dict:
    """Per-layer cases that no workload isolates, timed without tracing."""
    from toughkit import (SearchSpec, build_jm, canonical_form, cutsets_of_size,
                          enumerate_regular, is_t_tough, relabel, run_census,
                          serialize_graph6, toughness)
    expected = load_expected()
    want = expected["fixed"]
    metrics: dict = {}
    problems: list = []

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    jm = {m: build_jm(m).graph for m in (7, 8, 9)}
    for m in (7, 8):
        cert, metrics[f"invariants.toughness.jm{m}_s"] = timed(lambda: toughness(jm[m]))
        problem = _toughness_problem(jm[m], cert, want[f"toughness_jm{m}"])
        expect(problem is None, f"toughness(J_{m}): {problem}")

    subsets, counts, total = 0, [], 0.0
    for m, s in CUTSET_CASES:
        cuts, dt = timed(lambda: cutsets_of_size(jm[m], s))
        subsets += comb(jm[m].n, s)
        counts.append(len(cuts))
        total += dt
    metrics["invariants.cutsets_of_size.subsets_per_s"] = subsets / total
    expect(counts == want["cutset_counts"], f"cut-set counts {counts}")

    verdict, metrics["invariants.is_t_tough.jm7_s"] = timed(lambda: is_t_tough(jm[7], 2))
    expect(verdict == (True, None), f"is_t_tough(J_7, 2) = {verdict}")

    classes, lines = {}, {}
    for n, r in ENUMERATIONS:
        classes[n, r], metrics[f"search.enumerate_regular.n{n}r{r}_s"] = timed(
            lambda: enumerate_regular(n, r))
        lines[n, r] = [serialize_graph6(g) for g in classes[n, r]]
        expect(check.digest("\n".join(lines[n, r])) == want[f"classes_n{n}r{r}"],
               f"enumerate_regular({n}, {r}) differs from the seed commit")

    rng = random.Random(args.seed)
    base = classes[11, 4]
    elapsed, wrong = 0.0, 0
    for g in base:
        perm = list(range(g.n))
        rng.shuffle(perm)
        form, dt = timed(lambda: canonical_form(relabel(g, perm)))
        elapsed += dt
        wrong += form != serialize_graph6(g)
    metrics["search.canonical_form.relabeled_us"] = elapsed / len(base) * 1e6

    spec = SearchSpec(n=11, r=4, source="stream", predicates=("connected", "supertough"))
    result, metrics["search.run_census.stream_s"] = timed(
        lambda: run_census(spec, stream=lines[11, 4], workers=1))
    survivors = [rec["graph6"] for rec in result.to_json_dict()["survivors"]]
    expect(survivors == expected["census"]["survivors"],
           f"stream census survivors {survivors}")
    if wrong:
        problems.append(f"{wrong} relabeled classes lost their canonical form")
    # one check each for the two toughness values, the cut-set counts, the
    # t-tough verdict, the three enumerations and the stream census, plus
    # one per relabeled class
    return {"metrics": metrics, "attempted": 8 + len(base),
            "failed": len(problems) - bool(wrong) + wrong, "problems": problems}


def run_claim(args) -> dict:
    from toughkit import verify
    start = time.perf_counter()
    reports = verify.run_ledger(claims=[args.claim], workers=1)
    elapsed = time.perf_counter() - start
    want = load_expected()["claims"][args.claim]
    problem = None
    if check.digest(verify.ledger_json(reports)) != want:
        problem = f"{args.claim} reports differ from the seed commit's"
    return {"seconds": elapsed, "attempted": 1, "failed": int(problem is not None),
            "problems": [problem] if problem else []}


def main(argv=None) -> int:
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "fixed", "claim"))
    parser.add_argument("--workload", choices=("ledger", "census", "corpus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", help="directory for the corpus graph files")
    parser.add_argument("--spool", help="trace the pass; workers spool spans here")
    parser.add_argument("--claim")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        from toughkit import cli
        make_ops(args.workload, args.seed, args.work, load_expected())
        report = {"setup_s": time.monotonic() - t0, "workers_default": workers_default(cli)}
    elif args.mode == "pass":
        report = run_pass(args, t0)
    elif args.mode == "fixed":
        report = run_fixed(args)
    else:
        report = run_claim(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
