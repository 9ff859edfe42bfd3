"""Command-line front end.

Subcommands wire the library into reproducible runs:

  gen        emit a generated graph (graph6, dot, edges, json, table)
  invariant  compute a certificate for a parsed input graph
  verify     run the claim ledger over a parameter range
  census     filter regular graphs through a predicate pipeline
  corpus     emit seeded random connected graphs for oracle testing

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 solver
envelope exceeded, 5 verification failure (a FAIL row in the ledger).
JSON output has sorted keys and is byte-identical across worker counts.
Table output colors verdicts only on a tty and never when NO_COLOR is set.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from .formats import (ParseError, _check_graph6_order, json_text, parse_edge_list, parse_graph6,
                      serialize_edge_list, serialize_graph6, to_dot)
from .generators import (LabeledGraph, build_jm, complete, cycle, cycle_power, path, petersen,
                         random_connected_graph, star)
from .graphs import EnvelopeError, Graph, bits
from .invariants import (
    connectivity,
    connectivity_json,
    independence_json,
    independence_number,
    induced_stars,
    stars_json,
    toughness,
    toughness_json,
)
from .parallel import usable_cpus
from .search import PREDICATES, SearchSpec, run_census
from .verify import CLAIM_IDS, ledger_json, run_ledger

OK = 0
USAGE = 2
PARSE = 3
ENVELOPE = 4
VERIFY_FAIL = 5


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _use_color(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _verdict_text(verdict: str, stream) -> str:
    if not _use_color(stream):
        return verdict
    code = "32" if verdict == "PASS" else "31"
    return f"\x1b[{code}m{verdict}\x1b[0m"


def _parse_m_range(text: str):
    """'3..7' -> range(3, 8); '5' -> range(5, 6)."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _read_text(args) -> str:
    if getattr(args, "stdin", False):
        return sys.stdin.read()
    path = getattr(args, "input", None)
    if path is None:
        raise ValueError("need --input PATH or --stdin")
    if not os.path.isfile(path):
        raise ValueError(f"no such file: {path}")
    with open(path, encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not ASCII: {exc.reason} at byte {exc.start}")


def _load_graph(args) -> Graph:
    text = _read_text(args)
    if args.input_format == "edges":
        return parse_edge_list(text)
    return parse_graph6(text.strip())


# ---------------------------------------------------------------------------
# gen

def _graph_table(g: Graph, names: list[str] | None) -> str:
    if names is None:
        names = [str(v) for v in range(g.n)]
    width = max(len(s) for s in names)
    lines = [f"{g.n} vertices, {g.edge_count()} edges"]
    for v in range(g.n):
        nbrs = " ".join(names[u] for u in bits(g.adj[v]))
        lines.append(f"{names[v]:>{width}} : {nbrs}")
    return "\n".join(lines) + "\n"


def _graph_json(g: Graph, names: list[str] | None) -> str:
    payload = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if names is not None:
        payload["names"] = names
    return json_text(payload)


# gen --format name -> writer of (graph, vertex names or None) -> text
_GRAPH_FORMATS = {
    "graph6": lambda g, names: serialize_graph6(g) + "\n",
    "dot": to_dot,
    "edges": lambda g, names: serialize_edge_list(g),
    "json": _graph_json,
    "table": _graph_table,
}


# family -> (builder, the flags passed to it in order, a note on them);
# only a LabeledGraph builder takes --labels
_FAMILIES = {
    "jm": (build_jm, ("m",), ""),
    "cycle_power": (cycle_power, ("n", "k"), ""),
    "cycle": (cycle, ("n",), ""),
    "path": (path, ("n",), ""),
    "complete": (complete, ("n",), ""),
    "star": (star, ("k",), " (leaf count)"),
    "petersen": (petersen, (), ""),
}


def cmd_gen(args) -> int:
    builder, flags, note = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        wanted = " and ".join(f"--{flag}" for flag in flags)
        raise ValueError(f"gen {args.family} needs {wanted}{note}")
    g = builder(*values)
    names = None
    if isinstance(g, LabeledGraph):
        if args.labels:
            names = g.labeling.names()
        g = g.graph
    elif args.labels:
        raise ValueError("--labels only applies to the jm family")
    sys.stdout.write(_GRAPH_FORMATS[args.format](g, names))
    return OK


# ---------------------------------------------------------------------------
# invariant

# invariant kind -> its JSON payload for one graph
_INVARIANTS = {
    "toughness": lambda g: toughness_json(toughness(g)),
    "connectivity": lambda g: connectivity_json(connectivity(g)),
    "independence": lambda g: independence_json(*independence_number(g)),
    "claws": lambda g: stars_json(induced_stars(g, 3)),
}


def _invariant_table(payload: dict) -> str:
    if payload.get("invariant") == "claws":
        lines = [f"claws: {payload['count']}"]
        for s in payload["stars"]:
            leaves = " ".join(str(x) for x in s["leaves"])
            lines.append(f"  center {s['center']} leaves {leaves}")
        return "\n".join(lines) + "\n"
    name = payload["invariant"]
    val = payload["value"]
    if val == "infinite":
        return f"{name}: infinite (complete graph)\n"
    shown = f"{val['num']}" if val["den"] == 1 else f"{val['num']}/{val['den']}"
    lines = [f"{name}: {shown}"]
    if payload["witness"] is not None:
        lines.append("witness: " + " ".join(str(v) for v in payload["witness"]))
    if payload.get("components") is not None:
        lines.append(f"components after removal: {payload['components']}")
    return "\n".join(lines) + "\n"


def cmd_invariant(args) -> int:
    g = _load_graph(args)
    payload = _INVARIANTS[args.which](g)
    if args.format == "table":
        sys.stdout.write(_invariant_table(payload))
    else:
        sys.stdout.write(json_text(payload))
    return OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    reports = run_ledger(args.m, args.claim, odd_only=args.odd_only, workers=args.workers)
    if not reports:
        raise ValueError("selection matches no checks")
    if args.format == "table":
        width = max(len(r.claim) for r in reports)
        for r in reports:
            verdict = _verdict_text(r.verdict, sys.stdout)
            print(f"{verdict:4} {r.claim:<{width}} parameter={r.parameter}")
        failed = sum(not r.passed for r in reports)
        print(f"{len(reports) - failed} passed, {failed} failed")
    else:
        sys.stdout.write(ledger_json(reports))
    return OK if all(r.passed for r in reports) else VERIFY_FAIL


# ---------------------------------------------------------------------------
# census

def _census_table(payload: dict) -> str:
    spec = payload["spec"]
    lines = [
        f"census: n={spec['n']} r={spec['r']} source={spec['source']} "
        f"predicates={','.join(spec['predicates']) or '-'}",
        f"examined: {payload['examined']}",
        f"complete graphs: {payload['complete_graphs']}",
    ]
    for k in sorted(payload["counts"]):
        lines.append(f"count[{k}]: {payload['counts'][k]}")
    lines.append(f"survivors: {len(payload['survivors'])}")
    for rec in payload["survivors"]:
        t = rec["toughness"]["value"]
        shown = "infinite" if t == "infinite" else f"{t['num']}/{t['den']}"
        lines.append(f"  {rec['graph6']} toughness={shown} "
                     f"kappa={rec['connectivity']['value']['num']} "
                     f"has_claw={rec['has_claw']}")
    for err in payload["errors"]:
        lines.append(f"line {err['line']}: {err['message']}")
    return "\n".join(lines) + "\n"


def cmd_census(args) -> int:
    preds = [p for p in PREDICATES if getattr(args, p)]
    source = "stream" if (args.stdin or args.input) else "builtin"
    spec = SearchSpec(n=args.n, r=args.r, source=source, predicates=tuple(preds))
    stream = _read_text(args).splitlines() if source == "stream" else None
    result = run_census(spec, stream=stream, workers=args.workers or usable_cpus())
    payload = result.to_json_dict()
    if args.survivors_out:
        with open(args.survivors_out, "w", encoding="ascii") as fh:
            for rec in payload["survivors"]:
                fh.write(rec["graph6"] + "\n")
    if args.emit_dot:
        os.makedirs(args.emit_dot, exist_ok=True)
        for idx, rec in enumerate(payload["survivors"], start=1):
            path = os.path.join(args.emit_dot, f"survivor-{idx:03d}.dot")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(to_dot(parse_graph6(rec["graph6"])))
    if args.format == "table":
        sys.stdout.write(_census_table(payload))
    else:
        sys.stdout.write(json_text(payload))
    if args.strict and payload["errors"]:
        _err(f"{len(payload['errors'])} input line(s) rejected")
        return PARSE
    return OK


# ---------------------------------------------------------------------------
# corpus

def cmd_corpus(args) -> int:
    if args.min_n < 2 or args.max_n < args.min_n:
        raise ValueError("need 2 <= min-n <= max-n")
    if args.count < 0:
        raise ValueError(f"need count >= 0, got {args.count}")
    if not 0 < args.p <= 1:
        raise ValueError(f"need 0 < p <= 1, got {args.p}")
    rng = random.Random(args.seed)
    out = []
    for _ in range(args.count):
        n = rng.randrange(args.min_n, args.max_n + 1)
        _check_graph6_order(n)  # before sampling, which grows as n squared
        out.append(serialize_graph6(random_connected_graph(n, rng, args.p)))
    if args.format == "json":
        sys.stdout.write(json_text({"count": len(out), "graphs": out, "seed": args.seed}))
    else:
        sys.stdout.write("".join(line + "\n" for line in out))
    return OK


# ---------------------------------------------------------------------------
# parser assembly

def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker, got {workers}")
    return workers


def _add_workers(sub, default: int | None, text: str) -> None:
    shown = "the usable CPUs" if default is None else "%(default)s"
    sub.add_argument("--workers", type=_worker_count, default=default,
                     help=f"{text} (default: {shown})")


def _add_input(sub) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--input", metavar="PATH", help="read the graph from a file")
    source.add_argument("--stdin", action="store_true", help="read the graph from stdin")


def _build_parser() -> argparse.ArgumentParser:
    """A fresh parser; census --workers defaults to None, the usable CPUs."""
    parser = argparse.ArgumentParser(
        prog="toughkit",
        description="exact toughness, connectivity, independence and claw "
                    "certificates for small graphs")
    subs = parser.add_subparsers(dest="cmd", required=True)

    gen = subs.add_parser("gen", help="emit a generated graph")
    gen.add_argument("family", choices=_FAMILIES)
    gen.add_argument("--m", type=int, help="jm family parameter (m >= 3)")
    gen.add_argument("--n", type=int, help="vertex count")
    gen.add_argument("--k", type=int, help="cycle power distance / star leaves")
    gen.add_argument("--labels", action="store_true",
                     help="use role names (a1 ... c_i) in dot/json/table output")
    gen.add_argument("--format", choices=_GRAPH_FORMATS, default="graph6")
    gen.set_defaults(handler=cmd_gen)

    inv = subs.add_parser("invariant", help="compute a certificate for one graph")
    inv.add_argument("which", choices=_INVARIANTS)
    _add_input(inv)
    inv.add_argument("--input-format", choices=("graph6", "edges"), default="graph6")
    inv.add_argument("--format", choices=("json", "table"), default="json")
    _add_workers(inv, 1, "accepted for compatibility; invariants run in one process")
    inv.set_defaults(handler=cmd_invariant)

    ver = subs.add_parser("verify", help="run the claim ledger")
    ver.add_argument("--m", type=_parse_m_range, metavar="A..B",
                     help="parameter range (default: per-claim ranges)")
    ver.add_argument("--claim", action="append", choices=CLAIM_IDS,
                     help="restrict to a claim (repeatable)")
    ver.add_argument("--odd-only", action="store_true",
                     help="skip even m in the requested range")
    ver.add_argument("--format", choices=("json", "table"), default="json")
    _add_workers(ver, 1, "worker processes, capped at the usable CPUs; a pool only pays "
                         "off on ranges past the default ledger")
    ver.set_defaults(handler=cmd_verify)

    cen = subs.add_parser("census", help="filter regular graphs by predicates")
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--r", type=int, required=True)
    for pred in PREDICATES:
        cen.add_argument("--" + pred.replace("_", "-"), dest=pred, action="store_true")
    _add_input(cen)
    cen.add_argument("--strict", action="store_true",
                     help="exit 3 if any stream line is rejected")
    cen.add_argument("--survivors-out", metavar="PATH",
                     help="also write survivor graph6 lines to a file")
    cen.add_argument("--emit-dot", metavar="DIR",
                     help="write one DOT file per survivor into a directory")
    cen.add_argument("--format", choices=("json", "table"), default="json")
    _add_workers(cen, None, "worker processes, capped at the usable CPUs")
    cen.set_defaults(handler=cmd_census)

    cor = subs.add_parser("corpus", help="emit seeded random connected graphs")
    cor.add_argument("--seed", type=int, required=True)
    cor.add_argument("--count", type=int, default=20)
    cor.add_argument("--min-n", dest="min_n", type=int, default=4)
    cor.add_argument("--max-n", dest="max_n", type=int, default=9)
    cor.add_argument("--p", type=float, default=0.5, help="edge probability")
    cor.add_argument("--format", choices=("graph6", "json"), default="graph6")
    cor.set_defaults(handler=cmd_corpus)

    return parser


# parse_args makes a new Namespace on every call, and the parser reads nothing
# from outside, so one parser serves every main call of a process
_parser_for = functools.cache(_build_parser)


def main(argv=None) -> int:
    try:
        args = _parser_for().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.handler(args)
    except BrokenPipeError:
        return OK
    except ParseError as exc:
        _err(f"parse: {exc}")
        return PARSE
    except EnvelopeError as exc:
        _err(f"envelope: {exc}")
        return ENVELOPE
    except ValueError as exc:
        _err(str(exc))
        return USAGE
    except OSError as exc:
        _err(str(exc))
        return USAGE


def run() -> None:
    sys.exit(main())
