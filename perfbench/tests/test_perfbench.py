"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import check  # noqa: E402
import corpus  # noqa: E402
import passes  # noqa: E402
import spans  # noqa: E402
from toughkit import cli  # noqa: E402


def cli_json(*argv: str) -> dict:
    rc, out, _ = passes.call_cli(cli, list(argv))
    assert rc == 0
    return json.loads(out)


def graph_file(tmp_path, g6: str) -> str:
    path = tmp_path / "g.g6"
    path.write_text(g6 + "\n")
    return str(path)


def test_corpus_is_byte_stable_for_a_seed():
    first = corpus.corpus(11)
    assert first == corpus.corpus(11)
    assert first != corpus.corpus(12)
    assert len(first) == len(corpus.CELLS) * corpus.PER_CELL
    # pinned: a change here changes every corpus run's inputs
    assert check.digest("\n".join(first)) == "d0c0d6eae338a09b"
    for g6 in first:
        assert check._components(corpus.decode_graph6(g6), 0) == 1


def test_every_pool_graph_has_recorded_outputs():
    recorded = passes.load_expected()["corpus"]
    pool = {g6 for labelings in corpus.pool() for g6 in labelings}
    assert pool == set(recorded)


def test_graph6_codec_round_trips_against_toughkit():
    from toughkit import parse_graph6, serialize_graph6
    for g6 in corpus.corpus(3)[:10]:
        g = parse_graph6(g6)
        assert list(g.adj) == corpus.decode_graph6(g6)
        assert serialize_graph6(g) == corpus.encode_graph6(list(g.adj))


def test_checker_accepts_real_certificates_and_rejects_tampered_ones(tmp_path):
    g6 = corpus.corpus(5)[-1]  # n = 20, p = 0.45
    adj = corpus.decode_graph6(g6)
    path = graph_file(tmp_path, g6)
    out = {which: cli_json("invariant", which, "--input", path, "--workers", "1")
           for which in passes.INVARIANTS}
    for which, payload in out.items():
        assert check.CERTIFICATE_CHECKS[which](adj, payload) is None, which

    tough = dict(out["toughness"], witness=out["toughness"]["witness"][1:])
    assert check.CERTIFICATE_CHECKS["toughness"](adj, tough)

    kappa = out["connectivity"]["value"]["num"]
    conn = dict(out["connectivity"], witness=list(range(kappa)))
    assert check.CERTIFICATE_CHECKS["connectivity"](adj, conn)

    indep = out["independence"]["witness"]
    v = indep[0]
    nbr = next(u for u in range(len(adj)) if adj[v] >> u & 1)
    bad = dict(out["independence"], witness=sorted(indep[1:] + [nbr]))
    assert check.CERTIFICATE_CHECKS["independence"](adj, bad)

    star = out["claws"]["stars"][0]
    c = star["center"]
    far = next(u for u in range(len(adj)) if u != c and not adj[c] >> u & 1)
    claws = dict(out["claws"], stars=[{"center": c, "leaves": star["leaves"][:2] + [far]}])
    assert check.CERTIFICATE_CHECKS["claws"](adj, claws)


def test_checker_rejects_output_that_differs_from_the_seed_commit(tmp_path):
    g6 = corpus.corpus(5)[0]
    want = passes.load_expected()["corpus"][g6][0]
    rc, out, _ = passes.call_cli(cli, ["invariant", "toughness", "--input", graph_file(tmp_path, g6)])
    assert check.check_invariant("toughness", g6, rc, out, want) is None
    assert check.check_invariant("toughness", g6, rc, out + " ", want)
    assert check.check_invariant("toughness", g6, 4, out, want)


def test_self_time_subtracts_the_union_of_parallel_children():
    trace = [
        {"id": "1.1", "parent": None, "name": "a", "pid": 1, "start": 0.0, "end": 10.0},
        {"id": "2.2", "parent": "1.1", "name": "b", "pid": 2, "start": 1.0, "end": 6.0},
        {"id": "3.2", "parent": "1.1", "name": "b", "pid": 3, "start": 2.0, "end": 8.0},
    ]
    own = spans.self_times(trace)
    assert abs(own["1.1"] - 3.0) < 1e-9
    assert own["2.2"] == 5.0 and not spans.orphans(trace)
    assert spans.orphans(trace[1:]) == trace[1:]


def test_traced_run_span_tree_has_no_orphans(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = spans.Tracer(str(spool))
    uninstall = spans.install(tracer)
    try:
        path = graph_file(tmp_path, corpus.corpus(1)[-1])
        for argv in (["invariant", "toughness", "--input", path, "--workers", "2"],
                     ["verify", "--claim", "LEMMA_A", "--m", "3..6", "--workers", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        uninstall()
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    trace = tracer.collect()
    assert not spans.orphans(trace)
    names = {s["name"] for s in trace}
    assert {"cli.main", "invariants.toughness", "formats.parse_graph6",
            "verify.run_ledger", "verify.verify_lemma_a"} <= names
    assert len({s["pid"] for s in trace}) > 1, "pool workers recorded no spans"
    roots = [s for s in trace if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main", "cli.main"]
    assert min(spans.self_times(trace).values()) > -1e-6
