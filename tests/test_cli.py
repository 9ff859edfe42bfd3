"""End-to-end command tests driving main(argv) with captured streams."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from toughkit import cli
from toughkit.cli import ENVELOPE, OK, PARSE, USAGE, VERIFY_FAIL, main
from toughkit.cli import _build_parser, _use_color, _verdict_text
from toughkit.formats import parse_edge_list, parse_graph6, serialize_graph6
from toughkit.generators import build_jm, complete, cycle, cycle_power, path, petersen, star
from toughkit.search import canonical_form, run_census


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


# ---------------------------------------------------------------------------
# gen

def test_gen_graph6_default(capsys):
    code, out, err = run_cli(capsys, "gen", "cycle", "--n", "6")
    assert code == OK and err == ""
    assert out == serialize_graph6(cycle(6)) + "\n"


def test_gen_jm_edges_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gen", "jm", "--m", "4", "--format", "edges")
    assert code == OK
    g = parse_edge_list(out)
    assert g.adj == build_jm(4).graph.adj


def test_gen_jm_dot_with_labels(capsys):
    code, out, _ = run_cli(capsys, "gen", "jm", "--m", "4",
                           "--format", "dot", "--labels")
    assert code == OK
    assert out.startswith("graph")
    assert "  a1;" in out and "  c3;" in out and "  b4;" in out
    assert " -- " in out


def test_gen_json_petersen(capsys):
    code, out, _ = run_cli(capsys, "gen", "petersen", "--format", "json")
    assert code == OK
    payload = json.loads(out)
    assert payload["n"] == 10
    assert len(payload["edges"]) == 15


def test_gen_jm_json_with_labels(capsys):
    code, out, _ = run_cli(capsys, "gen", "jm", "--m", "3", "--labels", "--format", "json")
    assert code == OK
    payload = json.loads(out)
    assert payload["names"] == ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2"]
    assert [tuple(e) for e in payload["edges"]] == build_jm(3).graph.edges()


def test_gen_table(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "--n", "5",
                           "--format", "table")
    assert code == OK
    assert out.splitlines()[0] == "5 vertices, 5 edges"


def test_gen_star_leaf_count(capsys):
    code, out, _ = run_cli(capsys, "gen", "star", "--k", "3")
    assert code == OK
    g = parse_graph6(out.strip())
    assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 1, 3]


# one call per gen family, with the flags it needs, and the library graph it prints
GEN_FAMILIES = [
    (("jm", "--m", "5"), build_jm(5).graph),
    (("cycle_power", "--n", "9", "--k", "2"), cycle_power(9, 2)),
    (("cycle", "--n", "6"), cycle(6)),
    (("path", "--n", "5"), path(5)),
    (("complete", "--n", "4"), complete(4)),
    (("star", "--k", "3"), star(3)),
    (("petersen",), petersen()),
]


def test_gen_families_cover_the_parser_choices():
    subcommands = next(a for a in _build_parser()._actions if a.dest == "cmd")
    family = next(a for a in subcommands.choices["gen"]._actions if a.dest == "family")
    assert [argv[0] for argv, _ in GEN_FAMILIES] == list(family.choices)


@pytest.mark.parametrize("argv, graph", GEN_FAMILIES, ids=[argv[0] for argv, _ in GEN_FAMILIES])
def test_gen_prints_the_library_builder(capsys, argv, graph):
    assert run_cli(capsys, "gen", *argv) == (OK, serialize_graph6(graph) + "\n", "")


@pytest.mark.parametrize("argv", [
    ("gen", "jm"),                            # missing --m
    ("gen", "cycle"),                         # missing --n
    ("gen", "cycle", "--n", "6", "--labels"),  # labels need the jm family
    ("gen", "jm", "--m", "2"),                # family starts at m=3
    ("gen", "moebius"),                       # unknown family
])
def test_gen_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == USAGE


@pytest.mark.parametrize("argv, line", [
    (("invariant", "toughness"), "need --input PATH or --stdin"),
    (("invariant", "toughness", "--input", "/nonexistent/g.g6"),
     "no such file: /nonexistent/g.g6"),
    (("gen", "jm"), "gen jm needs --m"),
    (("gen", "cycle_power", "--n", "7"), "gen cycle_power needs --n and --k"),
    (("gen", "star"), "gen star needs --k (leaf count)"),
    (("gen", "cycle"), "gen cycle needs --n"),
    (("gen", "cycle", "--n", "6", "--labels"), "--labels only applies to the jm family"),
    (("verify", "--claim", "THEOREM", "--m", "3..4", "--workers", "1"),
     "claim THEOREM does not apply at m=4 (check the hypothesis; --odd-only skips even m)"),
    (("verify", "--claim", "LEMMA_A", "--m", "4", "--odd-only", "--workers", "1"),
     "selection matches no checks"),
    (("corpus", "--seed", "1", "--min-n", "1"), "need 2 <= min-n <= max-n"),
    (("corpus", "--seed", "1", "--count", "-3"), "need count >= 0, got -3"),
    (("corpus", "--seed", "1", "--p", "0"), "need 0 < p <= 1, got 0.0"),
    (("gen", "path"), "gen path needs --n"),
    (("gen", "complete"), "gen complete needs --n"),
    (("verify", "--claim", "THEOREM", "--claim", "LEMMA_B", "--m", "4", "--workers", "1"),
     "claim THEOREM does not apply at m=4 (check the hypothesis; --odd-only skips even m)"),
    (("verify", "--claim", "LEMMA_B", "--m", "3..5", "--workers", "1"),
     "claim LEMMA_B does not apply at m=3 (check the hypothesis; --odd-only skips even m)"),
])
def test_usage_errors_print_one_error_line(capsys, argv, line):
    assert run_cli(capsys, *argv) == (USAGE, "", f"error: {line}\n")


def test_help_exits_clean(capsys):
    assert run_cli(capsys, "--help")[0] == OK


# ---------------------------------------------------------------------------
# invariant

def test_invariant_toughness_from_file(tmp_path, capsys):
    path = tmp_path / "c6.g6"
    path.write_text(serialize_graph6(cycle(6)) + "\n")
    code, out, _ = run_cli(capsys, "invariant", "toughness",
                           "--input", str(path), "--workers", "1")
    assert code == OK
    payload = json.loads(out)
    assert payload["value"] == {"num": 1, "den": 1}
    assert payload["witness"] == [0, 2]
    assert payload["components"] == 2


def test_invariant_connectivity_from_stdin(capsys, monkeypatch):
    feed_stdin(monkeypatch, serialize_graph6(petersen()) + "\n")
    code, out, _ = run_cli(capsys, "invariant", "connectivity", "--stdin")
    assert code == OK
    payload = json.loads(out)
    assert payload["value"] == {"num": 3, "den": 1}
    assert len(payload["witness"]) == 3


def test_invariant_edge_list_input(tmp_path, capsys):
    path = tmp_path / "p5.edges"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run_cli(capsys, "invariant", "toughness", "--input",
                           str(path), "--input-format", "edges",
                           "--workers", "1")
    assert code == OK
    payload = json.loads(out)
    assert payload["value"] == {"num": 1, "den": 2}
    assert payload["witness"] == [1]


def test_invariant_claws_json(capsys, monkeypatch):
    feed_stdin(monkeypatch, serialize_graph6(star(3)) + "\n")
    code, out, _ = run_cli(capsys, "invariant", "claws", "--stdin")
    assert code == OK
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["stars"] == [{"center": 0, "leaves": [1, 2, 3]}]


def test_invariant_claws_table(capsys, monkeypatch):
    feed_stdin(monkeypatch, serialize_graph6(star(3)) + "\n")
    code, out, _ = run_cli(capsys, "invariant", "claws", "--stdin", "--format", "table")
    assert code == OK
    assert out == "claws: 1\n  center 0 leaves 1 2 3\n"


def test_invariant_table_format(capsys, monkeypatch):
    feed_stdin(monkeypatch, serialize_graph6(cycle(6)) + "\n")
    code, out, _ = run_cli(capsys, "invariant", "toughness", "--stdin",
                           "--format", "table", "--workers", "1")
    assert code == OK
    lines = out.splitlines()
    assert lines[0] == "toughness: 1"
    assert lines[1] == "witness: 0 2"


def test_invariant_infinite_table(capsys, monkeypatch):
    feed_stdin(monkeypatch, "D~{\n")  # K_5
    code, out, _ = run_cli(capsys, "invariant", "toughness", "--stdin",
                           "--format", "table", "--workers", "1")
    assert code == OK
    assert "infinite (complete graph)" in out


def test_invariant_parse_error(capsys, monkeypatch):
    feed_stdin(monkeypatch, "!!! not graph6\n")
    code, _, err = run_cli(capsys, "invariant", "toughness", "--stdin")
    assert code == PARSE
    assert err.startswith("error: parse:")


def test_invariant_non_ascii_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"I}h\xc3\xa9")
    code, out, err = run_cli(capsys, "invariant", "toughness", "--input", str(bad))
    assert code == PARSE
    assert out == ""
    assert err.startswith("error: parse:") and "not ASCII" in err


@pytest.mark.parametrize("cmd", [["invariant", "connectivity", "--stdin"],
                                 ["verify", "--claim", "LEMMA_A", "--m", "3"],
                                 ["census", "--n", "5", "--r", "4"]])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_a_usage_error(capsys, cmd, workers):
    code, out, err = run_cli(capsys, *cmd, "--workers", workers)
    assert code == USAGE
    assert out == ""
    assert "need at least 1 worker" in err


def test_verify_defaults_to_one_process():
    assert _build_parser().parse_args(["verify"]).workers == 1


def test_census_workers_default_follows_usable_cpus_through_main(monkeypatch, capsys):
    seen = []

    def recording(spec, stream=None, workers=1):
        seen.append(workers)
        return run_census(spec, stream=stream)

    monkeypatch.setattr(cli, "run_census", recording)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    assert run_cli(capsys, "census", "--n", "5", "--r", "4")[0] == OK
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    assert run_cli(capsys, "census", "--n", "5", "--r", "4")[0] == OK
    assert seen == [3, 1]


def _src_env() -> dict:
    """The environment of a child interpreter that imports this toughkit."""
    src = Path(cli.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}


def test_serial_runs_never_import_multiprocessing():
    script = (
        "import contextlib, io, sys\n"
        "from toughkit.cli import main\n"
        "sys.stdin = io.StringIO(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify']), main(['invariant', 'toughness', '--stdin'])]\n"
        "print(codes, 'multiprocessing' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script, serialize_graph6(petersen())],
                          env=_src_env(), capture_output=True, text=True, check=True)
    assert done.stdout == f"{[VERIFY_FAIL, OK]} False\n"


def test_one_parser_serves_every_call_and_carries_no_state(monkeypatch, capsys):
    j5 = serialize_graph6(build_jm(5).graph) + "\n"
    fresh = subprocess.run([sys.executable, "-m", "toughkit", "invariant", "toughness",
                            "--stdin"], input=j5.encode("ascii"), env=_src_env(),
                           capture_output=True, check=True).stdout
    cli._parser_for.cache_clear()
    assert run_cli(capsys, "verify", "--workers", "0")[0] == USAGE
    code, help_text, _ = run_cli(capsys, "--help")
    assert code == OK and help_text.startswith("usage: toughkit")
    assert run_cli(capsys, "--help") == (OK, help_text, "")
    feed_stdin(monkeypatch, j5)
    code, out, _ = run_cli(capsys, "invariant", "toughness", "--stdin")
    assert code == OK and out.encode("ascii") == fresh
    assert run_cli(capsys, "verify", "--claim", "LEMMA_A", "--m", "3")[0] == OK
    code, out, _ = run_cli(capsys, "verify", "--claim", "THEOREM", "--m", "3")
    assert code == OK
    assert [r["claim"] for r in json.loads(out)] == ["THEOREM"]
    # every call above parsed with the one parser built by the first
    assert cli._parser_for.cache_info().misses == 1


@pytest.mark.parametrize("cmd", [["invariant", "toughness"],
                                 ["census", "--n", "5", "--r", "4"]])
def test_input_and_stdin_together_are_a_usage_error(tmp_path, monkeypatch, capsys, cmd):
    path = tmp_path / "g.g6"
    path.write_text(serialize_graph6(petersen()) + "\n")
    feed_stdin(monkeypatch, "")
    code, out, err = run_cli(capsys, *cmd, "--input", str(path), "--stdin")
    assert (code, out) == (USAGE, "")
    assert err.endswith("error: argument --stdin: not allowed with argument --input\n")


def test_invariant_needs_an_input(capsys):
    code, _, err = run_cli(capsys, "invariant", "toughness")
    assert code == USAGE
    assert "--input" in err


def test_invariant_missing_file(capsys):
    code, _, err = run_cli(capsys, "invariant", "toughness",
                           "--input", "/nonexistent/g.g6")
    assert code == USAGE
    assert "no such file" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_passing_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "THEOREM",
                           "--m", "3..5", "--odd-only", "--workers", "1")
    assert code == OK
    reports = json.loads(out)
    assert [r["parameter"] for r in reports] == [3, 5]
    assert all(r["verdict"] == "PASS" for r in reports)


def test_verify_failing_claim_exits_5(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "LEMMA_B",
                           "--m", "5", "--workers", "1")
    assert code == VERIFY_FAIL
    reports = json.loads(out)
    assert reports[0]["verdict"] == "FAIL"
    assert len(reports[0]["details"]["counterexamples"]) == 6


def test_verify_rejects_inapplicable_parameter(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "THEOREM",
                           "--m", "3..4", "--workers", "1")
    assert code == USAGE
    assert "does not apply at m=4" in err


def test_verify_odd_only_skips_inapplicable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "THEOREM",
                           "--m", "3..4", "--odd-only", "--workers", "1")
    assert code == OK
    assert [r["parameter"] for r in json.loads(out)] == [3]


def test_verify_fixed_graph_claim_ignores_m(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "CYCLE_POWER_TOUGH",
                           "--m", "4", "--odd-only", "--workers", "1")
    assert code == OK
    reports = json.loads(out)
    assert [r["parameter"] for r in reports] == ["C_8^2", "C_10^2"]
    assert all(r["verdict"] == "PASS" for r in reports)


def test_verify_empty_selection(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "LEMMA_A",
                           "--m", "4", "--odd-only", "--workers", "1")
    assert code == USAGE
    assert "matches no checks" in err


def test_verify_table_plain_when_not_a_tty(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "THEOREM",
                           "--m", "3", "--format", "table", "--workers", "1")
    assert code == OK
    assert "\x1b[" not in out
    lines = out.splitlines()
    assert lines[0] == "PASS THEOREM parameter=3"
    assert lines[-1] == "1 passed, 0 failed"


def test_verify_unknown_claim(capsys):
    assert run_cli(capsys, "verify", "--claim", "LEMMA_Z")[0] == USAGE


def test_verify_bad_range_syntax(capsys):
    assert run_cli(capsys, "verify", "--m", "7..3")[0] == USAGE
    assert run_cli(capsys, "verify", "--m", "x..y")[0] == USAGE


# color helpers are unit-tested directly; captured pytest streams never
# report as ttys, so the branch is unreachable through main()

def test_color_helpers(monkeypatch):
    tty = SimpleNamespace(isatty=lambda: True)
    pipe = SimpleNamespace(isatty=lambda: False)
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert _use_color(tty)
    assert not _use_color(pipe)
    assert _verdict_text("PASS", tty) == "\x1b[32mPASS\x1b[0m"
    assert _verdict_text("FAIL", tty) == "\x1b[31mFAIL\x1b[0m"
    monkeypatch.setenv("NO_COLOR", "1")
    assert not _use_color(tty)
    assert _verdict_text("PASS", tty) == "PASS"


# ---------------------------------------------------------------------------
# census

def test_census_builtin_complete_convention(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "5", "--r", "4",
                           "--connected", "--supertough", "--workers", "1")
    assert code == OK
    payload = json.loads(out)
    assert payload["examined"] == 1
    assert payload["complete_graphs"] == 1
    assert payload["counts"]["supertough"] == 0
    assert payload["survivors"] == []


def test_census_of_degree_zero_ends_at_once(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "12", "--r", "0",
                           "--workers", "1", "--format", "table")
    assert code == OK
    assert "examined: 0" in out.splitlines()


def test_census_builtin_with_artifacts(tmp_path, capsys):
    survivors = tmp_path / "survivors.g6"
    dotdir = tmp_path / "dots"
    code, out, _ = run_cli(capsys, "census", "--n", "8", "--r", "4",
                           "--connected", "--supertough",
                           "--survivors-out", str(survivors),
                           "--emit-dot", str(dotdir), "--workers", "1")
    assert code == OK
    payload = json.loads(out)
    assert payload["counts"]["supertough"] == 2
    lines = survivors.read_text().splitlines()
    assert lines == ["G}hPW{", "G~`HW{"]
    assert canonical_form(cycle_power(8, 2)) in lines
    dots = sorted(p.name for p in dotdir.iterdir())
    assert dots == ["survivor-001.dot", "survivor-002.dot"]
    for p in dotdir.iterdir():
        assert p.read_text().startswith("graph")


def test_census_stream_collects_errors(capsys, monkeypatch):
    text = serialize_graph6(cycle_power(8, 2)) + "\n!!!\n" \
        + serialize_graph6(cycle(5)) + "\n"
    feed_stdin(monkeypatch, text)
    code, out, _ = run_cli(capsys, "census", "--n", "8", "--r", "4",
                           "--stdin", "--connected", "--supertough",
                           "--workers", "1")
    assert code == OK
    payload = json.loads(out)
    assert payload["examined"] == 1
    assert payload["counts"]["supertough"] == 1
    assert [e["line"] for e in payload["errors"]] == [2, 3]
    assert "expected order 8" in payload["errors"][1]["message"]


def test_census_strict_promotes_errors(capsys, monkeypatch):
    feed_stdin(monkeypatch, "!!!\n")
    code, _, err = run_cli(capsys, "census", "--n", "8", "--r", "4",
                           "--stdin", "--strict", "--workers", "1")
    assert code == PARSE
    assert "rejected" in err


def test_census_envelope(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "13", "--r", "4",
                           "--workers", "1")
    assert code == ENVELOPE
    assert err.startswith("error: envelope:")


def test_stream_census_envelope_does_not_depend_on_the_data(capsys, monkeypatch):
    # J_6 has 17 vertices, past the canonical-form cap; with or without a
    # survivor the census must refuse before examining the stream
    jm6 = serialize_graph6(build_jm(6).graph) + "\n"
    for preds in ((), ("--supertough",)):
        feed_stdin(monkeypatch, jm6)
        code, out, err = run_cli(capsys, "census", "--stdin", "--n", "17", "--r", "4",
                                 *preds, "--workers", "1")
        assert (code, out) == (ENVELOPE, ""), preds
        assert err.startswith("error: envelope:")


def test_stream_census_envelope_is_checked_before_stdin_is_read(capsys, monkeypatch):
    # the spec refuses n = 13 before cmd_census reads the stream, so a
    # slow or endless stdin cannot hold the exit back
    class Unread:
        def read(self, *args):
            raise AssertionError("stdin read past the envelope")

    monkeypatch.setattr(sys, "stdin", Unread())
    code, out, err = run_cli(capsys, "census", "--stdin", "--n", "13", "--r", "4",
                             "--workers", "1")
    assert (code, out) == (ENVELOPE, "")
    assert err.startswith("error: envelope:")


def test_census_exclusive_claw_flags(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "8", "--r", "4",
                           "--claw-free", "--has-claw", "--workers", "1")
    assert code == USAGE
    assert "mutually exclusive" in err


def test_census_parity_rejected(capsys):
    assert run_cli(capsys, "census", "--n", "7", "--r", "3",
                   "--workers", "1")[0] == USAGE


def test_census_table_format(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "5", "--r", "4",
                           "--supertough", "--format", "table",
                           "--workers", "1")
    assert code == OK
    assert "examined: 1" in out
    assert "complete graphs: 1" in out
    assert "survivors: 0" in out


def test_census_table_lists_survivors_and_rejected_lines(capsys, monkeypatch):
    feed_stdin(monkeypatch, "I{dQPcdBg\nbad\nD~{\n")
    code, out, _ = run_cli(capsys, "census", "--n", "10", "--r", "4", "--stdin",
                           "--format", "table", "--workers", "1")
    assert code == OK
    assert out.splitlines()[-3:] == [
        "  I{dQPcdBg toughness=2/1 kappa=4 has_claw=True",
        "line 2: truncated: expected 100 data bytes, got 2",
        "line 3: expected order 10, got 5",
    ]


def test_census_table_complete_survivor(capsys, monkeypatch):
    feed_stdin(monkeypatch, serialize_graph6(complete(5)) + "\n")
    code, out, _ = run_cli(capsys, "census", "--n", "5", "--r", "4", "--stdin",
                           "--format", "table", "--workers", "1")
    assert code == OK
    lines = out.splitlines()
    assert "complete graphs: 1" in lines
    assert lines[-1] == "  D~{ toughness=infinite kappa=4 has_claw=False"


# ---------------------------------------------------------------------------
# corpus

def test_corpus_is_deterministic(capsys):
    first = run_cli(capsys, "corpus", "--seed", "7", "--count", "5")
    second = run_cli(capsys, "corpus", "--seed", "7", "--count", "5")
    assert first == second
    code, out, _ = first
    assert code == OK
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        g = parse_graph6(line)
        assert 4 <= g.n <= 9


def test_corpus_seeds_differ(capsys):
    a = run_cli(capsys, "corpus", "--seed", "1", "--count", "5")[1]
    b = run_cli(capsys, "corpus", "--seed", "2", "--count", "5")[1]
    assert a != b


def test_corpus_json_format(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--seed", "8", "--count", "3",
                           "--min-n", "5", "--max-n", "5", "--format", "json")
    assert code == OK
    payload = json.loads(out)
    assert payload["seed"] == 8
    assert payload["count"] == 3
    for line in payload["graphs"]:
        assert parse_graph6(line).n == 5


def test_corpus_bounds_checked(capsys):
    assert run_cli(capsys, "corpus", "--seed", "1", "--min-n", "1")[0] == USAGE
    assert run_cli(capsys, "corpus", "--seed", "1", "--min-n", "9",
                   "--max-n", "4")[0] == USAGE


@pytest.mark.parametrize("flags", [
    ("--p", "-1"),       # used to loop forever: no sample is ever connected
    ("--p", "0"),
    ("--p", "1.5"),      # used to emit complete graphs
    ("--count", "-3"),   # used to exit 0 with no output
    ("--count", "0", "--p", "-1"),
])
def test_corpus_rejects_bad_p_and_count(capsys, flags):
    code, out, err = run_cli(capsys, "corpus", "--seed", "1", "--count", "2", *flags)
    assert code == USAGE and out == ""
    assert "p <= 1" in err or "count >= 0" in err


def test_corpus_without_a_connected_sample_is_an_envelope_error(capsys):
    code, out, err = run_cli(capsys, "corpus", "--seed", "1", "--count", "1",
                             "--min-n", "30", "--max-n", "30", "--p", "0.01")
    assert (code, out) == (ENVELOPE, "")
    assert err == "error: envelope: no connected G(30, 0.01) sample in 10000 attempts\n"


def test_corpus_count_zero_is_empty(capsys):
    assert run_cli(capsys, "corpus", "--seed", "1", "--count", "0") == (OK, "", "")


def test_corpus_past_the_graph6_limit_exits_before_sampling(capsys, monkeypatch):
    # sampling G(n, p) costs n squared, so the order is checked first
    sampled = []
    sample = cli.random_connected_graph
    monkeypatch.setattr(cli, "random_connected_graph",
                        lambda n, rng, p: sampled.append(n) or sample(n, rng, p))
    code, out, err = run_cli(capsys, "corpus", "--seed", "1", "--count", "3",
                             "--min-n", "100000", "--max-n", "100000")
    assert (code, out, sampled) == (ENVELOPE, "", [])
    assert err == "error: envelope: graph6 single-byte order supports n <= 62, got 100000\n"
    code, out, _ = run_cli(capsys, "corpus", "--seed", "1", "--count", "1",
                           "--min-n", "62", "--max-n", "62")
    assert (code, parse_graph6(out).n, sampled) == (OK, 62, [62])
