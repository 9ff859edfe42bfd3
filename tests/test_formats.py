import pytest

from toughkit import (
    EdgeListError,
    EnvelopeError,
    Graph6Error,
    from_edges,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
    to_dot,
)
from toughkit.generators import complete, cycle, petersen, star

from oracles import graph6_rows_naive


def random_graph(rng, n, p):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


# hand-derived vectors: 6-bit upper-triangle encoding, offset 63
def test_graph6_hand_vectors():
    assert serialize_graph6(complete(3)) == "Bw"
    assert serialize_graph6(from_edges(2, [(0, 1)])) == "A_"
    assert serialize_graph6(from_edges(2, [])) == "A?"
    assert serialize_graph6(complete(1)) == "@"
    assert parse_graph6("Bw").adj == complete(3).adj
    assert parse_graph6("A_").edges() == [(0, 1)]


def test_graph6_roundtrip_corpus(rng):
    # every order graph6 holds here, empty to complete: the parse gives the
    # graph back and agrees with the bit-by-bit reference decoder
    graphs = [random_graph(rng, n, p) for n in range(1, 63)
              for p in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    for g in graphs + [petersen(), cycle(3), star(5), complete(10)]:
        text = serialize_graph6(g)
        assert parse_graph6(text).adj == g.adj == graph6_rows_naive(text), text


def _graph6_outcome(parse, text, error):
    """("rows", adjacency rows) or ("error", message) of one parse."""
    try:
        return "rows", parse(text)
    except error as err:
        return "error", str(err)


def test_graph6_errors_and_rows_match_the_reference_parser(rng):
    # hand cases for each error, then seeded near-valid lines: a header
    # byte around the valid range, a body of about the right length and
    # now and then a byte outside the alphabet
    texts = ["", "\n", "\r\n", "B\x19", "Bw\x7f", "B\xe9", "\x19Bw", "~??", "?", "?\n",
             "B", "Bww", "Bx", "Bw\n", "Bw\r\n", "Bw\r", "Bw\n\n", "@", "@?", "A", "A_", "A`"]
    for _ in range(3000):
        n = rng.randrange(-2, 66)
        need = max(0, (n * (n - 1) // 2 + 5) // 6)
        body = [chr(rng.randrange(63, 127)) for _ in range(max(0, need + rng.choice([-1, 0, 0, 0, 1])))]
        if body and rng.random() < 0.1:
            body[rng.randrange(len(body))] = rng.choice(["\x3e", "\x7f", " ", "\n", "\xff"])
        pad = -(n * (n - 1) // 2) % 6  # padding bits in the last data byte
        if body and "?" <= body[-1] <= "~" and rng.random() < 0.5:
            body[-1] = chr(63 + ((ord(body[-1]) - 63) >> pad << pad))
        texts.append(chr(63 + n) + "".join(body) + rng.choice(["", "", "\n", "\r\n"]))
    kinds = set()
    for text in texts:
        want = _graph6_outcome(graph6_rows_naive, text, ValueError)
        got = _graph6_outcome(lambda t: parse_graph6(t).adj, text, Graph6Error)
        assert got == want, repr(text)
        kinds.add(want[0] if want[0] == "rows" else want[1].split()[0])
    assert kinds == {"rows", "empty", "byte", "multi-byte", "order-0", "truncated:", "trailing",
                     "nonzero"}


def test_graph6_accepts_trailing_newline():
    assert parse_graph6("Bw\n").n == 3
    assert parse_graph6("Bw\r\n").n == 3


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("B\x19", "alphabet"),
    ("~??", "multi-byte"),
    ("?", "order-0"),
    ("B", "truncated"),
    ("Bww", "trailing"),
    ("Bx", "padding"),
])
def test_graph6_parse_errors(text, fragment):
    with pytest.raises(Graph6Error) as err:
        parse_graph6(text)
    assert fragment in str(err.value)


def test_graph6_serialize_envelope():
    with pytest.raises(EnvelopeError):
        serialize_graph6(from_edges(63, []))


def test_edge_list_roundtrip(rng):
    for _ in range(40):
        n = rng.randrange(1, 12)
        g = random_graph(rng, n, 0.5)
        assert parse_edge_list(serialize_edge_list(g)).adj == g.adj


def test_edge_list_format():
    assert serialize_edge_list(cycle(3)) == "3 3\n0 1\n0 2\n1 2\n"


@pytest.mark.parametrize("text", [
    "",
    "3\n",
    "3 2\n0 1\n",            # fewer edge lines than declared
    "3 1\n0 1\n1 2\n",       # more edge lines than declared
    "3 1\n1 0\n",            # endpoints out of order
    "3 1\n0 3\n",            # endpoint out of range
    "3 2\n0 1\n0 1\n",       # duplicate edge
    "3 1\n0 1 2\n",          # malformed edge line
])
def test_edge_list_errors(text):
    with pytest.raises(EdgeListError):
        parse_edge_list(text)


def test_edge_list_error_reports_line_number():
    with pytest.raises(EdgeListError) as err:
        parse_edge_list("3 2\n0 1\n0 9\n")
    assert "line 3" in str(err.value)


def test_to_dot_shape():
    out = to_dot(cycle(3))
    assert out.startswith("graph {")
    assert out.endswith("}\n")
    assert "  0 -- 1;" in out and "  1 -- 2;" in out
    named = to_dot(cycle(3), names=["x", "y", "z"])
    assert "  x -- y;" in named
    with pytest.raises(ValueError):
        to_dot(cycle(3), names=["x"])
