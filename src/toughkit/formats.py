"""graph6, edge-list, DOT and JSON encoding.

graph6 here is the standard bit-exact format: header byte n+63 (n <= 62
only), then the upper triangle in column-major order, 6 bits per byte,
each offset by 63, zero padding.  Parsing is strict: bad header, short
body, trailing bytes and nonzero padding are all distinct errors.
"""

from __future__ import annotations

import json

from .graphs import EnvelopeError, Graph


class ParseError(ValueError):
    """Malformed textual graph input."""


class Graph6Error(ParseError):
    pass


class EdgeListError(ParseError):
    pass


# each graph6 data character as its 6 bits, most significant first
_BITS = str.maketrans({chr(63 + x): f"{x:06b}" for x in range(64)})


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line."""
    s = text
    if s.endswith("\n"):
        s = s[:-1]
    if s.endswith("\r"):
        s = s[:-1]
    if not s:
        raise Graph6Error("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise Graph6Error(f"byte {ch!r} outside the graph6 alphabet")
    n = ord(s[0]) - 63
    if n == 63:
        raise Graph6Error("multi-byte order prefix (n > 62) not supported")
    if n == 0:
        raise Graph6Error("order-0 graph not representable here")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise Graph6Error(f"truncated: expected {need} data bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"trailing garbage after {need} data bytes")
    # the data bits as one integer, the first bit lowest: column j (the
    # pairs (i, j) for i < j) is the next j bits, with bit i for the pair (i, j)
    stream = int(body.translate(_BITS)[::-1] or "0", 2)
    rows = [0] * n
    for j in range(1, n):
        col = stream & ((1 << j) - 1)
        stream >>= j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    if stream:
        raise Graph6Error("nonzero padding bits")
    return Graph(n, tuple(rows))


def serialize_graph6(g: Graph) -> str:
    """Encode as a canonical-padding graph6 string (no trailing newline)."""
    if g.n > 62:
        raise EnvelopeError(f"graph6 single-byte order supports n <= 62, got {g.n}")
    out = [chr(63 + g.n)]
    acc = 0
    nb = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | col >> i & 1
            nb += 1
            if nb == 6:
                out.append(chr(63 + acc))
                acc = 0
                nb = 0
    if nb:
        out.append(chr(63 + (acc << (6 - nb))))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Decode the plain text format: first line "n m", then m lines "u v"."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise EdgeListError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(f"non-integer header {lines[0]!r}") from None
    if n < 1:
        raise EdgeListError(f"order must be positive, got {n}")
    if len(lines) - 1 != m:
        raise EdgeListError(f"header promises {m} edges, found {len(lines) - 1} lines")
    rows = [0] * n
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer endpoint in {ln!r}") from None
        if not (0 <= u < v < n):
            raise EdgeListError(f"line {lineno}: endpoints must satisfy 0 <= u < v < n")
        if rows[u] >> v & 1:
            raise EdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def serialize_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, names: list[str] | None = None) -> str:
    """Render as an undirected DOT graph.

    ``names`` substitutes vertex names (e.g. role labels for the J family);
    default is the numeric id.  Every vertex gets a node line so isolated
    vertices survive, and edges come out sorted by endpoint indices.
    """
    if names is None:
        names = [str(v) for v in range(g.n)]
    if len(names) != g.n:
        raise ValueError(f"got {len(names)} names for {g.n} vertices")
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {names[v]};")
    for u, v in g.edges():
        lines.append(f"  {names[u]} -- {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """The one JSON text of every JSON output: sorted keys, indent 2, newline end.

    Every payload is a tree built fresh for the call, so the encoder's
    cycle check (per-container bookkeeping in the pure-Python encoder that
    ``indent`` selects) is skipped; the bytes are the same.
    """
    return json.dumps(payload, sort_keys=True, indent=2, check_circular=False) + "\n"
