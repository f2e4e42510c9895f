"""Graph file formats: graph6/sparse6 readers and the JSON multigraph format.

graph6 covers simple graphs only; sparse6 and the JSON format carry
multigraphs (the JSON format is the package's native representation and the
only writer).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import GraphFormatError
from .multigraph import Multigraph

_G6_HEADER = ">>graph6<<"
_S6_HEADER = ">>sparse6<<"
MAX_VERTICES = 1_000_000  # the largest order a graph6 or sparse6 size field may declare


def _decode_number(data: bytes, pos: int) -> tuple[int, int]:
    """Decode the N(n) size field, returning (n, next position)."""
    if pos >= len(data):
        raise GraphFormatError("truncated size field")
    c = data[pos] - 63
    if c < 0 or c > 63:
        raise GraphFormatError("invalid byte in size field")
    if c < 63:
        return c, pos + 1
    if pos + 3 < len(data) and data[pos + 1] - 63 == 63:
        chunk, end = data[pos + 2 : pos + 8], pos + 8
        if len(chunk) < 6:
            raise GraphFormatError("truncated long size field")
    else:
        chunk, end = data[pos + 1 : pos + 4], pos + 4
        if len(chunk) < 3:
            raise GraphFormatError("truncated size field")
    n = 0
    for byte in chunk:
        n = (n << 6) | (byte - 63)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"size field declares {n} vertices, more than {MAX_VERTICES}")
    return n, end


def _ascii(line: str | bytes) -> bytes:
    try:
        return line.encode("ascii") if isinstance(line, str) else line
    except UnicodeEncodeError:
        raise GraphFormatError("graph6 and sparse6 lines are ASCII") from None


_DATA_BYTES = bytes(range(63, 127))
_SIX_BITS = {63 + value: format(value, "06b") for value in range(64)}


def _bits(data: bytes, pos: int) -> str:
    """The data bytes from pos, checked once, as one string of "0" and "1",
    six to a byte, most significant first."""
    body = data[pos:]
    if body.translate(None, _DATA_BYTES):
        raise GraphFormatError("invalid data byte")
    return body.decode("ascii").translate(_SIX_BITS)


def parse_graph6(line: str | bytes) -> Multigraph:
    """Parse one graph6 line into a simple graph with integer vertices.

    The data must end with the byte that holds the last bit of the
    adjacency matrix, and the padding bits after that bit must be 0.  The
    matrix is read column by column: bit t is the pair (i, j) with
    t = j(j - 1)/2 + i, so the set bits are found with str.find and the
    column j only moves forward.
    """
    data = _ascii(line)
    data = data.strip()
    if data.startswith(_G6_HEADER.encode()):
        data = data[len(_G6_HEADER):]
    if data.startswith(b":"):
        raise GraphFormatError("input is sparse6, not graph6")
    n, pos = _decode_number(data, 0)
    matrix_bits = n * (n - 1) // 2
    extra = len(data) - pos - (matrix_bits + 5) // 6
    if extra > 0:
        raise GraphFormatError(f"graph6 data runs {extra} bytes past the adjacency matrix")
    padding = -matrix_bits % 6
    last = data[-1] - 63
    if extra == 0 and padding and 0 <= last <= 63 and last & ((1 << padding) - 1):
        raise GraphFormatError("graph6 padding bits are not 0")
    bits = _bits(data, pos)
    if extra < 0:
        raise GraphFormatError("graph6 data too short")
    edges = []
    j, column = 1, 0  # column j holds bits j(j - 1)/2 to j(j + 1)/2 - 1
    t = bits.find("1", 0, matrix_bits)
    while t >= 0:
        while t >= column + j:
            column += j
            j += 1
        edges.append((len(edges), t - column, j))
        t = bits.find("1", t + 1, matrix_bits)
    return Multigraph(range(n), edges)


def parse_sparse6(line: str | bytes) -> Multigraph:
    """Parse one sparse6 line; loops and parallel edges are preserved."""
    data = _ascii(line)
    data = data.strip()
    if data.startswith(_S6_HEADER.encode()):
        data = data[len(_S6_HEADER):]
    if not data.startswith(b":"):
        raise GraphFormatError("sparse6 line must start with ':'")
    n, pos = _decode_number(data, 1)
    k = max(1, (n - 1).bit_length())
    bits = _bits(data, pos)
    edges = []
    v = 0
    i = 0
    while i + k < len(bits):
        if bits[i] == "1":
            v += 1
        x = int(bits[i + 1 : i + 1 + k], 2)
        i += 1 + k
        if v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((len(edges), x, v))
    return Multigraph(range(n), edges)


def graph_to_json(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[eid, a, b] for eid, a, b in g.edges()],
    }


def graph_from_json(obj: dict) -> Multigraph:
    """{"vertices": [...], "edges": [[id, a, b], ...]} with scalar ids."""
    try:
        vertices, edges = obj["vertices"], obj["edges"]
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise TypeError("vertices and edges must be lists")
        if not all(isinstance(e, (list, tuple)) and len(e) == 3 for e in edges):
            raise TypeError("every edge must be [id, a, b]")
        return Multigraph(vertices, edges)
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"malformed graph JSON: {exc}") from exc


def load_graphs(path: str | Path, fmt: str | None = None) -> list[Multigraph]:
    """Load one or more graphs from a file.

    fmt is "json", "graph6" or None to sniff from the content.  graph6 and
    sparse6 files may hold one graph per line.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if fmt == "json" or (fmt is None and stripped.startswith(("{", "["))):
        obj = json.loads(text)
        if isinstance(obj, list):
            return [graph_from_json(item) for item in obj]
        return [graph_from_json(obj)]
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(_S6_HEADER):
            line = line[len(_S6_HEADER):]
        if line.startswith(_G6_HEADER):
            line = line[len(_G6_HEADER):]
        if not line:
            continue
        if line.startswith(":"):
            graphs.append(parse_sparse6(line))
        else:
            graphs.append(parse_graph6(line))
    if not graphs:
        raise GraphFormatError(f"no graphs found in {path}")
    return graphs


def save_graph_json(g: Multigraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json(g), indent=2) + "\n")
