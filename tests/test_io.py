import importlib.util
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from kotzigcdc.errors import GraphFormatError
from kotzigcdc.io import (
    _ascii,
    _decode_number,
    graph_from_json,
    graph_to_json,
    load_graphs,
    parse_graph6,
    parse_sparse6,
    save_graph_json,
)
from kotzigcdc.catalog import k4, petersen
from kotzigcdc.multigraph import Multigraph


def edge_set(g):
    return sorted(tuple(sorted((a, b))) for _, a, b in g.edges())


def test_graph6_k4():
    g = parse_graph6(nx.to_graph6_bytes(nx.complete_graph(4), header=False))
    assert edge_set(g) == edge_set(k4())


def test_graph6_petersen():
    g = parse_graph6(nx.to_graph6_bytes(nx.petersen_graph(), header=False))
    ours = petersen()
    assert g.num_vertices() == 10 and g.num_edges() == 15
    assert nx.is_isomorphic(
        nx.Graph(tuple(e[1:]) for e in g.edges()),
        nx.Graph(tuple(e[1:]) for e in ours.edges()),
    )


def test_graph6_random_round_trips():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 20)
        h = nx.gnp_random_graph(n, 0.4, seed=rng.randint(0, 10**6))
        mine = parse_graph6(nx.to_graph6_bytes(h, header=False))
        assert edge_set(mine) == sorted(tuple(sorted(e)) for e in h.edges())


def test_graph6_with_header():
    line = b">>graph6<<" + nx.to_graph6_bytes(nx.cycle_graph(5), header=False).strip()
    assert parse_graph6(line).num_edges() == 5


def test_sparse6_round_trips():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 15)
        h = nx.gnp_random_graph(n, 0.3, seed=rng.randint(0, 10**6))
        mine = parse_sparse6(nx.to_sparse6_bytes(h, header=False))
        assert edge_set(mine) == sorted(tuple(sorted(e)) for e in h.edges())


def test_sparse6_multigraph():
    h = nx.MultiGraph()
    h.add_edges_from([(0, 1), (0, 1), (1, 2), (2, 2)])
    mine = parse_sparse6(nx.to_sparse6_bytes(h, header=False))
    assert edge_set(mine) == [(0, 1), (0, 1), (1, 2), (2, 2)]


def test_graph6_rejects_data_past_the_matrix():
    assert parse_graph6("C~").num_edges() == 6  # K4
    with pytest.raises(GraphFormatError, match="4 bytes past the adjacency matrix"):
        parse_graph6("C~~~~~")
    with pytest.raises(GraphFormatError, match="1 bytes past"):
        parse_graph6("@?")  # one vertex has no adjacency data


def test_graph6_rejects_nonzero_padding():
    assert parse_graph6("Bw").num_edges() == 3  # the triangle: 111 then 000
    for line in ("Bx", "B{", "B~"):
        with pytest.raises(GraphFormatError, match="padding bits are not 0"):
            parse_graph6(line)


def test_graph6_lines_the_benchmark_writes_parse(monkeypatch):
    """perfbench/inputs.graph6_line pads with zeros and stops at the matrix."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_inputs", bench / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(6)
    for n in [*range(0, 14), *inputs.CUBIC_ORDERS]:
        pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.3]
        line = inputs.graph6_line(n, pairs)
        assert sorted(g[1:] for g in parse_graph6(line).edges()) == sorted(pairs)
    assert parse_graph6(inputs.NOT_COLOURABLE_GRAPH6).num_edges() == 30


def test_graph6_short_data_still_rejected():
    with pytest.raises(GraphFormatError, match="too short"):
        parse_graph6("D~")


def test_graph6_rejects_sparse6():
    with pytest.raises(GraphFormatError):
        parse_graph6(":Fa@x^")


# -- the per-bit decoders, kept as the referees -----------------------------------


def referee_bit_stream(data: bytes, pos: int):
    for byte in data[pos:]:
        val = byte - 63
        if val < 0 or val > 63:
            raise GraphFormatError("invalid data byte")
        for shift in range(5, -1, -1):
            yield (val >> shift) & 1


def referee_parse_graph6(line):
    """parse_graph6 as it was: every adjacency bit pulled from a generator
    that checks each byte as it reaches it."""
    data = _ascii(line).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
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
    bits = referee_bit_stream(data, pos)
    edges = []
    try:
        for j in range(1, n):
            for i in range(j):
                if next(bits):
                    edges.append((len(edges), i, j))
    except StopIteration:
        raise GraphFormatError("graph6 data too short") from None
    return Multigraph(range(n), edges)


def referee_parse_sparse6(line):
    """parse_sparse6 as it was: the bits listed one by one, each k-bit
    field summed bit by bit."""
    data = _ascii(line).strip()
    if data.startswith(b">>sparse6<<"):
        data = data[len(b">>sparse6<<"):]
    if not data.startswith(b":"):
        raise GraphFormatError("sparse6 line must start with ':'")
    n, pos = _decode_number(data, 1)
    k = max(1, (n - 1).bit_length())
    bits = list(referee_bit_stream(data, pos))
    edges = []
    v = i = 0
    while i + k < len(bits):
        b = bits[i]
        x = 0
        for bit in bits[i + 1 : i + 1 + k]:
            x = (x << 1) | bit
        i += 1 + k
        if b:
            v += 1
        if v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((len(edges), x, v))
    return Multigraph(range(n), edges)


def outcome(parse, line):
    """The vertices and edge list a parser returns, or its error type and text."""
    try:
        g = parse(line)
    except Exception as exc:  # the referee may fail in any way; so must the parser
        return type(exc), str(exc)
    return g.vertices, g.edges()


def seeded_lines(rng: random.Random, count: int):
    """graph6 and sparse6 lines of seeded random multigraphs, the graph6
    line of each one's simple part, and byte-fuzzed copies of both."""
    for _ in range(count):
        n = rng.choice([0, 1, 2, rng.randint(3, 70)])
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        if n:
            h.add_edges_from((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n)))
        simple = nx.Graph(h)
        simple.remove_edges_from(nx.selfloop_edges(simple))
        for line in (nx.to_graph6_bytes(simple, header=False), nx.to_sparse6_bytes(h, header=False)):
            yield line
            fuzzed = bytearray(line.strip())
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(fuzzed) + 1)
                action = rng.randrange(4)
                if action == 0 and at < len(fuzzed):
                    fuzzed[at] = rng.randrange(256)
                elif action == 1:
                    fuzzed.insert(at, rng.choice([rng.randrange(256), rng.randrange(63, 127)]))
                elif action == 2 and at < len(fuzzed):
                    del fuzzed[at]
                else:
                    del fuzzed[at:]
            yield bytes(fuzzed)


def test_decoders_match_the_per_bit_referees():
    """The same vertices and edge lists, or the same error type and text,
    on seeded valid graph6 and sparse6 lines and on byte-fuzzed ones."""
    errors = set()
    for line in seeded_lines(random.Random(23), 600):
        for parse, referee in ((parse_graph6, referee_parse_graph6), (parse_sparse6, referee_parse_sparse6)):
            want = outcome(referee, line)
            assert outcome(parse, line) == want
            if isinstance(want[0], type):
                errors.add(want[1])
    assert len(errors) >= 8


def test_sparse6_round_trips_multigraphs_with_loops_and_parallel_edges():
    """Seeded multigraphs come back from networkx's sparse6 writer with
    every loop and parallel edge, and their simple parts from its graph6
    writer."""
    rng = random.Random(24)
    loops = parallel = 0
    for _ in range(300):
        n = rng.randint(1, 70)
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n)))
        pairs = sorted(tuple(sorted(e)) for e in h.edges())
        mine = parse_sparse6(nx.to_sparse6_bytes(h, header=False))
        assert mine.num_vertices() == n and edge_set(mine) == pairs
        simple = sorted({(a, b) for a, b in pairs if a != b})
        h_simple = nx.Graph()
        h_simple.add_nodes_from(range(n))
        h_simple.add_edges_from(simple)
        assert edge_set(parse_graph6(nx.to_graph6_bytes(h_simple, header=False))) == simple
        loops += any(a == b for a, b in pairs)
        parallel += len(set(pairs)) < len(pairs)
    assert loops > 150 and parallel > 100


def test_json_round_trip(tmp_path):
    g = petersen()
    save_graph_json(g, tmp_path / "p.json")
    loaded = load_graphs(tmp_path / "p.json")
    assert len(loaded) == 1
    assert edge_set(loaded[0]) == edge_set(g)
    assert loaded[0].edge_ids == g.edge_ids


def test_json_malformed():
    with pytest.raises(GraphFormatError):
        graph_from_json({"vertices": [0]})


def test_load_graph6_lines(tmp_path):
    lines = b"".join(
        nx.to_graph6_bytes(nx.cycle_graph(k), header=False) for k in (3, 4, 5)
    )
    path = tmp_path / "many.g6"
    path.write_bytes(lines)
    graphs = load_graphs(path)
    assert [g.num_edges() for g in graphs] == [3, 4, 5]


def test_load_json_list(tmp_path):
    payload = [graph_to_json(k4()), graph_to_json(petersen())]
    path = tmp_path / "list.json"
    path.write_text(json.dumps(payload))
    graphs = load_graphs(path)
    assert [g.num_vertices() for g in graphs] == [4, 10]
