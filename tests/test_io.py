import importlib.util
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from kotzigcdc.errors import GraphFormatError
from kotzigcdc.io import (
    graph_from_json,
    graph_to_json,
    load_graphs,
    parse_graph6,
    parse_sparse6,
    save_graph_json,
)
from kotzigcdc.catalog import k4, petersen


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
