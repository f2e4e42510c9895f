"""The benchmark's checkers accept right outputs and reject corrupted ones."""

import copy
import itertools
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
from kotzigcdc.amiable import SYMMETRIC, STANDARD, find_parity_coloring, identity_f  # noqa: E402
from kotzigcdc.catalog import petersen  # noqa: E402
from kotzigcdc.cli import run_pipeline  # noqa: E402
from kotzigcdc.corpus import balloon_flower, cubic_corpus  # noqa: E402
from kotzigcdc.rowgraph import RowGraph, brute_force_amiable, extend_to_amiable  # noqa: E402

K4 = [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3)]
# the four triangles of K4 cover every edge twice
K4_COVER = {"a": [[0, 3, 1]], "b": [[0, 4, 2]], "c": [[1, 5, 2]], "d": [[3, 5, 4]]}


def plain(g):
    return list(g.vertices), g.edges()


def test_cover_accepts_a_double_cover():
    assert checks.cover_violations(range(4), K4, K4_COVER) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda c: c.pop("d"),  # three edges covered once
        lambda c: c["a"][0].append(3),  # repeated edge
        lambda c: c["a"][0].pop(),  # a path, not a cycle
        lambda c: c["a"][0].append(99),  # unknown edge
        lambda c: c["a"].append([0, 4, 2]),  # two cycles of one class share edges
        lambda c: c.update({f"x{i}": [] for i in range(3)}),  # seven classes
    ],
)
def test_cover_rejects_corruptions(corrupt):
    cover = copy.deepcopy(K4_COVER)
    corrupt(cover)
    assert checks.cover_violations(range(4), K4, cover)


def test_cover_rejects_a_disconnected_cycle():
    # two digons: every vertex has degree 2 but the edge set is not one cycle
    edges = [(0, 0, 1), (1, 0, 1), (2, 2, 3), (3, 2, 3)]
    cover = {"a": [[0, 1, 2, 3]], "b": [[0, 1], [2, 3]]}
    assert any("connected" in v for v in checks.cover_violations(range(4), edges, cover))


def test_cover_rejects_a_corrupted_program_certificate():
    g = petersen()
    report = run_pipeline(g, strategy="exhaustive")
    classes = report.certificate["classes"]
    assert checks.cover_violations(*plain(g), classes) == []
    label = sorted(classes)[0]
    broken = copy.deepcopy(classes)
    broken[label][0] = broken[label][0][:-1]
    assert checks.cover_violations(*plain(g), broken)


def test_bridges_match_networkx_on_simple_graphs():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 12)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 2 * n))}
        edges = [(k, a, b) for k, (a, b) in enumerate(sorted(pairs))]
        h = nx.Graph(list(pairs))
        h.add_nodes_from(range(n))
        want = {frozenset(e) for e in nx.bridges(h)}
        got = {frozenset((a, b)) for k, a, b in edges if k in checks.bridges(range(n), edges)}
        assert got == want


def test_bridges_tell_parallel_edges_apart():
    assert checks.bridges([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)]) == set()
    assert checks.bridges(*plain(balloon_flower())) == {4}


def test_graph_outcome_rules():
    bridged = plain(balloon_flower())
    assert checks.graph_outcome_violations(*bridged, "no_frame", None) == ([], [])
    failures, wrong = checks.graph_outcome_violations(*bridged, "no_witness", None)
    assert failures and not wrong
    failures, wrong = checks.graph_outcome_violations(*bridged, "verified", {})
    assert wrong
    failures, wrong = checks.graph_outcome_violations(range(4), K4, "no_frame", None)
    assert failures
    assert checks.graph_outcome_violations(range(4), K4, "verified", K4_COVER) == ([], [])
    bad = {k: v for k, v in K4_COVER.items() if k != "a"}
    assert checks.graph_outcome_violations(range(4), K4, "verified", bad)[1]


def test_corpus_accepts_the_generated_corpus():
    assert checks.corpus_violations([plain(g) for g in cubic_corpus(6)], 6) == []


def test_corpus_rejects_corruptions():
    graphs = [plain(g) for g in cubic_corpus(6)]
    # an isomorphic copy under relabelling
    vertices, edges = graphs[-1]
    relabel = {v: len(vertices) - 1 - v for v in vertices}
    twin = (vertices, [(e, relabel[a], relabel[b]) for e, a, b in edges])
    assert any("isomorphic" in v for v in checks.corpus_violations(graphs + [twin], 6))
    assert checks.corpus_violations(graphs[:-1], 6)
    two_thetas = ([0, 1, 2, 3], [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 2, 3), (4, 2, 3), (5, 2, 3)])
    assert checks.corpus_violations(graphs[:-1] + [two_thetas], 6)
    square = ([0, 1, 2, 3], [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
    assert checks.corpus_violations(graphs + [square], 6)


def row_instances(seed, count, sizes=(2, 3)):
    rng = random.Random(seed)
    saved = dict(inputs.ROW_EDGES)
    inputs.ROW_EDGES.update({2: 4, 3: 6})
    try:
        return [(s, inputs.random_row_edges(s, rng)) for _ in range(count) for s in sizes]
    finally:
        inputs.ROW_EDGES.clear()
        inputs.ROW_EDGES.update(saved)


def all_edge_colorings_work(s, edges, f):
    """Brute force over every edge coloring: a reference for the GF(2) test."""
    for g in itertools.product((1, 2, 3), repeat=len(edges)):
        if not checks.amiable_violations(s, edges, f, dict(zip((e[0] for e in edges), g))):
            return True
    return False


def test_gf2_extension_matches_brute_force():
    rng = random.Random(5)
    perms = list(itertools.permutations((1, 2, 3)))
    for s, edges in row_instances(5, 20):
        f = {(i, j): p[i - 1] for j, p in zip(range(1, s + 1), rng.choices(perms, k=s)) for i in (1, 2, 3)}
        assert checks.extension_exists(s, edges, f) == all_edge_colorings_work(s, edges, f)


def test_amiable_exists_matches_the_program_oracle():
    for s, edges in row_instances(6, 15):
        assert checks.amiable_exists(s, edges) == (brute_force_amiable(RowGraph(s, edges)) is not None)


def test_amiable_check_rejects_corruptions():
    s, edges = next((s, e) for s, e in row_instances(7, 10, sizes=(3,)) if e)
    found = brute_force_amiable(RowGraph(s, edges))
    assert checks.oracle_violations(s, edges, (found.f, found.g)) == []
    eid, a, b = edges[0]
    g = dict(found.g)
    g[eid] = found.f[a]  # edge colored like its end
    assert checks.amiable_violations(s, edges, found.f, g)
    g = dict(found.g)
    g[eid] = ({1, 2, 3} - {found.f[a], found.f[b], found.g[eid]} or {found.g[eid]}).pop()
    if g[eid] != found.g[eid]:  # a changed color breaks the parity at the edge's columns
        assert checks.amiable_violations(s, edges, found.f, g)
    f = dict(found.f)
    f[(1, 1)], f[(2, 1)] = f[(2, 1)], f[(2, 1)]  # column 1 repeats a color
    assert checks.amiable_violations(s, edges, f, found.g)
    assert checks.oracle_violations(s, edges, None)  # "none" where one exists


def test_three_way_check():
    for s, edges in row_instances(8, 10):
        r = RowGraph(s, edges)
        ext = extend_to_amiable(r, identity_f(r))
        std = find_parity_coloring(r, STANDARD)
        sym = find_parity_coloring(r, SYMMETRIC)
        assert checks.three_way_violations(s, edges, ext, std, sym) == ([], [])
        if ext is None:
            failures, _ = checks.three_way_violations(s, edges, None, object(), sym)
            assert failures
            continue
        failures, _ = checks.three_way_violations(s, edges, ext, None, sym)
        assert failures
        _, wrong = checks.three_way_violations(s, edges, None, None, None)
        assert wrong  # the GF(2) system has a solution
        if edges:
            broken = dict(ext)
            broken[edges[0][0]] = checks.identity_f(s)[edges[0][1]]
            assert checks.three_way_violations(s, edges, broken, std, sym)[1]


def test_row_space_counts():
    # s = 1 has only the empty graph; s = 2 has 9 edge kinds between its two
    # columns and needs an even number of edges: 1 + C(10, 2) + C(12, 4)
    raw, reps = checks.row_space(2, 4)
    assert raw == 1 + 1 + 45 + 495
    assert checks.scan_violations(len(reps), 0, raw, reps) == []
    assert checks.scan_violations(raw, 0, raw, reps) == []
    assert checks.scan_violations(len(reps) - 1, 0, raw, reps)
    assert checks.scan_violations(len(reps), 1, raw, reps)


def test_graph6_round_trip_through_the_program_reader():
    from kotzigcdc.io import parse_graph6

    rng = random.Random(9)
    for n in (20, 44):
        pairs = inputs.random_cubic_pairs(n, rng)
        g = parse_graph6(inputs.graph6_line(n, pairs))
        assert sorted(g.edges()) == inputs.graph6_edges(n, pairs)


def test_planted_graphs_are_cubic_with_a_valid_frame():
    from kotzigcdc.frame import validate_frame
    from kotzigcdc.io import graph_from_json

    edges, frame = inputs.planted_graph(60, random.Random(4))
    g = graph_from_json({"vertices": list(range(60)), "edges": [list(e) for e in edges]})
    assert g.is_cubic()
    assert sum(c.kind == "K" for c in validate_frame(g, frame).components) == 1
    assert not checks.bridges(range(60), edges)


def colourable_by_matchings(vertices, edges):
    """A cubic graph is 3-edge-colourable when some perfect matching leaves
    a 2-factor of even cycles."""
    half = len(vertices) // 2
    for matching in itertools.combinations(edges, half):
        if len({v for _, a, b in matching for v in (a, b)}) < len(vertices):
            continue
        rest = nx.MultiGraph()
        rest.add_edges_from((a, b) for e in edges if e not in matching for _, a, b in [e])
        if all(rest.subgraph(c).number_of_edges() % 2 == 0 for c in nx.connected_components(rest)):
            return True
    return False


def test_three_edge_colourable_matches_perfect_matchings():
    for g in cubic_corpus(8):
        vertices, edges = plain(g)
        assert checks.three_edge_colourable(vertices, edges) == colourable_by_matchings(vertices, edges)
    assert not checks.three_edge_colourable(*plain(petersen()))
    n, pairs = inputs.graph6_pairs(inputs.NOT_COLOURABLE_GRAPH6)
    edges = inputs.graph6_edges(n, pairs)
    assert not checks.bridges(range(n), edges)
    assert not checks.three_edge_colourable(range(n), edges)


def test_random_cubic_draws_are_simple_connected_and_coverable():
    rng = random.Random(5)
    for n in inputs.CUBIC_ORDERS:
        pairs = inputs.random_cubic_pairs(n, rng)
        edges = inputs.graph6_edges(n, pairs)
        assert len(set(pairs)) == 3 * n // 2 and all(a < b for a, b in pairs)
        assert checks.is_connected(range(n), edges)
        assert checks.bridges(range(n), edges) or checks.three_edge_colourable(range(n), edges)


def test_traced_pipeline_is_run_pipeline_with_spans():
    from kotzigcdc.io import graph_from_json
    from tracing import Tracer, pipeline_spans

    edges, frame = inputs.planted_graph(60, random.Random(4))
    g = graph_from_json({"vertices": list(range(60)), "edges": [list(e) for e in edges]})
    plain_report = run_pipeline(g, strategy="user_supplied", frame_edges=frame)
    tracer = Tracer()
    with pipeline_spans(tracer):
        traced_report = run_pipeline(g, strategy="user_supplied", frame_edges=frame)
    assert traced_report.outcome == plain_report.outcome == "verified"
    assert traced_report.certificate == plain_report.certificate
    names = {s["name"] for s in tracer.spans}
    assert {"frame.search", "frame.coloring", "amiable.normalize", "rowgraph.build",
            "amiable.construct", "cdc.assemble", "cdc.verify"} <= names
    assert tracer.counts["frame.frames_yielded"] == 1
    classes = traced_report.certificate["classes"]
    assert tracer.counts["cdc.cycles"] == sum(len(cycles) for cycles in classes.values())



def test_pace_factor_is_the_reference_over_the_median_timing():
    from pace import REFERENCE_S, Pace

    clock = Pace()
    clock.samples = [0.002, 0.008, 0.003, 0.002, 0.1]
    assert clock.factor() == REFERENCE_S / 0.003


def test_pace_samples_the_calibration_task():
    from pace import BURST, Pace

    clock = Pace()
    clock.sample()
    clock.sample()  # too soon after the first burst
    assert len(clock.samples) == BURST
    assert all(seconds > 0 for seconds in clock.samples)
