import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from kotzigcdc import cdc
from kotzigcdc.amiable import amiable_coloring_for_frame
from kotzigcdc.catalog import cube_graph, cycle_graph, k4, path_graph, petersen, prism, theta_graph
from kotzigcdc.cdc import (
    CdcCertificate,
    CdcReport,
    construct_6cdc,
    partition_chords,
    two_cycle_cover_even,
    verify_cdc,
)
from kotzigcdc.cli import run_pipeline
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.errors import HypothesisError
from kotzigcdc.frame import find_well_connected_frame_coloring, search_frames, validate_frame
from kotzigcdc.multigraph import (
    Multigraph,
    components,
    is_connected,
    sorted_edge_ids,
    sorted_vertices,
)
from tests.test_frame import monochromatic_coloring


def run_full(g, strategy="two_factor", frame_edges=None):
    for frame in search_frames(g, strategy, frame_edges=frame_edges):
        found = find_well_connected_frame_coloring(frame)
        if found is None:
            continue
        coloring, witness = found
        f2, col2, amiable, trace = amiable_coloring_for_frame(g, frame, coloring, witness)
        return construct_6cdc(g, f2, col2, amiable, trace)
    raise AssertionError("no frame/witness found")


# -- chord partition ---------------------------------------------------------------


def test_partition_chords_same_color_endpoint():
    g = theta_graph()
    f = validate_frame(g, [1, 2])
    coloring = monochromatic_coloring(f, {1: 1})
    x1, x2, x3 = partition_chords(f, coloring)
    assert (x1, x2, x3) == (frozenset(), frozenset([0]), frozenset())


def test_partition_chords_forced():
    # prism with hamiltonian frame: chords join differently-colored blobs
    g = prism()
    f = validate_frame(g, [0, 7, 3, 5, 8, 2])
    coloring = monochromatic_coloring(f, {1: 2})
    x1, x2, x3 = partition_chords(f, coloring)
    assert x2 == frozenset()
    assert x1 | x3 == f.chords and x3 == frozenset()  # smallest feasible is 1


def test_partition_chords_empty():
    g = k4()
    f = validate_frame(g, g.edge_ids)
    coloring, _ = find_well_connected_frame_coloring(f)
    assert partition_chords(f, coloring) == (frozenset(),) * 3


# -- 2-cycle covers of attached cycle systems -----------------------------------------


def test_two_cycle_cover_square_with_chord():
    g = Multigraph(range(4), [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0), (4, 0, 2)])
    a, b = two_cycle_cover_even(g, {0, 1, 2, 3}, {4})
    # two triangles, each through the chord
    assert sorted(len(c) for c in a) == [3]
    assert sorted(len(c) for c in b) == [3]
    assert set(a[0]) & set(b[0]) == {4}
    report_edges = sorted(list(a[0]) + list(b[0]))
    assert report_edges.count(4) == 2


def test_two_cycle_cover_lonely_cycle():
    g = cycle_graph(5)
    a, b = two_cycle_cover_even(g, set(g.edge_ids), set())
    assert len(a) == 1 and len(b) == 0
    assert sorted(a[0]) == sorted(g.edge_ids)


def test_two_cycle_cover_odd_attachment_rejected():
    g = Multigraph(range(5), [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0), (4, 0, 4), (5, 4, 4)])
    with pytest.raises(HypothesisError):
        two_cycle_cover_even(g, {0, 1, 2, 3}, {4})


def test_two_cycle_cover_double_attachment_rejected():
    g = Multigraph(range(4), [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0), (4, 0, 2), (5, 0, 2)])
    with pytest.raises(HypothesisError, match="two attachment"):
        two_cycle_cover_even(g, {0, 1, 2, 3}, {4, 5})


def test_two_cycle_cover_coverage_structure():
    # two squares joined by a matching of two rungs
    g = cube_graph()
    squares = [e for e, a, b in g.edges() if (a ^ b) in (1, 2)]
    rung04 = next(e for e, a, b in g.edges() if {a, b} == {0, 4})
    rung15 = next(e for e, a, b in g.edges() if {a, b} == {1, 5})
    a, b = two_cycle_cover_even(g, set(squares), {rung04, rung15})
    counts = {}
    for cyc in a + b:
        for e in cyc:
            counts[e] = counts.get(e, 0) + 1
    for e in squares:
        assert counts[e] == 1
    assert counts[rung04] == 2 and counts[rung15] == 2


def test_walk_rejects_a_path():
    g = path_graph(4)
    with pytest.raises(HypothesisError, match="walk requires a 2-regular edge set"):
        cdc._traverse_cycle(g, cdc._incidence(g, g.edge_ids), 1, 1)


# -- full assembly ---------------------------------------------------------------------


def test_theta_certificate_three_digons():
    cert = run_full(theta_graph())
    cycles = [sorted(c) for _, c in cert.all_cycles()]
    assert sorted(cycles) == [[0, 1], [0, 2], [1, 2]]
    assert verify_cdc(theta_graph(), cert).valid


def test_k4_certificate_three_squares():
    g = k4()
    cert = run_full(g, "user_supplied", frame_edges=g.edge_ids)
    cycles = [c for _, c in cert.all_cycles()]
    assert len(cycles) == 3
    assert all(len(c) == 4 for c in cycles)
    report = verify_cdc(g, cert)
    assert report.valid
    # three bicolored 4-cycles: every edge in exactly two
    assert all(v == 2 for v in report.coverage.values())


def test_petersen_certificate():
    g = petersen()
    cert = run_full(g, "exhaustive")
    assert verify_cdc(g, cert).valid


def test_cube_certificate():
    g = cube_graph()
    cert = run_full(g)
    assert verify_cdc(g, cert).valid


def test_k_component_cycles_lift_base_hamiltonians():
    """Within a K-component, the edges avoiding one color form the lift of
    a spanning cycle of the base Kotzig graph."""
    from kotzigcdc.amiable import amiable_coloring_for_frame
    from kotzigcdc.cdc import fold_vertex_coloring
    from kotzigcdc.multigraph import components as graph_components

    g = petersen()
    frame = next(search_frames(g, "exhaustive"))
    coloring, witness = find_well_connected_frame_coloring(frame)
    f2, col2, amiable, trace = amiable_coloring_for_frame(g, frame, coloring, witness)
    folded = fold_vertex_coloring(f2, col2, amiable)
    for comp in f2.components:
        if comp.kind != "K":
            continue
        cls = comp.classification
        base_color = {
            be: folded.edge_color[path[0]] for be, path in cls.path_map.items()
        }
        for color in (1, 2, 3):
            base_cycle = [be for be, c in base_color.items() if c != color]
            sub = cls.base.subgraph_of_edges(base_cycle, keep_vertices=cls.base.vertices)
            assert all(sub.degree(v) == 2 for v in sub.vertices)
            assert len(graph_components(sub)) == 1  # spanning cycle of the base
            lifted = {e for be in base_cycle for e in cls.path_map[be]}
            frame_part = {
                e for e in comp.edge_ids if folded.edge_color[e] != color
            }
            assert lifted == frame_part


# -- verification ------------------------------------------------------------------------


def test_verify_detects_missing_cycle():
    g = theta_graph()
    cert = run_full(g)
    classes = {k: list(v) for k, v in cert.classes.items()}
    for label in classes:
        if classes[label]:
            classes[label] = classes[label][1:]
            break
    damaged = CdcCertificate(classes={k: tuple(v) for k, v in classes.items()})
    report = verify_cdc(g, damaged)
    assert not report.valid
    assert any("covered" in v for v in report.violations)


def test_verify_detects_duplicated_cycle_in_class():
    g = theta_graph()
    cert = run_full(g)
    classes = {k: list(v) for k, v in cert.classes.items()}
    for label in classes:
        if classes[label]:
            classes[label] = classes[label] + [classes[label][0]]
            break
    damaged = CdcCertificate(classes={k: tuple(v) for k, v in classes.items()})
    report = verify_cdc(g, damaged)
    assert not report.valid
    assert any("reuses" in v for v in report.violations)


def test_verify_detects_non_cycle():
    g = k4()
    cert = CdcCertificate(classes={"1a": ((0, 1),)})
    report = verify_cdc(g, cert)
    assert not report.valid
    assert any("2-regular" in v for v in report.violations)


@pytest.mark.parametrize("cycle", [(0, 1, 2, 3, 4, 5), ()])
def test_verify_detects_disconnected_cycle(cycle):
    # the two triangles of the prism listed as one cycle, and an empty cycle
    report = verify_cdc(prism(), CdcCertificate(classes={"1a": (cycle,)}))
    assert report.violations[0] == "1a[0] is disconnected"


def test_verify_detects_repeated_edge():
    report = verify_cdc(theta_graph(), CdcCertificate(classes={"1a": ((0, 1, 0),)}))
    assert report.violations[0] == "1a[0] repeats an edge"


def test_verify_lists_bad_degree_vertices_in_host_order():
    # a square whose host order is not sorted; the path 3-1-2 ends at 3 and 2
    g = Multigraph([3, 1, 2, 0], [(0, 3, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3)])
    report = verify_cdc(g, CdcCertificate(classes={"1a": ((0, 1),)}))
    assert report.violations[0] == "1a[0] is not 2-regular at [3, 2]"


def test_two_cycle_cover_names_the_first_bad_vertex_in_host_order():
    g = Multigraph([2, 1, 0], [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(HypothesisError, match=r"^vertex 2 has degree 1 in the 2-factor$"):
        two_cycle_cover_even(g, {0, 1}, set())


def test_verify_detects_unknown_edge():
    g = theta_graph()
    cert = CdcCertificate(classes={"1a": ((0, 99),)})
    assert not verify_cdc(g, cert).valid


def test_verify_too_many_classes():
    g = theta_graph()
    cert = run_full(g)
    classes = dict(cert.classes)
    for i in range(7):
        classes.setdefault(f"x{i}", ())
    report = verify_cdc(g, CdcCertificate(classes=classes))
    assert any("exceed" in v for v in report.violations)


def test_certificate_json_round_trip():
    g = theta_graph()
    cert = run_full(g)
    loaded = CdcCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert loaded.classes == cert.classes
    assert verify_cdc(g, loaded).valid


# -- reference implementations ---------------------------------------------------------
# The cycle split and the verifier built on one subgraph per cycle.  They are
# slow but share no walk with cdc.py, and the tests below hold cdc.py to
# their cycles, messages and reports.


def oracle_traverse_cycle(g, eids, start=None, first_edge=None):
    at: dict = {}
    for eid in eids:
        a, b = g.endpoints(eid)
        at.setdefault(a, []).append(eid)
        at.setdefault(b, []).append(eid)
    if start is None:
        start = sorted_vertices(g.subgraph_of_edges(eids))[0]
    if first_edge is None:
        first_edge = sorted_edge_ids(at[start])[0]
    vertices = [start]
    edges = [first_edge]
    cur = g.other_end(first_edge, start)
    prev_edge = first_edge
    while cur != start:
        vertices.append(cur)
        nxt = [e for e in at[cur] if e != prev_edge]
        assert len(nxt) == 1, "walk requires a 2-regular edge set"
        prev_edge = nxt[0]
        edges.append(prev_edge)
        cur = g.other_end(prev_edge, cur)
    return vertices, edges


def oracle_cycle_components(g, eids):
    eids = set(eids)
    sub = g.subgraph_of_edges(eids)
    for v in sub.vertices:
        if sub.degree(v) != 2:
            raise HypothesisError(f"vertex {v!r} has degree {sub.degree(v)} in the 2-factor")
    out = []
    remaining = set(eids)
    while remaining:
        seed = sorted_edge_ids(remaining)[0]
        _, cycle_edges = oracle_traverse_cycle(g, remaining, start=min(
            g.endpoints(seed), key=lambda v: (str(type(v)), repr(v))
        ))
        comp = set(cycle_edges)
        out.append(comp)
        remaining -= comp
    return out


def oracle_cycles(g, eids):
    """Each cycle of a 2-regular edge set from its least vertex along the
    least edge there, in the order of the cycles' least edge ids."""
    return [tuple(oracle_traverse_cycle(g, comp)[1]) for comp in oracle_cycle_components(g, eids)]


def oracle_verify_cdc(g, cert):
    violations = []
    coverage = {eid: 0 for eid in g.edge_ids}
    if len(cert.classes) > 6:
        violations.append(f"{len(cert.classes)} classes exceed the limit of 6")
    for label, cycles in sorted(cert.classes.items()):
        used_in_class: set = set()
        for idx, cyc in enumerate(cycles):
            name = f"{label}[{idx}]"
            eids = list(cyc)
            if len(set(eids)) != len(eids):
                violations.append(f"{name} repeats an edge")
                continue
            missing = [e for e in eids if not g.has_edge(e)]
            if missing:
                violations.append(f"{name} uses unknown edges {missing}")
                continue
            sub = g.subgraph_of_edges(eids)
            bad_degree = [v for v in sub.vertices if sub.degree(v) != 2]
            if bad_degree:
                violations.append(f"{name} is not 2-regular at {bad_degree}")
            elif len(components(sub)) != 1:
                violations.append(f"{name} is disconnected")
            overlap = used_in_class & set(eids)
            if overlap:
                violations.append(
                    f"class {label} reuses edges {sorted_edge_ids(overlap)} across cycles"
                )
            used_in_class.update(eids)
            for e in eids:
                if e in coverage:
                    coverage[e] += 1
    for eid, count in coverage.items():
        if count != 2:
            violations.append(f"edge {eid!r} is covered {count} times, expected 2")
    return CdcReport(valid=not violations, violations=violations, coverage=coverage)


@pytest.fixture(scope="module")
def corpus_covers():
    """Every graph of cubic_corpus(10) with its certificate, or None where
    the pipeline finds no frame."""
    out = []
    for g in cubic_corpus(10):
        report = run_pipeline(g)
        if report.outcome != "verified":
            report = run_pipeline(g, strategy="exhaustive")
        out.append((g, report.certificate))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cycle_split_matches_the_oracle(corpus_covers, data):
    g, cert = data.draw(st.sampled_from(corpus_covers))
    if cert is not None and data.draw(st.booleans()):
        # some cycles of one class: a 2-regular edge set
        cycles = data.draw(st.sampled_from([c for c in cert["classes"].values() if c]))
        picked = data.draw(st.sets(st.sampled_from(range(len(cycles)))))
        eids = {e for i in picked for e in cycles[i]}
    else:
        eids = data.draw(st.sets(st.sampled_from(g.edge_ids)))
    try:
        expected = oracle_cycles(g, eids)
    except HypothesisError as exc:
        with pytest.raises(HypothesisError) as caught:
            cdc._canonical_cycles(g, eids)
        assert str(caught.value) == str(exc)
    else:
        assert cdc._canonical_cycles(g, eids) == expected


CORRUPTIONS = ("none", "drop", "duplicate", "merge", "unknown", "repeat", "subset")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verifier_matches_the_oracle_on_corrupted_certificates(corpus_covers, data):
    g, cert = data.draw(st.sampled_from([gc for gc in corpus_covers if gc[1] is not None]))
    classes = {label: [list(c) for c in cycles] for label, cycles in cert["classes"].items()}
    places = [(label, i) for label, cycles in sorted(classes.items()) for i in range(len(cycles))]
    label, i = data.draw(st.sampled_from(places))
    cycle = classes[label][i]
    kind = data.draw(st.sampled_from(CORRUPTIONS))
    if kind == "drop":
        del classes[label][i]
    elif kind == "duplicate":
        classes[label].append(list(cycle))
    elif kind == "merge" and len(places) > 1:
        other, j = data.draw(st.sampled_from([p for p in places if p != (label, i)]))
        cycle.extend(classes[other].pop(j))
    elif kind == "unknown":
        cycle.insert(data.draw(st.integers(0, len(cycle))), 10**6)
    elif kind == "repeat":
        cycle.append(data.draw(st.sampled_from(cycle)))
    elif kind == "subset":
        cycle[:] = data.draw(st.lists(st.sampled_from(g.edge_ids), unique=True))
    damaged = CdcCertificate.from_json({"classes": classes})
    new, old = verify_cdc(g, damaged), oracle_verify_cdc(g, damaged)
    assert (new.valid, new.violations, new.coverage) == (old.valid, old.violations, old.coverage)


# -- whole-pipeline properties ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 30), st.integers(0, 10**6))
def test_random_cubic_certificates_pass_the_oracle(half, seed):
    n = 2 * half
    nxg = nx.random_regular_graph(3, n, seed=seed)
    assume(nx.is_connected(nxg))
    g = Multigraph(range(n), [(k, a, b) for k, (a, b) in enumerate(sorted(map(sorted, nxg.edges())))])
    report = run_pipeline(g)
    # bridged hosts, and bridgeless ones that are not 3-edge-colourable, get no frame
    assert report.outcome in ("verified", "no_frame")
    if report.outcome == "verified":
        assert oracle_verify_cdc(g, CdcCertificate.from_json(report.certificate)).valid


def planted_host(n: int, rng: random.Random, k4s: int = 1):
    """A cubic graph on n vertices around a known frame: k4s copies of K4
    with every edge subdivided twice, plus even cycles, joined by a random
    perfect matching on the 2-valent vertices, drawn again until connected.
    Returns the graph and its frame edge ids."""
    frame = []
    nv = 4 * k4s
    for base in range(0, nv, 4):
        for a, b in itertools.combinations(range(base, base + 4), 2):
            frame += [(a, nv), (nv, nv + 1), (nv + 1, b)]
            nv += 2
    while nv < n:
        length = rng.choice((4, 6, 8, 10))
        if n - nv - length < 4:
            length = n - nv
        frame += [(v, v + 1) for v in range(nv, nv + length - 1)] + [(nv + length - 1, nv)]
        nv += length
    two_valent = list(range(4 * k4s, n))
    while True:
        rng.shuffle(two_valent)
        matching = list(zip(two_valent[::2], two_valent[1::2]))
        g = Multigraph(range(n), [(k, a, b) for k, (a, b) in enumerate(frame + matching)])
        if is_connected(g):
            return g, list(range(len(frame)))


# Measured at about 14 lookups per edge at both sizes.  The subgraph-based
# assembly, which scanned per cycle, made 100 at 500 vertices and 250 at 2,000.
LOOKUPS_PER_EDGE = 30


@pytest.mark.parametrize("n", [500, 2000])
def test_assembly_and_verification_work_is_linear(n, monkeypatch):
    """Edge lookups per host edge during construct_6cdc and verify_cdc stay
    under one constant at both sizes, so a scan repeated per cycle or per
    component shows up as a failure, with no clock involved."""
    g, frame_edges = planted_host(n, random.Random(n))
    f = validate_frame(g, frame_edges)
    coloring, witness = find_well_connected_frame_coloring(f)
    f2, col2, amiable, trace = amiable_coloring_for_frame(g, f, coloring, witness)
    calls = 0
    endpoints = Multigraph.endpoints

    def counted(self, eid):
        nonlocal calls
        calls += 1
        return endpoints(self, eid)

    monkeypatch.setattr(Multigraph, "endpoints", counted)
    cert = construct_6cdc(g, f2, col2, amiable, trace)
    report = verify_cdc(g, cert)
    monkeypatch.undo()
    assert report.valid
    assert calls / g.num_edges() < LOOKUPS_PER_EDGE


def planted_multi_k_hosts(seeds):
    """Seeded planted hosts with two or three K4 subdivisions and at most
    three short cycles, with their frame edge ids.  Frames with four K4s
    are left out: the witness search walks the colouring product, which
    can take seconds there."""
    for seed in seeds:
        rng = random.Random(seed)
        k4s = rng.choice((2, 3))
        extra = rng.choice((0, 4, 6, 8, 10, 12))
        yield planted_host(16 * k4s + extra, rng, k4s)


def test_pipeline_on_frames_with_several_k_components():
    """Every verified certificate passes both verifiers, and the witness
    colour swap and cycle absorption of the normalisation both fire."""
    fired = {"witness_color_swap": 0, "absorbed_components": 0}
    verified = 0
    for g, frame_edges in planted_multi_k_hosts(range(60)):
        report = run_pipeline(g, strategy="user_supplied", frame_edges=frame_edges, collect_trace=True)
        assert report.outcome in ("verified", "no_witness")
        if report.outcome != "verified":
            continue
        verified += 1
        cert = CdcCertificate.from_json(report.certificate)
        assert verify_cdc(g, cert).valid
        assert oracle_verify_cdc(g, cert).valid
        for step in report.trace["steps"]:
            if step["step"] in fired:
                fired[step["step"]] += 1
    assert verified > 0
    assert all(fired.values()), fired
