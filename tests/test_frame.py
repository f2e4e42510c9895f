import itertools
import random
import time
from dataclasses import dataclass

import networkx as nx
import pytest

from kotzigcdc import frame as frame_module
from kotzigcdc.catalog import cube_graph, cycle_graph, k4, petersen, prism, theta_graph
from kotzigcdc.cli import run_pipeline
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.errors import FrameError, GraphFormatError, NotCubicError, OracleLimitError
from kotzigcdc.frame import (
    C_KIND,
    K_KIND,
    Frame,
    FrameComponent,
    PerfectColoring,
    Witness,
    enumerate_frame_colorings,
    even_two_factors,
    find_well_connected_frame_coloring,
    frame_to_json,
    is_perfect_coloring,
    search_frames,
    validate_frame,
    well_connected_witness,
)
from kotzigcdc.io import parse_graph6
from kotzigcdc.kotzig import (
    CYCLE,
    CYCLE_CLASSIFICATION,
    KOTZIG_SUBDIVISION,
    classify_component,
    enumerate_perfect_colorings,
    is_perfect_component_coloring,
)
from kotzigcdc.multigraph import (
    Multigraph,
    bridges,
    components,
    is_eulerian,
    sorted_edge_ids,
    sorted_vertices,
)
from kotzigcdc.rowgraph import build_row_graph, row_contract

# bridgeless, 3-edge-connected and not 3-edge-colourable: no even 2-factor
NOT_COLOURABLE_20 = "S_?S@DCA@?aAo?A??GO?@Ga??DOHA?o?_"


def _perfect_matchings(g):
    """Every perfect matching, by matching the first uncovered vertex in
    every possible way.  With matching_oracle_factors, the oracle for
    even_two_factors."""
    verts = sorted_vertices(g)

    def extend(covered, chosen):
        free = [v for v in verts if v not in covered]
        if not free:
            yield frozenset(chosen)
            return
        v = free[0]
        for eid in sorted_edge_ids(g.incident_edges(v)):
            w = g.other_end(eid, v)
            if w == v or w in covered:
                continue
            covered.update((v, w))
            chosen.append(eid)
            yield from extend(covered, chosen)
            chosen.pop()
            covered.difference_update((v, w))

    yield from extend(set(), [])


def matching_oracle_factors(g):
    """Complements of perfect matchings whose cycles are all even."""
    out = []
    for matching in _perfect_matchings(g):
        factor = frozenset(e for e in g.edge_ids if e not in matching)
        sub = g.subgraph_of_edges(factor, keep_vertices=g.vertices)
        if all(len(comp) % 2 == 0 for comp in components(sub)):
            out.append(factor)
    return out


def seeded_cubic_graphs(orders, seeds):
    for n in orders:
        for seed in seeds:
            h = nx.random_regular_graph(3, n, seed=seed)
            edges = [(i, a, b) for i, (a, b) in enumerate(sorted(h.edges))]
            yield Multigraph(sorted(h.nodes), edges)


def prism_hamiltonian_frame():
    g = prism()
    # 6-cycle 0-1-4-3-5-2-0 uses edges 0,7,3,5,8,2
    return g, validate_frame(g, [0, 7, 3, 5, 8, 2])


def cube_two_squares_frame():
    g = cube_graph()
    squares = [e for e, a, b in g.edges() if (a ^ b) in (1, 2)]
    return g, validate_frame(g, squares)


def test_validate_full_k4():
    g = k4()
    f = validate_frame(g, g.edge_ids)
    assert [c.kind for c in f.components] == [K_KIND]
    assert f.chords == frozenset()


def test_validate_prism_cycle_frame():
    g, f = prism_hamiltonian_frame()
    assert [c.kind for c in f.components] == [C_KIND]
    # the other three edges all have both ends on the cycle
    assert len(f.chords) == 3
    assert f.free_edges == ()


def test_validate_matching_rejected():
    g = k4()
    with pytest.raises(FrameError):
        validate_frame(g, [0, 5])  # a perfect matching of K4


def test_validate_odd_component_rejected():
    g = prism()
    with pytest.raises(FrameError, match="odd"):
        validate_frame(g, [0, 1, 2, 3, 4, 5])  # two triangles


def test_validate_non_spanning_rejected():
    g = prism()
    with pytest.raises(FrameError):
        validate_frame(g, [0, 1, 2])


def test_validate_needs_cubic():
    with pytest.raises(NotCubicError):
        validate_frame(cycle_graph(4), [0, 1, 2, 3])


def test_bridge_warning():
    # cubic graph with a bridge: two theta-ish blobs joined by an edge
    g = Multigraph(
        range(6),
        [
            (0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 1, 2),
            (4, 2, 3),
            (5, 3, 4), (6, 3, 5), (7, 4, 5), (8, 4, 5),
        ],
    )
    # no frame exists at all: the bridge sides have odd order.  The whole
    # edge set is one spanning component holding the bridge, which is
    # neither a cycle nor a Kotzig subdivision
    assert bridges(g) == {4}
    with pytest.raises(FrameError, match="neither"):
        validate_frame(g, g.edge_ids)
    # both searches see the bridge once and yield nothing
    assert list(search_frames(g, "two_factor")) == []
    assert list(search_frames(g, "exhaustive")) == []


# -- the contracted frame as its own graph, kept as the referee ------------------
#
# The program reads the contraction off the row graph (build_row_graph); this
# is the separate construction it replaced, with the witness built on it.


@dataclass(frozen=True)
class ContractedFrame:
    """One vertex per frame component (named by its label); edges are the
    host edges joining different components, keeping their ids."""

    graph: Multigraph
    vertex_kind: dict  # label -> C_KIND | K_KIND


@dataclass(frozen=True)
class ColoredContraction:
    contracted: ContractedFrame
    edge_color: dict  # partial: host edge id -> color


def contract_frame(f: Frame) -> ContractedFrame:
    """One vertex per component; loops (chords) are dropped.  The result is
    always eulerian because components have even order."""
    label_of = f.label_of
    edges = []
    for eid, a, b in f.host.edges():
        if eid in f.frame_edges or eid in f.chords:
            continue
        edges.append((eid, label_of[a], label_of[b]))
    graph = Multigraph([c.label for c in f.components], edges)
    assert is_eulerian(graph), "frame contraction must be eulerian"
    return ContractedFrame(graph=graph, vertex_kind={c.label: c.kind for c in f.components})


def build_colored_contraction(f: Frame, coloring: PerfectColoring) -> ColoredContraction:
    """Color each contraction edge whose two host endpoints agree."""
    if not is_perfect_coloring(f, coloring):
        raise FrameError("coloring is not perfect for this frame")
    cf = contract_frame(f)
    edge_color = {}
    for eid, _, _ in cf.graph.edges():
        a, b = f.host.endpoints(eid)
        ca = coloring.vertex_color.get(a)
        cb = coloring.vertex_color.get(b)
        if ca is not None and ca == cb:
            edge_color[eid] = ca
    return ColoredContraction(contracted=cf, edge_color=edge_color)


def referee_witness(f: Frame, coloring: PerfectColoring) -> Witness | None:
    """well_connected_witness on the colored contraction: the first color
    whose edge class has one component holding every K-vertex."""
    k_labels = f.k_labels()
    if len(k_labels) == 0:
        anchor = min(c.label for c in f.components)
        return Witness(color=1, h_labels=frozenset([anchor]))
    cc = build_colored_contraction(f, coloring)
    graph = cc.contracted.graph
    for color in (1, 2, 3):
        eids = [e for e, c in cc.edge_color.items() if c == color]
        for comp in components(graph.subgraph_of_edges(eids, keep_vertices=graph.vertices)):
            if all(k in comp for k in k_labels):
                return Witness(color=color, h_labels=frozenset(comp))
    return None


@dataclass(frozen=True)
class FrameSufficiency:
    """Three independently checkable conditions on the contracted frame,
    each of which guarantees a well-connected coloring exists."""

    k_independent_rest_connected: bool
    k_near_c_rest_connected: bool
    c_backbone_dominates_k: bool


def check_frame_sufficiency(g: Multigraph, vertex_kind: dict) -> FrameSufficiency:
    """The three conditions on a contraction given as its graph and the kind
    of each vertex."""
    k_set = {v for v in g.vertices if vertex_kind[v] == K_KIND}
    c_set = {v for v in g.vertices if vertex_kind[v] == C_KIND}

    k_independent = not any(
        not g.is_loop(e) and all(x in k_set for x in g.endpoints(e)) for e in g.edge_ids
    )
    rest_edges = [e for e in g.edge_ids if all(x not in k_set for x in g.endpoints(e))]
    rest = g.subgraph_of_edges(rest_edges, keep_vertices=[v for v in g.vertices if v not in k_set])
    rest_connected = len(components(rest)) <= 1

    every_k_near_c = all(
        any(vertex_kind[g.other_end(e, k)] == C_KIND for e in g.incident_edges(k) if not g.is_loop(e))
        for k in k_set
    )

    c_sub = g.subgraph_of_edges(
        [e for e in g.edge_ids if all(x in c_set for x in g.endpoints(e))],
        keep_vertices=sorted(c_set, key=repr),
    )
    backbone = not k_set
    for comp in components(c_sub):
        if backbone:
            break
        neighborhood = {g.other_end(e, v) for v in comp for e in g.incident_edges(v)}
        backbone = k_set <= neighborhood

    return FrameSufficiency(
        k_independent_rest_connected=k_independent and rest_connected,
        k_near_c_rest_connected=every_k_near_c and rest_connected,
        c_backbone_dominates_k=backbone,
    )


# -- contraction -----------------------------------------------------------------


def test_contract_prism_frame_single_vertex():
    _, f = prism_hamiltonian_frame()
    cf = contract_frame(f)
    assert cf.graph.num_vertices() == 1
    assert cf.graph.num_edges() == 0
    assert cf.vertex_kind == {1: C_KIND}


def test_contract_cube_two_squares():
    g, f = cube_two_squares_frame()
    cf = contract_frame(f)
    assert cf.graph.num_vertices() == 2
    assert cf.graph.num_edges() == 4  # the matching between the squares
    assert is_eulerian(cf.graph)
    assert set(cf.vertex_kind.values()) == {C_KIND}
    rc = row_contract(build_row_graph(g, f, monochromatic_coloring(f, {1: 1, 2: 2})))
    assert sorted(rc.edges()) == sorted(cf.graph.edges())


def test_contract_k4_frame():
    g = k4()
    f = validate_frame(g, g.edge_ids)
    cf = contract_frame(f)
    assert cf.graph.num_vertices() == 1
    assert cf.graph.num_edges() == 0
    assert cf.vertex_kind == {1: K_KIND}


def test_contraction_always_eulerian_over_search():
    """The referee contraction is eulerian, and squashing the columns of
    the row graph gives it edge for edge, on every frame of the corpus up
    to 8 vertices under its first perfect coloring."""
    for g in (k4(), prism(), cube_graph(), theta_graph(), *cubic_corpus(8)):
        for f in search_frames(g, "exhaustive"):
            cf = contract_frame(f)
            assert is_eulerian(cf.graph)
            coloring = next(enumerate_frame_colorings(f))
            rc = row_contract(build_row_graph(g, f, coloring))
            assert sorted(rc.edges(), key=repr) == sorted(cf.graph.edges(), key=repr)


def test_edge_conservation():
    g, f = cube_two_squares_frame()
    cf = contract_frame(f)
    non_frame = g.num_edges() - len(f.frame_edges)
    assert non_frame == len(f.chords) + cf.graph.num_edges()


# -- perfect colorings and witnesses ------------------------------------------------


def monochromatic_coloring(f, colors_by_label):
    vc, ec = {}, {}
    for comp in f.components:
        c = colors_by_label[comp.label]
        for v in comp.vertices:
            vc[v] = c
        for e in comp.edge_ids:
            ec[e] = c
    return PerfectColoring(vertex_color=vc, edge_color=ec)


def _row_colors(r):
    """Host edge id -> row, for the row graph's edges inside one row."""
    return {e.eid: e.a[0] for e in r.edges if e.a[0] == e.b[0]}


def test_colored_contraction_same_color():
    g, f = cube_two_squares_frame()
    coloring = monochromatic_coloring(f, {1: 1, 2: 1})
    cc = build_colored_contraction(f, coloring)
    assert sorted(cc.edge_color.values()) == [1, 1, 1, 1]
    assert _row_colors(build_row_graph(g, f, coloring)) == cc.edge_color


def test_colored_contraction_different_colors():
    g, f = cube_two_squares_frame()
    coloring = monochromatic_coloring(f, {1: 1, 2: 2})
    cc = build_colored_contraction(f, coloring)
    assert cc.edge_color == {}
    assert _row_colors(build_row_graph(g, f, coloring)) == {}


def test_witness_rejects_an_imperfect_coloring():
    g = double_theta_graph()
    f = validate_frame(g, range(10))
    coloring = monochromatic_coloring(f, {1: 1, 2: 1})  # a K-component is not monochromatic
    with pytest.raises(FrameError, match="not perfect"):
        well_connected_witness(f, coloring)


def test_is_perfect_coloring_rejects_bichromatic_cycle():
    g, f = prism_hamiltonian_frame()
    coloring = monochromatic_coloring(f, {1: 1})
    assert is_perfect_coloring(f, coloring)
    bad_ec = dict(coloring.edge_color)
    bad_ec[f.components[0].edge_ids[0]] = 2
    assert not is_perfect_coloring(
        f, PerfectColoring(vertex_color=coloring.vertex_color, edge_color=bad_ec)
    )


def test_witness_single_component_trivial():
    _, f = prism_hamiltonian_frame()
    coloring = monochromatic_coloring(f, {1: 3})
    w = well_connected_witness(f, coloring)
    assert w is not None and len(w.h_labels) == 1


def test_witness_two_squares():
    g, f = cube_two_squares_frame()
    w = well_connected_witness(f, monochromatic_coloring(f, {1: 1, 2: 1}))
    assert w is not None
    # no K-vertices: trivially well connected with a one-vertex piece
    assert len(w.h_labels) == 1


def test_find_well_connected_always_for_single_k():
    g = k4()
    f = validate_frame(g, g.edge_ids)
    found = find_well_connected_frame_coloring(f)
    assert found is not None
    coloring, witness = found
    assert is_perfect_coloring(f, coloring)
    assert witness.h_labels == frozenset([1])


def test_enumerate_frame_colorings_counts():
    g, f = cube_two_squares_frame()
    # first component pinned to one color, second free: 1 * 3
    assert len(list(enumerate_frame_colorings(f))) == 3


def _theta_sub_edges(base, eid0):
    # vertices base..base+3, subdivision paths of lengths 1, 2, 2;
    # the 2-valent vertices are base+2 and base+3
    v = lambda k: base + k
    return [
        (eid0, v(0), v(1)),
        (eid0 + 1, v(0), v(2)), (eid0 + 2, v(2), v(1)),
        (eid0 + 3, v(0), v(3)), (eid0 + 4, v(3), v(1)),
    ]


def double_theta_graph():
    """Two theta subdivisions wired together: a frame with two K-components."""
    edges = _theta_sub_edges(0, 0) + _theta_sub_edges(4, 5)
    edges += [(10, 2, 6), (11, 3, 7)]
    return Multigraph(range(8), edges)


def triple_theta_triangle():
    """Three theta subdivisions in a triangle.  Every middle component's two
    attachment vertices sit on different subdivision paths, so no single
    color class can connect all three K-vertices under any coloring."""
    edges = (
        _theta_sub_edges(0, 0) + _theta_sub_edges(4, 5) + _theta_sub_edges(8, 10)
    )
    edges += [(15, 2, 6), (16, 7, 10), (17, 11, 3)]
    return Multigraph(range(12), edges)


def test_two_k_components_always_witnessed():
    g = double_theta_graph()
    f = validate_frame(g, range(10))
    assert [c.kind for c in f.components] == [K_KIND, K_KIND]
    found = find_well_connected_frame_coloring(f)
    assert found is not None
    coloring, witness = found
    assert witness.h_labels == frozenset({1, 2})


def test_three_k_triangle_has_no_witness():
    g = triple_theta_triangle()
    f = validate_frame(g, range(15))
    assert [c.kind for c in f.components] == [K_KIND] * 3
    # exhaustive over all perfect colorings: absence is a definite answer
    assert find_well_connected_frame_coloring(f) is None


def component_piece(f: Frame, comp: FrameComponent) -> Multigraph:
    """The component as a subgraph of the host, as validate_frame built it
    for every component before cycles went without one."""
    if comp.piece is not None:
        return comp.piece
    return f.host.subgraph_of_edges(comp.edge_ids, keep_vertices=comp.vertices)


def listed_frame_colorings(f: Frame):
    """enumerate_frame_colorings as it was before it drew each component's
    colorings lazily: every list first, then itertools.product.  Each
    component's fragments come from its subgraph (component_piece)."""
    order = frame_module._component_order_for_search(f)
    choice_lists = []
    for pos, comp in enumerate(order):
        frags = list(
            enumerate_perfect_colorings(
                component_piece(f, comp), comp.classification, representatives=(pos == 0)
            )
        )
        choice_lists.append((comp.label, frags))
    labels = [label for label, _ in choice_lists]
    for combo in itertools.product(*(frags for _, frags in choice_lists)):
        yield frame_module.assemble_coloring(dict(zip(labels, combo)))


def test_lazy_frame_colorings_keep_the_product_order():
    frames = [
        validate_frame(double_theta_graph(), range(10)),
        validate_frame(triple_theta_triangle(), range(15)),
        cube_two_squares_frame()[1],
    ]
    for f in frames:
        lazy = list(enumerate_frame_colorings(f))
        assert len(lazy) > 1
        assert lazy == list(listed_frame_colorings(f))


# -- the piece-building validation, kept as the referee -----------------------------
# validate_frame as it was when every component, cycles included, was built as
# a subgraph and classified, with the perfect-coloring test and the first
# coloring read from those subgraphs.


def referee_validate_frame(g: Multigraph, frame_edges) -> Frame:
    if not g.is_cubic():
        raise NotCubicError("frame host must be 3-regular")
    frame_edges = tuple(frame_edges)
    for eid in frame_edges:
        if not g.has_edge(eid):
            raise GraphFormatError(f"unknown edge id {eid!r}")
    frame_edges = frozenset(frame_edges)

    near: dict = {v: [] for v in g.vertices}
    for eid in frame_edges:
        a, b = g.endpoints(eid)
        near[a].append(b)
        near[b].append(a)
    position: dict = {}
    comps: list = []
    key_rank = g.key_rank()
    for start in sorted_vertices(g):
        if start in position:
            continue
        position[start] = len(comps)
        comp, todo = [start], [start]
        while todo:
            for w in near[todo.pop()]:
                if w not in position:
                    position[w] = len(comps)
                    comp.append(w)
                    todo.append(w)
        comps.append(sorted(comp, key=key_rank.__getitem__))

    eids_of: list = [[] for _ in comps]
    for eid in sorted_edge_ids(frame_edges):
        eids_of[position[g.endpoints(eid)[0]]].append(eid)

    out = []
    for idx, (comp_vertices, comp_eids) in enumerate(zip(comps, eids_of), start=1):
        if len(comp_vertices) % 2 != 0:
            raise FrameError(
                f"component {sorted(map(repr, comp_vertices))} has odd order {len(comp_vertices)}"
            )
        piece = g.subgraph_of_edges(comp_eids, keep_vertices=comp_vertices)
        cls = classify_component(piece)
        if cls.kind not in (CYCLE, KOTZIG_SUBDIVISION):
            raise FrameError(
                f"component {sorted(map(repr, comp_vertices))} is neither a cycle "
                "nor a Kotzig subdivision"
            )
        kind = C_KIND if cls.kind == CYCLE else K_KIND
        out.append(FrameComponent(idx, kind, tuple(comp_vertices), tuple(comp_eids), cls, piece))

    for v in g.vertices:
        if len(near[v]) not in (2, 3):
            raise FrameError(f"vertex {v!r} has frame degree {len(near[v])}")
    return Frame(host=g, frame_edges=frame_edges, components=tuple(out))


def referee_is_perfect_coloring(f: Frame, coloring: PerfectColoring) -> bool:
    return all(
        is_perfect_component_coloring(
            comp.piece, comp.classification, coloring.vertex_color, coloring.edge_color
        )
        for comp in f.components
    )


def referee_first_coloring(f: Frame) -> PerfectColoring:
    """The first coloring of the product: each component's first fragment,
    the first searched component pinned to its representative."""
    order = frame_module._component_order_for_search(f)
    return frame_module.assemble_coloring({
        comp.label: next(enumerate_perfect_colorings(comp.piece, comp.classification, pos == 0))
        for pos, comp in enumerate(order)
    })


def frame_key(f: Frame) -> tuple:
    """A frame's fields, with each classification's base graph read as its
    vertices and edges (Multigraph compares by identity)."""
    def classified(cls):
        base = None if cls.base is None else (cls.base.vertices, cls.base.edges())
        return cls.kind, base, cls.path_map, cls.witness_coloring

    return f.host, f.frame_edges, [
        (c.label, c.kind, c.vertices, c.edge_ids, classified(c.classification)) for c in f.components
    ]


def coloring_items(coloring: PerfectColoring) -> tuple:
    return list(coloring.vertex_color.items()), list(coloring.edge_color.items())


def damaged_colorings(f: Frame, coloring: PerfectColoring, rng: random.Random):
    """The coloring with one vertex or one edge recolored or uncolored, one
    cycle recolored whole, and all colors permuted."""
    vc, ec = coloring.vertex_color, coloring.edge_color
    shift = {1: 2, 2: 3, 3: 1}
    if vc:  # a frame of cubic K-components has no 2-valent vertex
        v = rng.choice(list(vc))
        yield PerfectColoring({**vc, v: shift[vc[v]]}, ec)
        yield PerfectColoring({u: c for u, c in vc.items() if u != v}, ec)
    e = rng.choice(list(ec))
    yield PerfectColoring(vc, {**ec, e: shift[ec[e]]})
    yield PerfectColoring(vc, {d: c for d, c in ec.items() if d != e})
    cycles = [c for c in f.components if c.kind == C_KIND]
    if cycles:
        comp = rng.choice(cycles)
        c = shift[ec[comp.edge_ids[0]]]
        yield PerfectColoring({**vc, **dict.fromkeys(comp.vertices, c)}, {**ec, **dict.fromkeys(comp.edge_ids, c)})
    yield PerfectColoring({u: shift[c] for u, c in vc.items()}, {d: shift[c] for d, c in ec.items()})


def referee_frame_instances():
    """(host, frame edge set) pairs: every edge set of every graph of
    cubic_corpus(10) in which each vertex keeps degree 2 or 3, valid or
    not; planted frames with one, two and three K4 subdivisions among even
    cycles; and the hand-built frames of this file."""
    from tests.test_cdc import planted_host, planted_multi_k_hosts

    for g in cubic_corpus(10):
        for subset in frame_module._degree_constrained_subsets(g):
            yield g, subset
    for k4s in (1, 2, 3):
        for seed in range(3):
            rng = random.Random(seed)
            yield planted_host(16 * k4s + rng.choice((0, 4, 8, 12, 40)), rng, k4s)
    yield from planted_multi_k_hosts(range(10))
    yield planted_host(400, random.Random(400))
    yield double_theta_graph(), range(10)
    yield triple_theta_triangle(), range(15)
    for g, f in (cube_two_squares_frame(), prism_hamiltonian_frame()):
        yield g, f.frame_edges
    yield k4(), k4().edge_ids


def test_validate_frame_matches_the_piece_building_referee():
    """validate_frame builds no subgraph for a cycle, yet gives the
    referee's frame, or its error type and text; the first coloring, dict
    order included; and the same perfect-coloring answers on that coloring
    and on damaged copies of it."""
    rng = random.Random(20)
    frames = errors = damaged = 0
    for g, frame_edges in referee_frame_instances():
        try:
            ref = referee_validate_frame(g, frame_edges)
        except FrameError as exc:
            with pytest.raises(FrameError) as caught:
                validate_frame(g, frame_edges)
            assert str(caught.value) == str(exc)
            errors += 1
            continue
        f = validate_frame(g, frame_edges)
        assert frame_key(f) == frame_key(ref)
        for comp, ref_comp in zip(f.components, ref.components):
            if comp.kind == C_KIND:
                assert comp.piece is None and comp.classification is CYCLE_CLASSIFICATION
            else:
                assert (comp.piece.vertices, comp.piece.edges()) == (ref_comp.piece.vertices, ref_comp.piece.edges())
        first = next(enumerate_frame_colorings(f))
        assert coloring_items(first) == coloring_items(referee_first_coloring(ref))
        assert is_perfect_coloring(f, first) and referee_is_perfect_coloring(ref, first)
        for bad in damaged_colorings(f, first, rng):
            assert is_perfect_coloring(f, bad) == referee_is_perfect_coloring(ref, bad)
            damaged += 1
        frames += 1
    assert (frames, errors) == (8320 + 9 + 10 + 1 + 5, 35744 - 8320)
    assert damaged > 5 * frames


# -- sufficiency conditions -----------------------------------------------------


def make_contracted(kinds, edges):
    """A contraction as (graph, kind of each vertex), vertices 1, 2, ..."""
    g = Multigraph(range(1, len(kinds) + 1), edges)
    return g, {i + 1: k for i, k in enumerate(kinds)}


def test_sufficiency_no_k_connected():
    out = check_frame_sufficiency(*make_contracted([C_KIND, C_KIND], [(0, 1, 2), (1, 1, 2)]))
    assert out.k_independent_rest_connected


def test_sufficiency_two_adjacent_k():
    out = check_frame_sufficiency(*make_contracted([K_KIND, K_KIND], [(0, 1, 2), (1, 1, 2)]))
    assert not out.k_independent_rest_connected
    assert not out.k_near_c_rest_connected
    assert not out.c_backbone_dominates_k


def test_sufficiency_k_next_to_c():
    out = check_frame_sufficiency(*make_contracted([K_KIND, C_KIND], [(0, 1, 2), (1, 1, 2)]))
    assert out.k_near_c_rest_connected
    assert out.c_backbone_dominates_k


# -- search -----------------------------------------------------------------------


def test_search_two_factor_prism():
    g = prism()
    frames = list(search_frames(g, "two_factor"))
    assert frames, "prism has even 2-factors"
    for f in frames:
        assert all(c.kind == C_KIND for c in f.components)
        assert len(f.frame_edges) == 6


def test_search_two_factor_petersen_empty():
    g = petersen()
    # independent oracle: enumerate perfect matchings by brute force
    eids = list(g.edge_ids)
    matchings = []
    for subset in itertools.combinations(eids, 5):
        verts = [v for e in subset for v in g.endpoints(e)]
        if len(set(verts)) == 10:
            matchings.append(subset)
    assert len(matchings) == 6  # the classic count
    for m in matchings:
        factor = [e for e in eids if e not in m]
        sub = g.subgraph_of_edges(factor)
        assert all(len(c) % 2 == 1 for c in components(sub))  # two 5-cycles
    assert list(search_frames(g, "two_factor")) == []


def test_even_two_factors_are_distinct_and_complete():
    """The Tait search yields each even 2-factor once, and exactly the
    factors of the perfect-matching oracle, parallel edges and loops
    included.  The oracle itself is checked against matchings found by
    brute force over edge subsets."""
    for g in [prism(), cube_graph(), petersen(), *cubic_corpus(8)]:
        factors = list(even_two_factors(g))
        assert len(set(factors)) == len(factors)
        oracle = matching_oracle_factors(g)
        assert len(set(oracle)) == len(oracle)
        expected = set()
        for m in itertools.combinations(g.edge_ids, g.num_vertices() // 2):
            if len({v for e in m for v in g.endpoints(e)}) == g.num_vertices():
                factor = frozenset(e for e in g.edge_ids if e not in m)
                sub = g.subgraph_of_edges(factor, keep_vertices=g.vertices)
                if all(len(c) % 2 == 0 for c in components(sub)):
                    expected.add(factor)
        assert set(oracle) == expected
        assert set(factors) == expected


@pytest.mark.parametrize("name", ["petersen", "not_colourable_20"])
def test_even_two_factors_none_on_non_colourable(name):
    g = petersen() if name == "petersen" else parse_graph6(NOT_COLOURABLE_20)
    assert not bridges(g)
    assert list(even_two_factors(g)) == []
    assert matching_oracle_factors(g) == []
    assert list(search_frames(g, "two_factor")) == []


def flower_snark(n: int) -> Multigraph:
    """Isaacs' flower snark J_n (odd n): stars a_i - b_i, c_i, d_i, the
    cycle b_0 ... b_(n-1), and the cycle c_0 ... c_(n-1) d_0 ... d_(n-1).
    Vertex x_i is numbered "abcd".index(x) * n + i."""
    a, b, c, d = (lambda i, base=base: base * n + i % n for base in range(4))
    edges = []
    for i in range(n):
        edges += [(a(i), b(i)), (a(i), c(i)), (a(i), d(i)), (b(i), b(i + 1))]
    for x in (c, d):
        edges += [(x(i), x(i + 1)) for i in range(n - 1)]
    edges += [(c(n - 1), d(0)), (d(n - 1), c(0))]
    return Multigraph(range(4 * n), [(k, u, v) for k, (u, v) in enumerate(edges)])


def test_even_two_factors_budget_on_flower_snark():
    """J21 has no even 2-factor, and proving it unbudgeted takes minutes;
    the search gives up after its branch budget instead.  J5 and J15 fit
    in the budget and still end with no factor."""
    for n in (5, 15):
        assert list(even_two_factors(flower_snark(n))) == []
    g = flower_snark(21)
    assert g.is_cubic() and not bridges(g)
    start = time.perf_counter()
    with pytest.raises(OracleLimitError, match="gave up"):
        next(even_two_factors(g), None)
    assert time.perf_counter() - start < 30
    with pytest.raises(OracleLimitError):
        run_pipeline(g)


def test_even_two_factors_match_oracle_on_random_cubic_graphs():
    for g in seeded_cubic_graphs((12, 16, 20, 24), range(1, 6)):
        factors = list(even_two_factors(g))
        assert len(set(factors)) == len(factors)
        assert set(factors) == set(matching_oracle_factors(g))


def test_even_two_factors_deterministic():
    for g in [cube_graph(), *seeded_cubic_graphs((40,), (1, 2))]:
        first = next(even_two_factors(g))
        assert next(even_two_factors(g)) == first
        assert list(even_two_factors(g)) == list(even_two_factors(g))


def _brute_force_bridges(g):
    base = len(components(g))
    return {
        e
        for e in g.edge_ids
        if len(components(g.subgraph_of_edges(
            [f for f in g.edge_ids if f != e], keep_vertices=g.vertices
        ))) > base
    }


def test_bridges_match_edge_deletion_on_corpus():
    """The linear bridge pass agrees with deleting each edge in turn (the
    corpus has digons, whose edges are no bridges); the 30 bridged graphs
    are exactly those the corpus policy leaves without a frame."""
    assert bridges(theta_graph()) == set() == _brute_force_bridges(theta_graph())
    bridged = 0
    for g in cubic_corpus(10):
        found = bridges(g)
        assert found == _brute_force_bridges(g)
        report = run_pipeline(g, strategy="two_factor")
        if report.outcome != "verified":
            report = run_pipeline(g, strategy="exhaustive")
        assert (report.outcome == "no_frame") == bool(found)
        bridged += bool(found)
    assert bridged == 30


def test_bridged_hosts_yield_nothing_unvalidated(monkeypatch):
    calls = []
    real = frame_module.validate_frame

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(frame_module, "validate_frame", counting)
    graphs = [g for g in cubic_corpus(10) if bridges(g)]
    assert len(graphs) == 30
    for g in graphs:
        assert list(search_frames(g, "two_factor")) == []
        assert list(search_frames(g, "exhaustive")) == []
    assert calls == []


def test_bridged_hosts_have_no_frame_by_exhaustive_walk():
    """The shortcut is a fact: on every bridged corpus graph up to 8
    vertices, no degree-constrained edge subset validates as a frame."""
    for g in cubic_corpus(8):
        if not bridges(g):
            continue
        for subset in frame_module._degree_constrained_subsets(g):
            with pytest.raises(FrameError):
                validate_frame(g, subset)


def test_search_needs_cubic_host():
    for strategy in ("two_factor", "exhaustive"):
        with pytest.raises(NotCubicError):
            next(search_frames(cycle_graph(4), strategy))


def test_search_exhaustive_petersen_finds_spanning_subdivision():
    g = petersen()
    it = search_frames(g, "exhaustive")
    f = next(it)
    assert len(f.components) == 1
    assert f.components[0].kind == K_KIND
    # re-validation agrees
    again = validate_frame(g, f.frame_edges)
    assert again.components[0].kind == K_KIND


def test_search_exhaustive_guard():
    g = Multigraph(range(20), [(i, i, (i + 1) % 20) for i in range(20)]
                   + [(20 + i, i, (i + 10) % 20) for i in range(10)])
    assert not bridges(g)
    with pytest.raises(OracleLimitError):
        next(search_frames(g, "exhaustive"))


def test_search_user_supplied():
    g = k4()
    frames = list(search_frames(g, "user_supplied", frame_edges=g.edge_ids))
    assert len(frames) == 1


def test_every_searched_frame_validates():
    for g in (prism(), cube_graph(), theta_graph()):
        for f in search_frames(g, "two_factor"):
            revalidated = validate_frame(g, f.frame_edges)
            assert revalidated.chords == f.chords


def validate_labeled(g, frame_edges, labeling):
    """validate_frame's frame with its components in the order labeling
    lists their vertex sets, labelled 1, 2, ...  Each component is built
    afresh from its vertices, the frame edges among them and their
    classification, not by relabelling the components validate_frame
    returns."""
    frame = validate_frame(g, frame_edges)
    parts = [frozenset(part) for part in labeling]
    if len(parts) != frame.s or set(parts) != {frozenset(c.vertices) for c in frame.components}:
        raise FrameError("labeling does not match the frame components")
    comps = []
    for label, part in enumerate(parts, start=1):
        vertices = tuple(sorted(part, key=lambda v: (str(type(v)), repr(v))))
        eids = tuple(e for e in sorted_edge_ids(frame.frame_edges) if g.endpoints(e)[0] in part)
        piece = g.subgraph_of_edges(eids, keep_vertices=vertices)
        cls = classify_component(piece)
        kind = C_KIND if cls.kind == CYCLE else K_KIND
        comps.append(FrameComponent(label, kind, vertices, eids, cls, piece if kind == K_KIND else None))
    return Frame(host=g, frame_edges=frame.frame_edges, components=tuple(comps))


def frame_from_json(g, obj):
    """The frame frame_to_json wrote, its components labelled as written;
    the chord set in the file must match the recomputed one."""
    labeling = [comp["vertices"] for comp in sorted(obj["components"], key=lambda c: c["label"])]
    frame = validate_labeled(g, obj["frame_edges"], labeling)
    if sorted_edge_ids(frame.chords) != sorted_edge_ids(obj.get("chords", frame.chords)):
        raise FrameError("chord set in file does not match the recomputed chords")
    return frame


def test_frame_json_round_trip():
    g, f = cube_two_squares_frame()
    obj = frame_to_json(f)
    back = frame_from_json(g, obj)
    assert back.frame_edges == f.frame_edges
    assert [c.kind for c in back.components] == [c.kind for c in f.components]
