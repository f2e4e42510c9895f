"""Kotzig frames: validation, contraction, perfect colorings and search.

A frame of a cubic graph is a spanning subgraph whose components are even
cycles ("C") or even subdivisions of Kotzig graphs ("K").  Chords are the
non-frame edges that stay inside one component.  Contracting every
component and dropping loops yields an eulerian multigraph whose edges keep
their host ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import FrameError, GraphFormatError, NotCubicError, OracleLimitError
from .kotzig import (
    CYCLE,
    KOTZIG_SUBDIVISION,
    Classification,
    classify_component,
    enumerate_perfect_colorings,
    is_perfect_component_coloring,
)
from .multigraph import (
    EdgeId,
    Multigraph,
    Vertex,
    VertexMap,
    _rooted_forest,
    bridges,
    components,
    is_eulerian,
    sorted_edge_ids,
)

C_KIND = "C"
K_KIND = "K"


@dataclass(frozen=True)
class FrameComponent:
    label: int  # 1..s
    kind: str  # C_KIND or K_KIND
    vertices: tuple[Vertex, ...]
    edge_ids: tuple[EdgeId, ...]
    classification: Classification
    piece: Multigraph = field(compare=False, repr=False)  # the component as a subgraph


@dataclass(frozen=True)
class Frame:
    """A frame built and checked by validate_frame.  Later layers read its
    components and what the properties below derive from them."""

    host: Multigraph
    frame_edges: frozenset
    components: tuple[FrameComponent, ...]

    @property
    def s(self) -> int:
        return len(self.components)

    @cached_property
    def label_of(self) -> dict:
        """Host vertex -> label of the component that holds it."""
        return {v: comp.label for comp in self.components for v in comp.vertices}

    @cached_property
    def chords(self) -> frozenset:
        """Non-frame edges with both ends in one component."""
        label_of = self.label_of
        return frozenset(
            eid
            for eid, a, b in self.host.edges()
            if eid not in self.frame_edges and label_of[a] == label_of[b]
        )

    def free_edges(self) -> list[EdgeId]:
        """Host edges outside the frame and outside the chord set."""
        return [
            eid
            for eid in sorted_edge_ids(self.host.edge_ids)
            if eid not in self.frame_edges and eid not in self.chords
        ]

    def k_labels(self) -> list[int]:
        return [c.label for c in self.components if c.kind == K_KIND]


@dataclass(frozen=True)
class PerfectColoring:
    """Total coloring of a frame: every frame edge and every 2-valent frame
    vertex carries a color in {1,2,3}; 3-valent vertices are uncolored."""

    vertex_color: dict
    edge_color: dict


@dataclass(frozen=True)
class ContractedFrame:
    """One vertex per frame component (named by its label); edges are the
    host edges joining different components, keeping their ids."""

    graph: Multigraph
    vertex_kind: dict  # label -> C_KIND | K_KIND
    vertex_map: VertexMap  # host vertex -> label


@dataclass(frozen=True)
class ColoredContraction:
    contracted: ContractedFrame
    edge_color: dict  # partial: host edge id -> color


@dataclass(frozen=True)
class Witness:
    """A color and a monochromatic connected piece of the colored
    contraction containing every K-vertex: the whole piece of that color
    when there is a K-vertex, and one vertex, with color 1, when there is
    none."""

    color: int
    h_labels: frozenset


def validate_frame(
    g: Multigraph,
    frame_edges: Iterable[EdgeId],
    labeling: Sequence[Iterable[Vertex]] | None = None,
) -> Frame:
    """Check an edge set against the frame definition and classify it.

    The host must be cubic, and every edge id one of its own, type and
    all (see Multigraph.has_edge).
    """
    if not g.is_cubic():
        raise NotCubicError("frame host must be 3-regular")
    frame_edges = tuple(frame_edges)
    for eid in frame_edges:
        if not g.has_edge(eid):
            raise GraphFormatError(f"unknown edge id {eid!r}")
    frame_edges = frozenset(frame_edges)

    sub = g.subgraph_of_edges(frame_edges, keep_vertices=g.vertices)
    comps = components(sub)
    covered = {v for comp in comps for v in comp}
    if covered != set(g.vertices):
        raise FrameError("frame must span every vertex")

    if labeling is not None:
        wanted = [frozenset(part) for part in labeling]
        actual = {frozenset(c) for c in comps}
        if set(wanted) != actual or len(wanted) != len(comps):
            raise FrameError("labeling does not match the frame components")
        comps = [sorted(part, key=lambda v: (str(type(v)), repr(v))) for part in wanted]

    position = {v: pos for pos, comp in enumerate(comps) for v in comp}
    eids_of: list[list[EdgeId]] = [[] for _ in comps]
    for eid in sorted_edge_ids(frame_edges):
        eids_of[position[g.endpoints(eid)[0]]].append(eid)

    out: list[FrameComponent] = []
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
        out.append(
            FrameComponent(
                label=idx,
                kind=C_KIND if cls.kind == CYCLE else K_KIND,
                vertices=tuple(comp_vertices),
                edge_ids=tuple(comp_eids),
                classification=cls,
                piece=piece,
            )
        )

    frame = Frame(host=g, frame_edges=frame_edges, components=tuple(out))
    # host is cubic, so every 2-valent frame vertex has exactly one free edge
    for v in g.vertices:
        frame_deg = sum(
            2 if g.is_loop(e) else 1 for e in g.incident_edges(v) if e in frame_edges
        )
        if frame_deg not in (2, 3):
            raise FrameError(f"vertex {v!r} has frame degree {frame_deg}")
    return frame


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
    kinds = {c.label: c.kind for c in f.components}
    return ContractedFrame(graph=graph, vertex_kind=kinds, vertex_map=VertexMap(label_of))


def is_perfect_coloring(f: Frame, coloring: PerfectColoring) -> bool:
    """Frame-level perfect coloring test: each K-component lifts a Kotzig
    coloring of its base, each C-component is monochromatic."""
    for comp in f.components:
        if not is_perfect_component_coloring(
            comp.piece, comp.classification, coloring.vertex_color, coloring.edge_color
        ):
            return False
    return True


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


def well_connected_witness(f: Frame, coloring: PerfectColoring) -> Witness | None:
    """The first color (1, 2, 3) whose edge class joins all K-vertices into
    one connected piece, together with that whole piece.

    With one K-vertex color 1 always works.  With no K-vertex the test is
    trivially satisfied: the witness is color 1 with the one-vertex piece
    of the least label, not the maximal piece.
    """
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


def _component_order_for_search(f: Frame) -> list[FrameComponent]:
    return sorted(
        f.components,
        key=lambda c: (0 if c.kind == K_KIND else 1, -len(c.vertices), c.label),
    )


def assemble_coloring(fragments: dict[int, tuple[dict, dict]]) -> PerfectColoring:
    vertex_color: dict = {}
    edge_color: dict = {}
    for vc, ec in fragments.values():
        vertex_color.update(vc)
        edge_color.update(ec)
    return PerfectColoring(vertex_color=vertex_color, edge_color=edge_color)


def enumerate_frame_colorings(f: Frame) -> Iterator[PerfectColoring]:
    """Product of per-component perfect colorings, with the first searched
    component pinned up to global color permutation."""
    order = _component_order_for_search(f)
    choice_lists = []
    for pos, comp in enumerate(order):
        frags = list(
            enumerate_perfect_colorings(
                comp.piece, comp.classification, representatives=(pos == 0)
            )
        )
        choice_lists.append((comp.label, frags))
    labels = [label for label, _ in choice_lists]
    for combo in itertools.product(*(frags for _, frags in choice_lists)):
        yield assemble_coloring(dict(zip(labels, combo)))


def find_well_connected_frame_coloring(f: Frame) -> tuple[PerfectColoring, Witness] | None:
    """First perfect coloring whose contraction is well connected.

    Frames with at most one K-component always succeed, so the first
    enumerated coloring is returned for them.
    """
    for coloring in enumerate_frame_colorings(f):
        witness = well_connected_witness(f, coloring)
        if witness is not None:
            return coloring, witness
    return None


# -- sufficient conditions on the contraction --------------------------------


@dataclass(frozen=True)
class FrameSufficiency:
    """Three independently checkable conditions on the contracted frame,
    each of which guarantees a well-connected coloring exists."""

    k_independent_rest_connected: bool
    k_near_c_rest_connected: bool
    c_backbone_dominates_k: bool


def check_frame_sufficiency(cf: ContractedFrame) -> FrameSufficiency:
    g = cf.graph
    k_set = {v for v in g.vertices if cf.vertex_kind[v] == K_KIND}
    c_set = {v for v in g.vertices if cf.vertex_kind[v] == C_KIND}

    k_independent = not any(
        not g.is_loop(e) and all(x in k_set for x in g.endpoints(e)) for e in g.edge_ids
    )
    rest_edges = [
        e
        for e in g.edge_ids
        if all(x not in k_set for x in g.endpoints(e))
    ]
    rest = g.subgraph_of_edges(rest_edges, keep_vertices=[v for v in g.vertices if v not in k_set])
    rest_connected = len(components(rest)) <= 1

    every_k_near_c = all(
        any(cf.vertex_kind[g.other_end(e, k)] == C_KIND for e in g.incident_edges(k) if not g.is_loop(e))
        for k in k_set
    )

    c_sub = g.subgraph_of_edges(
        [e for e in g.edge_ids if all(x in c_set for x in g.endpoints(e))],
        keep_vertices=sorted(c_set, key=repr),
    )
    backbone = False
    if not k_set:
        backbone = True
    else:
        for comp in components(c_sub):
            comp_set = set(comp)
            neighborhood = set()
            for v in comp_set:
                for e in g.incident_edges(v):
                    neighborhood.add(g.other_end(e, v))
            if k_set <= neighborhood:
                backbone = True
                break

    return FrameSufficiency(
        k_independent_rest_connected=k_independent and rest_connected,
        k_near_c_rest_connected=every_k_near_c and rest_connected,
        c_backbone_dominates_k=backbone,
    )


# -- frame search -------------------------------------------------------------


TAIT_SEARCH_BUDGET = 100_000  # edges tried in M before the first factor


def even_two_factors(g: Multigraph) -> Iterator[frozenset]:
    """Every 2-factor of a cubic graph whose cycles are all even, each
    once, in an order fixed for each input.

    Such a factor is the complement of a perfect matching M, and M with the
    two alternating classes of the factor is a Tait colouring.  M is chosen
    one vertex at a time, at the first vertex (in breadth-first order) with
    the fewest edges left to choose from, and each choice is propagated:

    - a vertex with an edge in M forces its other two edges out of M;
    - a vertex with two edges out of M forces its third edge into M;
    - the edges out of M form paths whose ends and length parity are kept,
      so a path that closes into an odd cycle is cut off at once.

    Proving that no even 2-factor exists is exponential: on Isaacs' flower
    snarks the branches grow about fourfold per two more petals.  So the
    search raises OracleLimitError once it has tried TAIT_SEARCH_BUDGET
    edges in M without finding a factor (Petersen needs 9, the flower snark
    J15 about 71,000, the first factor of a random cubic graph on 40
    vertices a few dozen).  Once a factor is found, the rest are
    enumerated without a limit.
    """
    if g.has_loops():
        return  # a loop outside M is a cycle of length one
    order = list(_rooted_forest(g)[0])  # keys in breadth-first order
    idx = {v: i for i, v in enumerate(order)}
    eids = sorted_edge_ids(g.edge_ids)
    ends = [tuple(idx[v] for v in g.endpoints(e)) for e in eids]
    at: list[list[int]] = [[] for _ in order]
    for k, (a, b) in enumerate(ends):
        at[a].append(k)
        at[b].append(k)

    in_m: list = [None] * len(eids)  # True in M, False in the factor
    matched = [False] * len(order)
    out_deg = [0] * len(order)  # factor edges at a vertex
    path_end = list(range(len(order)))  # the other end of a factor path
    odd_path = [False] * len(order)  # parity of that path's length
    trail: list = []  # (array, index, old value), undone on backtrack

    def put(arr, i, value):
        trail.append((arr, i, arr[i]))
        arr[i] = value

    def decide(k0: int, into_m: bool) -> bool:
        """Set one edge and everything it forces; False on a conflict."""
        queue = [(k0, into_m)]
        while queue:
            k, into_m = queue.pop()
            if in_m[k] is not None:
                if in_m[k] != into_m:
                    return False
                continue
            put(in_m, k, into_m)
            a, b = ends[k]
            if into_m:
                for v in (a, b):
                    if matched[v]:
                        return False
                    put(matched, v, True)
                    queue.extend((j, False) for j in at[v] if in_m[j] is None)
                continue
            for v in (a, b):
                if out_deg[v] == 2:
                    return False
                put(out_deg, v, out_deg[v] + 1)
                if out_deg[v] == 2 and not matched[v]:
                    queue.extend((j, True) for j in at[v] if in_m[j] is None)
            end_a, end_b = path_end[a], path_end[b]
            if end_a == b:  # a and b end one path, and edge k closes it
                if not odd_path[a]:
                    return False
            else:
                parity = not (odd_path[a] ^ odd_path[b])
                put(path_end, end_a, end_b)
                put(path_end, end_b, end_a)
                put(odd_path, end_a, parity)
                put(odd_path, end_b, parity)
        return True

    def choices() -> list[int] | None:
        """The undecided edges at the vertex to branch on, or None when
        every edge is decided."""
        first = None
        for v, edges in enumerate(at):
            if matched[v]:
                continue
            free = [k for k in edges if in_m[k] is None]
            if len(free) < 3:
                return free
            if first is None:
                first = free
        return first

    # each frame: [edges to try in M, next one to try, trail length at entry]
    stack = [[choices(), 0, 0]]
    branches = 0  # edges tried in M while no factor has been found
    while stack:
        top = stack[-1]
        options, i, mark = top
        while len(trail) > mark:
            arr, j, old = trail.pop()
            arr[j] = old
        if options is None:
            branches = None
            yield frozenset(eids[k] for k, m in enumerate(in_m) if not m)
            stack.pop()
        elif i == len(options):
            stack.pop()
        else:
            top[1] = i + 1
            if branches is not None:
                branches += 1
                if branches > TAIT_SEARCH_BUDGET:
                    raise OracleLimitError(
                        f"even 2-factor search gave up after {TAIT_SEARCH_BUDGET} branches "
                        "without finding one"
                    )
            if decide(options[i], True):
                stack.append([choices(), 0, len(trail)])


def _degree_constrained_subsets(g: Multigraph) -> Iterator[frozenset]:
    """Edge subsets in which every vertex keeps degree 2 or 3."""
    eids = sorted_edge_ids(g.edge_ids)
    n = len(eids)
    chosen_deg = {v: 0 for v in g.vertices}
    remaining_deg = {v: g.degree(v) for v in g.vertices}
    picked: list = []

    def incident_count(eid, v):
        a, b = g.endpoints(eid)
        if a == b:
            return 2 if v == a else 0
        return 1 if v in (a, b) else 0

    def feasible() -> bool:
        return all(
            chosen_deg[v] <= 3 and chosen_deg[v] + remaining_deg[v] >= 2
            for v in g.vertices
        )

    def rec(idx: int) -> Iterator[frozenset]:
        if idx == n:
            if all(chosen_deg[v] in (2, 3) for v in g.vertices):
                yield frozenset(picked)
            return
        eid = eids[idx]
        a, b = g.endpoints(eid)
        touched = (a,) if a == b else (a, b)
        # include first: larger frames surface earlier
        for take in (True, False):
            for v in touched:
                remaining_deg[v] -= incident_count(eid, v)
                if take:
                    chosen_deg[v] += incident_count(eid, v)
            if take:
                picked.append(eid)
            if feasible():
                yield from rec(idx + 1)
            if take:
                picked.pop()
            for v in touched:
                remaining_deg[v] += incident_count(eid, v)
                if take:
                    chosen_deg[v] -= incident_count(eid, v)

    yield from rec(0)


EXHAUSTIVE_MAX_EDGES = 24  # the exhaustive search walks up to 2^E edge subsets


def search_frames(
    g: Multigraph,
    strategy: str = "two_factor",
    frame_edges: Iterable[EdgeId] | None = None,
) -> Iterator[Frame]:
    """Enumerate valid frames of a cubic graph.

    two_factor: the even 2-factors, within the search budget of
    even_two_factors (OracleLimitError past it).  exhaustive: all spanning
    edge subsets with degrees in {2,3} that classify, on hosts of at most
    EXHAUSTIVE_MAX_EDGES edges.
    user_supplied: validate frame_edges.

    Both searches check the host once.  A host with a bridge yields no
    frame: every frame component is 2-edge-connected (cycles, and
    subdivisions of hamiltonian Kotzig graphs), so no component holds the
    bridge, yet each side of a bridge of a cubic graph has odd order and
    the components have even order.
    """
    if strategy == "user_supplied":
        if frame_edges is None:
            raise ValueError("user_supplied strategy needs frame_edges")
        yield validate_frame(g, frame_edges)
        return
    if strategy not in ("two_factor", "exhaustive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not g.is_cubic():
        raise NotCubicError("frame host must be 3-regular")
    if bridges(g):
        return
    if strategy == "two_factor":
        # every even 2-factor is a frame whose components are all C
        for factor in even_two_factors(g):
            yield validate_frame(g, factor)
        return
    if g.num_edges() > EXHAUSTIVE_MAX_EDGES:
        raise OracleLimitError(
            f"exhaustive frame search refused: {g.num_edges()} edges > {EXHAUSTIVE_MAX_EDGES}"
        )
    for subset in _degree_constrained_subsets(g):
        try:
            yield validate_frame(g, subset)
        except FrameError:
            continue


# -- serialization -------------------------------------------------------------


def frame_to_json(f: Frame) -> dict:
    return {
        "frame_edges": sorted_edge_ids(f.frame_edges),
        "components": [
            {"kind": c.kind, "vertices": list(c.vertices), "label": c.label}
            for c in f.components
        ],
        "chords": sorted_edge_ids(f.chords),
    }


def frame_from_json(g: Multigraph, obj: dict) -> Frame:
    labeling = [comp["vertices"] for comp in sorted(obj["components"], key=lambda c: c["label"])]
    frame = validate_frame(g, obj["frame_edges"], labeling=labeling)
    if sorted_edge_ids(frame.chords) != sorted_edge_ids(obj.get("chords", frame.chords)):
        raise FrameError("chord set in file does not match the recomputed chords")
    return frame
