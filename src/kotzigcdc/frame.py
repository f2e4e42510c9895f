"""Kotzig frames: validation, perfect colorings, witnesses and search.

A frame of a cubic graph is a spanning subgraph whose components are even
cycles ("C") or even subdivisions of Kotzig graphs ("K").  A component is a
cycle when every vertex in it has frame degree 2; a cycle carries no
subgraph and is read from its vertex and edge tuples, and only K-components
are built as subgraphs and classified.  Chords are the non-frame edges that
stay inside one component; the other non-frame edges are free.
Contracting every component to its label leaves the free edges as an
eulerian multigraph.  Under a perfect coloring that contraction is
the row graph (rowgraph.build_row_graph): each free edge sits at (color,
label) at both ends, and the edges of color class c are those inside row
c.  The well-connected witness is read off its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .errors import FrameError, GraphFormatError, NotCubicError, OracleLimitError
from .kotzig import (
    COLORS,
    CYCLE_CLASSIFICATION,
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
    _rooted_forest,
    bridges,
    sorted_edge_ids,
    sorted_vertices,
)
from .rowgraph import build_row_graph, row_components

C_KIND = "C"
K_KIND = "K"


@dataclass(frozen=True)
class FrameComponent:
    """One component of a frame.  A cycle (every vertex of frame degree 2)
    has the shared CYCLE_CLASSIFICATION and no piece; a K-component has its
    Kotzig classification and its subgraph as piece."""

    label: int  # 1..s
    kind: str  # C_KIND or K_KIND
    vertices: tuple[Vertex, ...]
    edge_ids: tuple[EdgeId, ...]
    classification: Classification
    piece: Multigraph | None = field(default=None, compare=False, repr=False)


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

    @cached_property
    def free_edges(self) -> tuple[EdgeId, ...]:
        """Host edges outside the frame and outside the chord set, in the
        order sorted_edge_ids gives the host's edge ids."""
        frame_edges, chords = self.frame_edges, self.chords
        return tuple(
            eid
            for eid in sorted_edge_ids(self.host.edge_ids)
            if eid not in frame_edges and eid not in chords
        )

    def k_labels(self) -> list[int]:
        return [c.label for c in self.components if c.kind == K_KIND]


@dataclass(frozen=True)
class PerfectColoring:
    """Total coloring of a frame: every frame edge and every 2-valent frame
    vertex carries a color in {1,2,3}; 3-valent vertices are uncolored."""

    vertex_color: dict
    edge_color: dict


@dataclass(frozen=True)
class Witness:
    """A color c and the labels of a connected piece of row c of the row
    graph containing every K-vertex: the whole piece when there is a
    K-vertex, and one vertex, with color 1, when there is none."""

    color: int
    h_labels: frozenset


def validate_frame(g: Multigraph, frame_edges: Iterable[EdgeId]) -> Frame:
    """Check an edge set against the frame definition and classify it.

    The host must be cubic, and every edge id one of its own, type and
    all (see Multigraph.has_edge).  One pass over the frame edges gives
    every vertex its frame neighbours, so its frame degree (a loop counts
    2); the components are read off those lists, ordered by least vertex
    (sorted_vertices), each listing its vertices by (type name, repr).
    A component whose vertices all have frame degree 2 is connected and
    2-regular, so a cycle, and is not built as a subgraph; the others are
    built and classified.
    """
    if not g.is_cubic():
        raise NotCubicError("frame host must be 3-regular")
    frame_edges = tuple(frame_edges)
    for eid in frame_edges:
        if not g.has_edge(eid):
            raise GraphFormatError(f"unknown edge id {eid!r}")
    frame_edges = frozenset(frame_edges)

    near: dict = {v: [] for v in g.vertices}  # vertex -> frame neighbours
    for eid in frame_edges:
        a, b = g.endpoints(eid)
        near[a].append(b)
        near[b].append(a)
    position: dict = {}  # vertex -> index of its component
    comps: list[list[Vertex]] = []
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

    eids_of: list[list[EdgeId]] = [[] for _ in comps]
    for eid in sorted_edge_ids(frame_edges):
        eids_of[position[g.endpoints(eid)[0]]].append(eid)

    out: list[FrameComponent] = []
    for idx, (comp_vertices, comp_eids) in enumerate(zip(comps, eids_of), start=1):
        if len(comp_vertices) % 2 != 0:
            raise FrameError(
                f"component {sorted(map(repr, comp_vertices))} has odd order {len(comp_vertices)}"
            )
        vertices, eids = tuple(comp_vertices), tuple(comp_eids)
        if all(len(near[v]) == 2 for v in vertices):
            out.append(FrameComponent(idx, C_KIND, vertices, eids, CYCLE_CLASSIFICATION))
            continue
        piece = g.subgraph_of_edges(eids, keep_vertices=vertices)
        cls = classify_component(piece)
        if cls.kind != KOTZIG_SUBDIVISION:
            raise FrameError(
                f"component {sorted(map(repr, comp_vertices))} is neither a cycle "
                "nor a Kotzig subdivision"
            )
        out.append(FrameComponent(idx, K_KIND, vertices, eids, cls, piece))

    # host is cubic, so every 2-valent frame vertex has exactly one free edge
    for v in g.vertices:
        if len(near[v]) not in (2, 3):
            raise FrameError(f"vertex {v!r} has frame degree {len(near[v])}")
    return Frame(host=g, frame_edges=frame_edges, components=tuple(out))


def is_perfect_coloring(f: Frame, coloring: PerfectColoring) -> bool:
    """Frame-level perfect coloring test: each K-component lifts a Kotzig
    coloring of its base, each C-component is monochromatic."""
    vertex_color, edge_color = coloring.vertex_color, coloring.edge_color
    for comp in f.components:
        if comp.piece is not None:
            if not is_perfect_component_coloring(comp.piece, comp.classification, vertex_color, edge_color):
                return False
            continue
        try:  # a cycle: one color on all its vertices and edges
            colors = {edge_color[e] for e in comp.edge_ids} | {vertex_color[v] for v in comp.vertices}
        except KeyError:
            return False
        if len(colors) != 1:
            return False
    return True


def well_connected_witness(f: Frame, coloring: PerfectColoring) -> Witness | None:
    """The first color (1, 2, 3) whose edge class joins all K-vertices into
    one connected piece, together with that whole piece.

    The pieces of color c are the components of row c of the row graph
    (see build_row_graph).  With one K-vertex color 1 always works.  With
    no K-vertex the test is trivially satisfied: the witness is color 1
    with the one-vertex piece of the least label, not the maximal piece.
    """
    k_labels = f.k_labels()
    if len(k_labels) == 0:
        anchor = min(c.label for c in f.components)
        return Witness(color=1, h_labels=frozenset([anchor]))
    if not is_perfect_coloring(f, coloring):
        raise FrameError("coloring is not perfect for this frame")
    pieces = row_components(build_row_graph(f.host, f, coloring))
    for color in (1, 2, 3):
        for piece in pieces:
            if piece[0][0] == color:
                labels = frozenset(j for _, j in piece)
                if labels.issuperset(k_labels):
                    return Witness(color=color, h_labels=labels)
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


def _component_colorings(host: Multigraph, comp: FrameComponent, representatives: bool) -> Iterator:
    """A component's perfect-coloring fragments (vertex_color, edge_color),
    as enumerate_perfect_colorings gives them for its subgraph: a cycle's
    vertices in host order and its edges in edge_ids order."""
    if comp.piece is not None:
        yield from enumerate_perfect_colorings(comp.piece, comp.classification, representatives)
        return
    vertices = host.in_host_order(comp.vertices)
    for c in (1,) if representatives else COLORS:
        yield dict.fromkeys(vertices, c), dict.fromkeys(comp.edge_ids, c)


def enumerate_frame_colorings(f: Frame) -> Iterator[PerfectColoring]:
    """Product of per-component perfect colorings, with the first searched
    component pinned up to global color permutation, in the order of
    itertools.product.  Each component's colorings are drawn only as far
    as the product has reached, so the first coloring costs the first
    fragment of each component."""
    order = _component_order_for_search(f)
    labels = [comp.label for comp in order]
    streams = [
        _component_colorings(f.host, comp, representatives=(pos == 0))
        for pos, comp in enumerate(order)
    ]
    drawn: list[list] = [[] for _ in order]
    pick = [0] * len(order)  # an odometer over drawn, the last digit fastest
    k = 0
    while True:
        if k == len(order):
            yield assemble_coloring({label: drawn[j][pick[j]] for j, label in enumerate(labels)})
            k -= 1
            if k < 0:
                return
            pick[k] += 1
        elif pick[k] < len(drawn[k]):
            k += 1
        else:
            frag = next(streams[k], None)
            if frag is not None:
                drawn[k].append(frag)
            elif k == 0 or pick[k] == 0:
                return
            else:
                pick[k] = 0
                k -= 1
                pick[k] += 1


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
    """Edge subsets in which every vertex keeps degree 2 or 3.  Each edge,
    in sorted order, is taken first and then left out, so larger frames
    surface earlier; a branch stops once some vertex has more than 3 edges
    taken or can no longer reach 2."""
    eids = sorted_edge_ids(g.edge_ids)
    chosen_deg = {v: 0 for v in g.vertices}
    remaining_deg = {v: g.degree(v) for v in g.vertices}
    picked: list = []

    def rec(idx: int) -> Iterator[frozenset]:
        if idx == len(eids):
            if all(chosen_deg[v] in (2, 3) for v in g.vertices):
                yield frozenset(picked)
            return
        ends = g.endpoints(eids[idx])  # a loop names its vertex twice: it counts 2
        for take in (True, False):
            for v in ends:
                remaining_deg[v] -= 1
                chosen_deg[v] += take
            if take:
                picked.append(eids[idx])
            if all(chosen_deg[v] <= 3 and chosen_deg[v] + remaining_deg[v] >= 2 for v in g.vertices):
                yield from rec(idx + 1)
            if take:
                picked.pop()
            for v in ends:
                remaining_deg[v] += 1
                chosen_deg[v] -= take

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
    the components have even order.  A host with no vertex is refused.
    """
    if not g.vertices:
        raise GraphFormatError("the graph has no vertices")
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
