"""Kotzig colorings and the classification of frame components.

A Kotzig coloring of a cubic graph is a proper 3-edge-coloring in which the
union of any two color classes is a single hamiltonian cycle.  The search
works on loopless cubic multigraphs (the theta graph is the smallest
example).  Frame components are classified as even cycles, subdivisions of
Kotzig graphs, or neither.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import NotCubicError
from .multigraph import (
    EdgeId,
    Multigraph,
    Vertex,
    sorted_edge_ids,
    sorted_vertices,
)

COLORS = (1, 2, 3)

# An EdgeColoring3 is a plain dict edge-id -> color in {1,2,3}, total on the
# edge set of its graph.
EdgeColoring3 = dict


def _check_cubic(k: Multigraph) -> None:
    if not k.is_cubic():
        raise NotCubicError("expected a 3-regular graph")


def is_proper_3_edge_coloring(k: Multigraph, coloring: dict) -> bool:
    for v in k.vertices:
        seen = []
        for eid in k.incident_edges(v):
            if k.is_loop(eid):
                return False  # a loop repeats its color at v
            seen.append(coloring[eid])
        if len(set(seen)) != len(seen):
            return False
    return True


def _bicolored_walk(k: Multigraph, coloring: dict, pair, cur: Vertex, prev: EdgeId = None) -> Iterator[Vertex]:
    """The vertices met walking from cur along the edges colored in pair,
    never back along the edge just taken (at first, prev); it stops where
    no edge is left, and goes round a cycle for ever."""
    while True:
        step = next((e for e in k.incident_edges(cur) if e != prev and coloring.get(e) in pair), None)
        if step is None:
            return
        cur, prev = k.other_end(step, cur), step
        yield cur


def _bicolored_is_hamiltonian(k: Multigraph, coloring: dict, pair: tuple[int, int]) -> bool:
    """For a proper coloring: whether the two color classes of pair form
    one hamiltonian cycle, that is whether the walk along them from the
    first vertex first comes back after n steps."""
    n = k.num_vertices()
    start = k.vertices[0] if n else None
    for steps, v in enumerate(itertools.islice(_bicolored_walk(k, coloring, pair, start), n), 1):
        if v == start:
            return steps == n
    return False


def is_kotzig_coloring(k: Multigraph, coloring: dict) -> bool:
    """True iff coloring is proper and every bicolored union is one
    hamiltonian cycle."""
    _check_cubic(k)
    if set(coloring) != set(k.edge_ids):
        return False
    if not is_proper_3_edge_coloring(k, coloring):
        return False
    return all(
        _bicolored_is_hamiltonian(k, coloring, pair)
        for pair in ((1, 2), (1, 3), (2, 3))
    )


def _bfs_edge_order(k: Multigraph) -> list[EdgeId]:
    order: list[EdgeId] = []
    seen_e: set[EdgeId] = set()
    seen_v: set[Vertex] = set()
    for start in sorted_vertices(k):
        if start in seen_v:
            continue
        queue = [start]
        seen_v.add(start)
        for v in queue:  # read front to back as it grows
            for eid in sorted_edge_ids(k.incident_edges(v)):
                if eid not in seen_e:
                    seen_e.add(eid)
                    order.append(eid)
                w = k.other_end(eid, v)
                if w not in seen_v:
                    seen_v.add(w)
                    queue.append(w)
    return order


def _closes_short_bicolored_cycle(
    k: Multigraph, coloring: dict, eid: EdgeId, color: int
) -> bool:
    """Would assigning `color` to `eid` close a non-hamiltonian bicolored cycle?

    In a partial proper coloring every vertex has at most one edge of each
    color, so each bicolored subgraph is a union of paths and cycles.  A
    cycle that closes now can never grow later, so unless it already spans
    all vertices the branch is dead.
    """
    u, v = k.endpoints(eid)
    n = k.num_vertices()
    # the walk from u reaches v within n - 2 steps: a cycle of under n edges
    return any(
        v in itertools.islice(_bicolored_walk(k, coloring, (color, other), u, eid), n - 2)
        for other in COLORS
        if other != color
    )


def _kotzig_search(k: Multigraph) -> Iterator[dict]:
    """Backtracking enumeration of Kotzig colorings in BFS edge order, one
    per orbit of the global color permutations: the edges at the smallest
    vertex are pinned to colors 1, 2, 3 in edge-id order."""
    _check_cubic(k)
    if k.has_loops():
        return
    order = _bfs_edge_order(k)
    coloring: dict = {}
    used_at: dict[Vertex, set[int]] = {v: set() for v in k.vertices}

    forced: dict[EdgeId, int] = {}
    if k.num_vertices() > 0:
        v0 = sorted_vertices(k)[0]
        for color, eid in zip(COLORS, sorted_edge_ids(k.incident_edges(v0))):
            forced[eid] = color

    def extend(idx: int) -> Iterator[dict]:
        if idx == len(order):
            result = dict(coloring)
            if is_kotzig_coloring(k, result):
                yield result
            return
        eid = order[idx]
        a, b = k.endpoints(eid)
        choices = (forced[eid],) if eid in forced else COLORS
        for color in choices:
            if color in used_at[a] or color in used_at[b]:
                continue
            if _closes_short_bicolored_cycle(k, coloring, eid, color):
                continue
            coloring[eid] = color
            used_at[a].add(color)
            used_at[b].add(color)
            yield from extend(idx + 1)
            del coloring[eid]
            used_at[a].remove(color)
            used_at[b].remove(color)

    yield from extend(0)


def find_kotzig_coloring(k: Multigraph) -> dict | None:
    """Some Kotzig coloring of k, or None.  Deterministic."""
    for coloring in _kotzig_search(k):
        return coloring
    return None


def enumerate_kotzig_colorings(k: Multigraph, representatives: bool = False) -> Iterator[dict]:
    """All Kotzig colorings of k.

    With representatives=True, one coloring per orbit of the 6 global color
    permutations (the edge colors at the smallest vertex are pinned to
    1, 2, 3 in edge-id order).
    """
    if representatives:
        yield from _kotzig_search(k)
        return
    for rep in _kotzig_search(k):
        for perm in sorted(itertools.permutations(COLORS)):
            relabel = dict(zip(COLORS, perm))
            yield {e: relabel[c] for e, c in rep.items()}


# -- component classification ------------------------------------------------

CYCLE = "cycle"
KOTZIG_SUBDIVISION = "kotzig_subdivision"
NEITHER = "neither"


@dataclass(frozen=True)
class Classification:
    """Result of classifying one connected spanning-subgraph component."""

    kind: str
    base: Multigraph | None = None
    path_map: dict | None = None  # base edge id -> tuple of component edge ids


CYCLE_CLASSIFICATION = Classification(kind=CYCLE)  # the one every cycle shares


def classify_component(h: Multigraph) -> Classification:
    """Classify a connected graph as a cycle, a Kotzig-graph subdivision, or
    neither.

    A graph that is itself cubic counts as a degenerate subdivision with all
    paths of length 1.
    """
    from .multigraph import suppress_degree2  # local to keep import graph flat
    from .errors import GraphFormatError

    degs = [h.degree(v) for v in h.vertices]
    if degs and all(d == 2 for d in degs):
        return CYCLE_CLASSIFICATION
    if not all(d in (2, 3) for d in degs):
        return Classification(kind=NEITHER)
    try:
        base, path_map = suppress_degree2(h)
    except GraphFormatError:
        return Classification(kind=NEITHER)
    if base.has_loops():
        return Classification(kind=NEITHER)
    if find_kotzig_coloring(base) is None:
        return Classification(kind=NEITHER)
    return Classification(kind=KOTZIG_SUBDIVISION, base=base, path_map=path_map)


# -- perfect colorings of a single component ---------------------------------


def lift_base_coloring(
    h: Multigraph, cls: Classification, base_coloring: dict
) -> tuple[dict, dict]:
    """Lift a Kotzig coloring of the base along the subdivision paths.

    Returns (vertex_color, edge_color) for the component: every path edge
    inherits its base edge's color and every 2-valent vertex the color of
    its incident edges.  3-valent vertices stay uncolored.
    """
    edge_color: dict = {}
    for base_eid, path in cls.path_map.items():
        for eid in path:
            edge_color[eid] = base_coloring[base_eid]
    vertex_color = {
        v: edge_color[h.incident_edges(v)[0]]
        for v in h.vertices
        if h.degree(v) == 2
    }
    return vertex_color, edge_color


def enumerate_perfect_colorings(
    h: Multigraph, cls: Classification, representatives: bool = False
) -> Iterator[tuple[dict, dict]]:
    """All perfect-coloring fragments (vertex_color, edge_color) of one
    component.

    Cycles contribute the 3 monochromatic colorings; Kotzig subdivisions one
    lift per Kotzig coloring of the base.
    """
    if cls.kind == CYCLE:
        colors = (1,) if representatives else COLORS
        for c in colors:
            yield ({v: c for v in h.vertices}, {e: c for e in h.edge_ids})
    elif cls.kind == KOTZIG_SUBDIVISION:
        for base_coloring in enumerate_kotzig_colorings(cls.base, representatives=representatives):
            yield lift_base_coloring(h, cls, base_coloring)
    else:
        raise ValueError("component is neither a cycle nor a Kotzig subdivision")


def is_perfect_component_coloring(
    h: Multigraph, cls: Classification, vertex_color: dict, edge_color: dict
) -> bool:
    """Check one component's coloring fragment.

    For cycles: monochromatic in vertices and edges.  For subdivisions:
    edges sharing a 2-valent vertex agree, each 2-valent vertex matches its
    edges, and the induced base coloring is Kotzig.
    """
    if any(eid not in edge_color for eid in h.edge_ids):
        return False
    two_valent = [v for v in h.vertices if h.degree(v) == 2]
    if any(v not in vertex_color for v in two_valent):
        return False
    if cls.kind == CYCLE:
        values = {edge_color[e] for e in h.edge_ids} | {vertex_color[v] for v in h.vertices}
        return len(values) == 1
    if cls.kind != KOTZIG_SUBDIVISION:
        return False
    for v in two_valent:
        colors_here = {edge_color[e] for e in h.incident_edges(v)}
        if len(colors_here) != 1 or vertex_color[v] not in colors_here:
            return False
    induced = {}
    for base_eid, path in cls.path_map.items():
        path_colors = {edge_color[e] for e in path}
        if len(path_colors) != 1:
            return False
        induced[base_eid] = path_colors.pop()
    return is_kotzig_coloring(cls.base, induced)
