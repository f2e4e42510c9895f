"""Red/blue edge switching and acyclic t-joins.

A switch at a vertex flips the color of every non-loop edge at that vertex.
Switching at the vertices with x = 1 turns every edge blue exactly when
x[u] ^ x[v] = [edge is red] on every edge, so one parity walk per
component decides it: a red loop, or a cycle with an odd number of red
edges, is a conflict.
"""

from __future__ import annotations

from typing import Iterable

from .errors import HypothesisError
from .multigraph import (
    EdgeId,
    Multigraph,
    Vertex,
    components,
    sorted_vertices,
    _rooted_forest,
    _sort_key,
)
from .rowgraph import RowGraph, row_contract

RED = "red"
BLUE = "blue"

# A TwoColoring is a plain dict edge-id -> RED | BLUE, total on the edge set.


def _switch_sides(g: Multigraph, red: set) -> dict[Vertex, int] | None:
    """x with x[u] ^ x[v] = [eid in red] on every edge eid = uv, and x = 0 at
    each component's least vertex by (type name, repr); None on a conflict."""
    x: dict[Vertex, int] = {}
    for start in sorted(g.vertices, key=_sort_key):
        if start in x:
            continue
        x[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for eid in g.incident_edges(v):
                w = g.other_end(eid, v)
                side = x[v] ^ (eid in red)
                if w not in x:
                    x[w] = side
                    stack.append(w)
                elif x[w] != side:
                    return None
    return x


def switchable_to_blue(g: Multigraph, coloring: dict) -> list[Vertex] | None:
    """A switch set turning every edge blue, in sorted_vertices order, or
    None.  Each component's least vertex by (type name, repr) is left
    unswitched."""
    x = _switch_sides(g, {e for e in g.edge_ids if coloring[e] == RED})
    return None if x is None else [v for v in sorted_vertices(g) if x[v]]


def resolve_two_row(r2: RowGraph) -> set[int]:
    """Columns to row-swap so that a 2-row graph loses all cross-row edges.

    Switches the column contraction with the cross edges red; requires the
    contraction to be a forest, in which case a solution always exists.
    """
    if r2.rows != 2:
        raise HypothesisError("resolve_two_row expects a 2-row graph")
    rc = row_contract(r2)
    if rc.num_edges() != rc.num_vertices() - len(components(rc)):
        raise HypothesisError("column contraction contains a cycle")
    x = _switch_sides(rc, {e.eid for e in r2.edges if e.a[0] != e.b[0]})
    return {j for j, side in x.items() if side}


def acyclic_t_join(g: Multigraph, t: Iterable[Vertex]) -> set[EdgeId]:
    """Forest whose odd-degree vertices are exactly t.

    Built on the spanning forest by leaf-to-root parity toggling; a root
    left with odd parity marks a component holding an odd number of
    t-vertices, which has no t-join.  A forest holds one t-join only, so
    the result depends on nothing but the forest (rooted at each
    component's smallest vertex, see _rooted_forest).
    """
    t = set(t)
    for v in t:
        if not g.has_vertex(v):
            raise HypothesisError(f"t contains unknown vertex {v!r}")
    parent, parent_edge = _rooted_forest(g)
    chosen: set[EdgeId] = set()
    odd_root = None
    for v in reversed(parent):  # breadth-first order reversed: children first
        if v not in t:
            continue
        if parent[v] is None:
            odd_root = v  # met last, so first in root order
        else:
            chosen.add(parent_edge[v])
            t ^= {parent[v]}
    if odd_root is not None:
        comp = next(c for c in components(g) if odd_root in c)
        raise HypothesisError(f"component containing {comp[0]!r} holds an odd number of t-vertices")
    return chosen
