"""Red/blue edge switching and acyclic t-joins.

A switch at a vertex flips the color of every non-loop edge at that vertex.
Whether a 2-colored multigraph can be switched all-blue is decided on the
blue-contraction: keep the loops that arise, because a red edge collapsed
inside a blue blob is exactly an odd obstruction.
"""

from __future__ import annotations

from typing import Iterable

from .errors import HypothesisError
from .multigraph import (
    EdgeId,
    Multigraph,
    Vertex,
    components,
    contract_edges,
    is_bipartite,
    sorted_vertices,
    _rooted_forest,
)
from .rowgraph import RowGraph, row_contract

RED = "red"
BLUE = "blue"

# A TwoColoring is a plain dict edge-id -> RED | BLUE, total on the edge set.


def switchable_to_blue(g: Multigraph, coloring: dict) -> list[Vertex] | None:
    """A switch set turning every edge blue, or None.

    Contract the blue edges keeping arising loops; the red remainder must be
    bipartite, and the switch set is one side of the bipartition pulled back
    through the contraction.
    """
    blue_edges = [e for e in g.edge_ids if coloring[e] == BLUE]
    contracted, vmap = contract_edges(g, blue_edges, delete_loops=False)
    sides = is_bipartite(contracted)
    if sides is None:
        return None
    switches = [v for v in sorted_vertices(g) if sides[vmap[v]] == 1]
    return switches


def resolve_two_row(r2: RowGraph) -> set[int]:
    """Columns to row-swap so that a 2-row graph loses all cross-row edges.

    Works on the column contraction with cross edges red and within-row
    edges blue; requires the contraction to be a forest, in which case a
    solution always exists.
    """
    if r2.rows != 2:
        raise HypothesisError("resolve_two_row expects a 2-row graph")
    rc = row_contract(r2)
    if rc.num_edges() != rc.num_vertices() - len(components(rc)):
        raise HypothesisError("column contraction contains a cycle")
    coloring = {
        e.eid: (RED if e.a[0] != e.b[0] else BLUE) for e in r2.edges
    }
    seq = switchable_to_blue(rc, coloring)
    assert seq is not None, "a forest contraction is always switchable"
    swaps = set(seq)
    flip = {1: 2, 2: 1}
    for e in r2.edges:
        ra = flip[e.a[0]] if e.a[1] in swaps else e.a[0]
        rb = flip[e.b[0]] if e.b[1] in swaps else e.b[0]
        assert ra == rb, "row swap failed to straighten a cross edge"
    return swaps


def acyclic_t_join(g: Multigraph, t: Iterable[Vertex]) -> set[EdgeId]:
    """Forest whose odd-degree vertices are exactly t.

    Built on the spanning forest by leaf-to-root parity toggling; requires
    an even number of t-vertices in every component.  A forest holds one
    t-join only, so the result depends on nothing but the forest (rooted
    at each component's smallest vertex, see _rooted_forest).
    """
    t = set(t)
    for v in t:
        if not g.has_vertex(v):
            raise HypothesisError(f"t contains unknown vertex {v!r}")
    for comp in components(g):
        if len(t & set(comp)) % 2 != 0:
            raise HypothesisError(
                f"component containing {comp[0]!r} holds an odd number of t-vertices"
            )
    parent, parent_edge = _rooted_forest(g)
    chosen: set[EdgeId] = set()
    for v in reversed(parent):  # breadth-first order reversed: children first
        if v in t:
            assert parent[v] is not None, "odd parity left at a root"
            chosen.add(parent_edge[v])
            t ^= {parent[v]}
    return chosen
