"""Multigraph representation and primitive operations.

Edges are first-class: every edge has its own id, so parallel edges and
loops are unambiguous and structures built on top of a graph can refer to
edges across transformations.  All values are immutable after construction
and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from .errors import GraphFormatError

Vertex = Hashable
EdgeId = Hashable


class Multigraph:
    """Undirected multigraph with identified edges; loops allowed.

    A loop contributes 2 to the degree of its vertex, so contraction
    preserves degree parity.
    """

    __slots__ = ("_vertices", "_edges", "_incidence", "_degree", "_vertex_set", "_index", "_typed_ids")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[EdgeId, Vertex, Vertex]]):
        self._vertices: tuple[Vertex, ...] = tuple(vertices)
        self._vertex_set = frozenset(self._vertices)
        if len(self._vertex_set) != len(self._vertices):
            raise GraphFormatError("duplicate vertex ids")
        edge_map: dict[EdgeId, tuple[Vertex, Vertex]] = {}
        incidence: dict[Vertex, list[EdgeId]] = {v: [] for v in self._vertices}
        loops = []
        for eid, a, b in edges:
            if eid in edge_map:
                raise GraphFormatError(f"duplicate edge id {eid!r}")
            if a not in self._vertex_set or b not in self._vertex_set:
                raise GraphFormatError(f"edge {eid!r} references unknown vertex")
            edge_map[eid] = (a, b)
            incidence[a].append(eid)
            if b != a:
                incidence[b].append(eid)
            else:
                loops.append(a)
        self._edges = edge_map
        self._incidence = {v: tuple(eids) for v, eids in incidence.items()}
        self._degree = {v: len(eids) for v, eids in incidence.items()}
        for v in loops:  # listed once at v, a loop counts 2
            self._degree[v] += 1
        self._index: dict[Vertex, int] | None = None
        self._typed_ids: frozenset | None = None

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(self._edges)

    def edges(self) -> list[tuple[EdgeId, Vertex, Vertex]]:
        return [(eid, a, b) for eid, (a, b) in self._edges.items()]

    def endpoints(self, eid: EdgeId) -> tuple[Vertex, Vertex]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphFormatError(f"unknown edge id {eid!r}") from None

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._vertex_set

    def has_edge(self, eid: EdgeId) -> bool:
        """Whether eid is an edge id of this graph, compared with its type:
        1.0 and True equal 1 as dictionary keys, yet name no edge 1.  The
        (type, id) set is built on the first call and kept."""
        if self._typed_ids is None:
            self._typed_ids = frozenset((type(e), e) for e in self._edges)
        return (type(eid), eid) in self._typed_ids

    def is_loop(self, eid: EdgeId) -> bool:
        a, b = self.endpoints(eid)
        return a == b

    def incident_edges(self, v: Vertex) -> tuple[EdgeId, ...]:
        """Edge ids at v; a loop appears once (but counts 2 toward degree)."""
        return self._incidence[v]

    def degree(self, v: Vertex) -> int:
        return self._degree[v]

    def other_end(self, eid: EdgeId, v: Vertex) -> Vertex:
        a, b = self.endpoints(eid)
        if v == a:
            return b
        if v == b:
            return a
        raise GraphFormatError(f"vertex {v!r} not an endpoint of edge {eid!r}")

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def is_cubic(self) -> bool:
        return all(self.degree(v) == 3 for v in self._vertices)

    def has_loops(self) -> bool:
        return any(a == b for a, b in self._edges.values())

    def in_host_order(self, vertices: Iterable[Vertex]) -> list[Vertex]:
        """The given vertices of this graph, sorted by their position in
        ``self.vertices``: O(k log k) for k of them, from a position index
        built on the first call and kept."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._vertices)}
        return sorted(vertices, key=self._index.__getitem__)

    def subgraph_of_edges(self, eids: Iterable[EdgeId], keep_vertices: Iterable[Vertex] = ()) -> "Multigraph":
        """Subgraph induced by an edge set plus any extra isolated vertices
        (those not in this graph are dropped), vertices in host order."""
        edges = [(eid, *self.endpoints(eid)) for eid in eids]
        verts = {v for v in keep_vertices if v in self._vertex_set}
        for _, a, b in edges:
            verts.add(a)
            verts.add(b)
        return Multigraph(self.in_host_order(verts), edges)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Multigraph({len(self._vertices)} vertices, {len(self._edges)} edges)"


@dataclass(frozen=True)
class VertexMap:
    """Total map from the vertices of a source graph onto a quotient."""

    mapping: Mapping[Vertex, Vertex]

    def __getitem__(self, v: Vertex) -> Vertex:
        return self.mapping[v]


def _sort_key(value):
    return (str(type(value)), repr(value))


def sorted_vertices(g: Multigraph) -> list[Vertex]:
    try:
        return sorted(g.vertices)
    except TypeError:
        return sorted(g.vertices, key=_sort_key)


def sorted_edge_ids(eids: Iterable[EdgeId]) -> list[EdgeId]:
    eids = list(eids)
    try:
        return sorted(eids)
    except TypeError:
        return sorted(eids, key=_sort_key)


# -- components / traversal -------------------------------------------------


def components(g: Multigraph) -> list[list[Vertex]]:
    """Connected components, each sorted, ordered by smallest member."""
    seen: set[Vertex] = set()
    comps: list[list[Vertex]] = []
    for start in sorted_vertices(g):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = [start]
        while stack:
            v = stack.pop()
            for eid in g.incident_edges(v):
                w = g.other_end(eid, v)
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp, key=_sort_key))
    return comps


def is_connected(g: Multigraph) -> bool:
    return len(components(g)) <= 1


def bridges(g: Multigraph) -> set[EdgeId]:
    """Edges whose removal disconnects their component, in one iterative
    depth-first pass (Tarjan, "A note on finding the bridges of a graph",
    IPL 2, 1974).

    A vertex skips the edge it was entered by, by id, so a parallel edge
    leads back up the tree and no edge of a digon is a bridge.  A loop is
    never a bridge.
    """
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    found: set[EdgeId] = set()
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack = [(root, None, iter(g.incident_edges(root)))]
        while stack:
            v, via, edges = stack[-1]
            for eid in edges:
                if eid == via:
                    continue
                w = g.other_end(eid, v)
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append((w, eid, iter(g.incident_edges(w))))
                    break
                low[v] = min(low[v], index[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > index[u]:
                        found.add(via)
    return found


def is_eulerian(g: Multigraph) -> bool:
    """True iff every vertex has even degree (connectivity not required)."""
    return all(g.degree(v) % 2 == 0 for v in g.vertices)


def is_bipartite(g: Multigraph) -> dict[Vertex, int] | None:
    """Two-color the vertices, or None if some component has an odd closed walk.

    A loop makes its component non-bipartite.  Parallel edges are harmless.
    """
    color: dict[Vertex, int] = {}
    for start in sorted_vertices(g):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for eid in g.incident_edges(v):
                w = g.other_end(eid, v)
                if w == v:
                    return None
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def spanning_forest(g: Multigraph) -> set[EdgeId]:
    """A maximal acyclic edge set (one spanning tree per component)."""
    _, _, tree_edges = _rooted_forest(g)
    return set(tree_edges)


def _rooted_forest(g: Multigraph):
    """BFS forest rooted at the smallest vertex of each component.

    Returns (parent vertex map, parent edge map, tree edge list); roots map
    to None.  Deterministic: vertices and incident edges visited in sorted
    order.
    """
    parent: dict[Vertex, Vertex | None] = {}
    parent_edge: dict[Vertex, EdgeId | None] = {}
    tree_edges: list[EdgeId] = []
    for start in sorted_vertices(g):
        if start in parent:
            continue
        parent[start] = None
        parent_edge[start] = None
        queue = [start]
        while queue:
            v = queue.pop(0)
            for eid in sorted_edge_ids(g.incident_edges(v)):
                w = g.other_end(eid, v)
                if w not in parent:
                    parent[w] = v
                    parent_edge[w] = eid
                    tree_edges.append(eid)
                    queue.append(w)
    return parent, parent_edge, tree_edges


# -- contraction ------------------------------------------------------------


def contract_edges(
    g: Multigraph, contracted: Iterable[EdgeId], delete_loops: bool = True
) -> tuple[Multigraph, VertexMap]:
    """Merge the endpoints of every contracted edge.

    Surviving edges keep their ids.  Loops that arise from contraction are
    removed iff delete_loops; pre-existing loops on merged vertices are kept
    subject to the same flag only when their endpoints were merged (a loop
    is always "arising" once its vertex is in a contracted blob is false --
    an original loop stays unless it was itself contracted).  Contracting a
    loop simply deletes it.
    """
    contracted = set(contracted)
    for eid in contracted:
        g.endpoints(eid)  # raises on unknown id
    blob: dict[Vertex, Vertex] = {v: v for v in g.vertices}

    def find(v: Vertex) -> Vertex:
        root = v
        while blob[root] != root:
            root = blob[root]
        while blob[v] != root:
            blob[v], v = root, blob[v]
        return root

    for eid in sorted_edge_ids(contracted):
        a, b = g.endpoints(eid)
        ra, rb = find(a), find(b)
        if ra != rb:
            # merge into the smaller root for determinism
            lo, hi = sorted((ra, rb), key=_sort_key)
            blob[hi] = lo
    groups: dict[Vertex, list[Vertex]] = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    fresh = {root: idx for idx, root in enumerate(sorted(groups, key=_sort_key))}
    mapping = {v: fresh[find(v)] for v in g.vertices}

    new_edges = []
    for eid, a, b in g.edges():
        if eid in contracted:
            continue
        na, nb = mapping[a], mapping[b]
        if na == nb and a != b and delete_loops:
            continue  # loop arising from contraction
        new_edges.append((eid, na, nb))
    result = Multigraph(range(len(groups)), new_edges)
    return result, VertexMap(mapping)


def suppress_degree2(h: Multigraph) -> tuple[Multigraph, dict[EdgeId, tuple[EdgeId, ...]]]:
    """Smooth away every degree-2 vertex of a connected {2,3}-regular graph.

    Returns the cubic base graph together with a map from each base edge id
    to the sequence of original edge ids along the path it replaces.  Base
    edge ids are fresh integers.  Fails if some vertex has degree outside
    {2,3} or if there is no 3-valent vertex (a pure cycle has no base).
    """
    for v in h.vertices:
        if h.degree(v) not in (2, 3):
            raise GraphFormatError(f"vertex {v!r} has degree {h.degree(v)}, expected 2 or 3")
    branch = [v for v in sorted_vertices(h) if h.degree(v) == 3]
    if not branch:
        raise GraphFormatError("no 3-valent vertex: input is a pure cycle")
    if not is_connected(h):
        raise GraphFormatError("suppress_degree2 expects a connected graph")

    path_map: dict[EdgeId, tuple[EdgeId, ...]] = {}
    base_edges: list[tuple[EdgeId, Vertex, Vertex]] = []
    used: set[EdgeId] = set()
    next_id = 0
    for v in branch:
        for eid in sorted_edge_ids(h.incident_edges(v)):
            if eid in used:
                continue
            # walk away from v through degree-2 vertices
            path = [eid]
            used.add(eid)
            cur = h.other_end(eid, v)
            while h.degree(cur) == 2:
                nxt = [e for e in sorted_edge_ids(h.incident_edges(cur)) if e not in used]
                assert len(nxt) == 1, "degree-2 walk must have exactly one way forward"
                step = nxt[0]
                used.add(step)
                path.append(step)
                cur = h.other_end(step, cur)
            base_edges.append((next_id, v, cur))
            path_map[next_id] = tuple(path)
            next_id += 1
    base = Multigraph(branch, base_edges)
    return base, path_map
