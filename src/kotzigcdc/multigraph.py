"""Multigraph representation and primitive operations.

Edges are first-class: every edge has its own id, so parallel edges and
loops are unambiguous and structures built on top of a graph can refer to
edges across transformations.  All values are immutable after construction
and safe to share between workers.

A graph is numbered once, on first use (``Multigraph.numbering``): its
vertices and edges in sorted order, with flat end arrays and an incidence
array.  The bridge pass, the breadth-first forest and the even 2-factor
search walk those arrays instead of dicts keyed by id.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple

from .errors import GraphFormatError

Vertex = Hashable
EdgeId = Hashable


class Numbering(NamedTuple):
    """A graph's vertices and edges numbered from 0 in sorted order.

    Edge k joins vertices ea[k] and eb[k] (in the order the graph stores
    them; equal for a loop), so its other end at v is ea[k] ^ eb[k] ^ v.
    at[v] holds the numbers of the edges at v in ascending order, a loop
    once.  native says whether the edge ids sorted by their own order
    rather than by (type name, repr)."""

    vertices: list
    edge_ids: list
    ea: list[int]
    eb: list[int]
    at: list[list[int]]
    native: bool


class Multigraph:
    """Undirected multigraph with identified edges; loops allowed.

    A loop contributes 2 to the degree of its vertex, so contraction
    preserves degree parity.
    """

    __slots__ = (
        "_vertices", "_edges", "_incidence", "_degree", "_vertex_set", "_index", "_typed_ids",
        "_key_rank", "_numbering",
    )

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
        self._key_rank: dict[Vertex, int] | None = None
        self._numbering: Numbering | None = None

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

    def key_rank(self) -> dict[Vertex, int]:
        """Vertex -> its rank among the vertices ordered by (type name,
        repr), equal keys sharing a rank, so that min and sorted by it pick
        and order as they would by the keys.  Built on the first call and
        kept."""
        if self._key_rank is None:
            keys = {v: _sort_key(v) for v in self._vertices}
            rank = {key: i for i, key in enumerate(sorted(set(keys.values())))}
            self._key_rank = {v: rank[key] for v, key in keys.items()}
        return self._key_rank

    def numbering(self) -> Numbering:
        """The vertices in sorted_vertices order and the edges in
        sorted_edge_ids order, numbered from 0, with their end and incidence
        arrays.  Built on the first call and kept."""
        if self._numbering is None:
            vertices = sorted_vertices(self)
            number = {v: i for i, v in enumerate(vertices)}
            try:
                eids, native = sorted(self._edges), True
            except TypeError:
                eids, native = sorted(self._edges, key=_sort_key), False
            ea: list[int] = []
            eb: list[int] = []
            at: list[list[int]] = [[] for _ in vertices]
            for k, eid in enumerate(eids):
                a, b = self._edges[eid]
                a, b = number[a], number[b]
                ea.append(a)
                eb.append(b)
                at[a].append(k)
                if b != a:
                    at[b].append(k)
            self._numbering = Numbering(vertices, eids, ea, eb, at, native)
        return self._numbering

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
    """Whether one walk from the first vertex reaches every vertex; true
    for the empty graph."""
    if not g.vertices:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for eid in g.incident_edges(v):
            w = g.other_end(eid, v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def bridges(g: Multigraph) -> set[EdgeId]:
    """Edges whose removal disconnects their component, in one iterative
    depth-first pass over the host's numbering (Tarjan, "A note on finding
    the bridges of a graph", IPL 2, 1974).

    A vertex skips the edge it was entered by, by number, so a parallel
    edge leads back up the tree and no edge of a digon is a bridge.  A loop
    is never a bridge.
    """
    _, eids, ea, eb, at, _ = g.numbering()
    index = [-1] * len(at)
    low = [0] * len(at)
    found: set[EdgeId] = set()
    count = 0
    for root in range(len(at)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack = [(root, -1, iter(at[root]))]
        while stack:
            v, via, edges = stack[-1]
            for k in edges:
                if k == via:
                    continue
                w = ea[k] ^ eb[k] ^ v
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append((w, k, iter(at[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] > index[u]:
                        found.add(eids[via])
    return found


def is_eulerian(g: Multigraph) -> bool:
    """True iff every vertex has even degree (connectivity not required)."""
    return all(g.degree(v) % 2 == 0 for v in g.vertices)


def _forest_order(g: Multigraph) -> tuple[list[int], list[int], list[int]]:
    """The breadth-first forest of _rooted_forest on the host's numbering:
    (vertex numbers in visiting order, parent number, parent edge number),
    -1 at a root."""
    _, eids, ea, eb, at, native = g.numbering()
    if not native:
        # a vertex's edge ids may sort by their own order though all of
        # them do not: keep the order sorted_edge_ids gives them there
        rank = {eid: k for k, eid in enumerate(eids)}
        at = [[rank[e] for e in sorted_edge_ids(eids[k] for k in ks)] for ks in at]
    parent = [-2] * len(at)
    parent_edge = [-1] * len(at)
    order: list[int] = []
    for start in range(len(at)):
        if parent[start] != -2:
            continue
        parent[start] = -1
        order.append(start)
        head = len(order) - 1
        while head < len(order):  # read front to back as it grows
            v = order[head]
            head += 1
            for k in at[v]:
                w = ea[k] ^ eb[k] ^ v
                if parent[w] == -2:
                    parent[w] = v
                    parent_edge[w] = k
                    order.append(w)
    return order, parent, parent_edge


def _rooted_forest(g: Multigraph):
    """BFS forest rooted at the smallest vertex of each component.

    Returns (parent vertex map, parent edge map); roots map to None.
    Deterministic: vertices and incident edges visited in sorted order.
    """
    vertices, eids = g.numbering()[:2]
    order, parent, parent_edge = _forest_order(g)
    parent_map: dict[Vertex, Vertex | None] = {}
    edge_map: dict[Vertex, EdgeId | None] = {}
    for v in order:
        root = parent[v] < 0
        parent_map[vertices[v]] = None if root else vertices[parent[v]]
        edge_map[vertices[v]] = None if root else eids[parent_edge[v]]
    return parent_map, edge_map


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
