"""Exhaustive corpora of small connected cubic multigraphs.

Generation walks upward two vertices at a time: subdivide two edges (the
same edge twice is allowed) and join the two new vertices.  Reversing that
move fails only on graphs in which every edge either lies in a
digon-with-apex gadget or is a bridge between such gadgets.  Such a graph
is a tree whose t inner vertices (centers) are cubic and whose t + 2
leaves are gadgets of three vertices each, so it has n = 4t + 6 vertices.
There is one tree shape for each t <= 3, and the three on at most 14
vertices are injected explicitly: balloon_flower (6), balloon_star (10)
and balloon_h (14).  The next one is at 18.  The generator is proved
complete up to 10 and counted complete at 12 and 14 against A005967
(509 and 3,608 graphs); above MAX_COMPLETE_ORDER it refuses with
OracleLimitError.  Isomorphism reduction keeps the first candidate of each
exact canonical form.

Only one edge pair per automorphism orbit of each parent is expanded
(McKay, "Isomorph-free exhaustive generation", 1998).  An automorphism that
maps one pair onto another makes their children isomorphic, and so do
parallel edges, which can be swapped: a pair is keyed by the multiset of
its two end pairs and whether it names one edge twice.  The parent's group
comes from the canonical-form search for free.  A skipped child is
isomorphic to an earlier child of the same parent, and the dedupe keeps the
first candidate of each class, so the corpus is the same, graph for graph
and edge for edge, as when every pair is expanded.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache

from .catalog import theta_graph
from .errors import OracleLimitError
from .multigraph import Multigraph, is_connected

MAX_COMPLETE_ORDER = 14  # the largest order whose count is checked against A005967


def _refine(colour: list, nbrs: list[tuple]) -> list[int]:
    """Coarsest equitable refinement: split cells by the sorted (colour,
    multiplicity) pairs of each vertex's neighbours until nothing splits.
    The colours returned are ranks of sorted keys, so they do not depend
    on labels; the colours given may be any comparable values."""
    cells = len(set(colour))
    while True:
        keys = [
            (c, tuple(sorted([(colour[u], m) for u, m in nb])))
            for c, nb in zip(colour, nbrs)
        ]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) in (cells, len(keys)):
            return colour
        cells = len(rank)


def _best_leaves(g: Multigraph) -> tuple[tuple, list[list[int]]]:
    """The individualisation-refinement search behind canonical_form.

    Returns the form and every leaf colouring that reaches it; a leaf
    colouring gives vertex g.vertices[i] the label colour[i] in 0..n-1.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(index)
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for _, a, b in g.edges():
        i, j = index[a], index[b]
        adj[i][j] = adj[i].get(j, 0) + 1
        if i != j:
            adj[j][i] = adj[j].get(i, 0) + 1
    nbrs = [tuple(d.items()) for d in adj]
    edges = [(i, j, m) for i, d in enumerate(adj) for j, m in d.items() if i <= j]

    def start_key(v: int) -> tuple:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        profile = [0] * (max(dist.values()) + 1)
        for d in dist.values():
            profile[d] += 1
        return tuple(profile), tuple(sorted(adj[v].values()))

    best = None
    leaves: list[list[int]] = []

    def search(colour: list) -> None:
        nonlocal best, leaves
        colour = _refine(colour, nbrs)
        if len(set(colour)) == n:
            leaf = sorted([
                (colour[i], colour[j], m) if colour[i] < colour[j] else (colour[j], colour[i], m)
                for i, j, m in edges
            ])
            if best is None or leaf < best:
                best, leaves = leaf, [colour]
            elif leaf == best:
                leaves.append(colour)
            return
        size: dict[int, int] = {}
        for c in colour:
            size[c] = size.get(c, 0) + 1
        cell = min((k, c) for c, k in size.items() if k > 1)[1]
        for v in range(n):
            if colour[v] == cell:
                search([2 * c + (u != v) for u, c in enumerate(colour)])

    search([start_key(v) for v in range(n)])
    return (n, tuple(best)), leaves


def canonical_form(g: Multigraph) -> tuple:
    """Exact isomorphism invariant: two multigraphs get the same form iff
    they are isomorphic.

    Every vertex starts with a colour from its breadth-first distance
    profile and its edge multiplicities (refinement alone never splits a
    simple regular graph).  The search refines to an equitable partition, then
    individualises each vertex of the smallest non-singleton cell in turn,
    ties broken by colour, down to discrete partitions.  Every choice
    depends on colours only, so the set of leaves is the same for every
    labelling.  The form is (n, the lex-min over leaves of the sorted
    (i, j, multiplicity) triples).
    """
    return _best_leaves(g)[0]


def automorphisms(g: Multigraph) -> list[dict]:
    """Every vertex automorphism of g (edge multiplicities kept), each a
    dict from vertex to image, the identity first.

    The search tree of canonical_form is invariant under Aut(g), and
    refinement keeps the order of colours, so distinct branches end in
    distinct leaves.  The leaves reaching the form are therefore
    pi o sigma for one leaf pi and every sigma in Aut(g), once each, and
    pi^-1 o leaf recovers sigma.
    """
    verts = list(g.vertices)
    _, leaves = _best_leaves(g)
    first = [0] * len(verts)
    for i, c in enumerate(leaves[0]):
        first[c] = i
    return [{v: verts[first[c]] for v, c in zip(verts, leaf)} for leaf in leaves]


def _renumber(edges: list[tuple]) -> Multigraph:
    verts = sorted({v for _, a, b in edges for v in (a, b)})
    names = {v: i for i, v in enumerate(verts)}
    return Multigraph(
        range(len(verts)), [(i, names[a], names[b]) for i, (_, a, b) in enumerate(edges)]
    )


def insert_edge_pair(g: Multigraph, e1, e2) -> Multigraph:
    """Subdivide e1 and e2 and join the two new vertices (e1 == e2 allowed)."""
    n = g.num_vertices()
    a, b = n, n + 1
    edges = []
    nid = itertools.count()
    for eid, x, y in g.edges():
        if eid == e1 and eid == e2:
            # two new vertices on the same edge, adjacent along it
            edges.append((next(nid), x, a))
            edges.append((next(nid), a, b))
            edges.append((next(nid), b, y))
        elif eid == e1:
            edges.append((next(nid), x, a))
            edges.append((next(nid), a, y))
        elif eid == e2:
            edges.append((next(nid), x, b))
            edges.append((next(nid), b, y))
        else:
            edges.append((next(nid), x, y))
    edges.append((next(nid), a, b))
    return _renumber(edges)


def balloon_flower() -> Multigraph:
    """Two digon-with-apex gadgets joined by a bridge (6 vertices)."""
    edges = [
        (0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 1, 2),
        (4, 2, 3),
        (5, 3, 4), (6, 3, 5), (7, 4, 5), (8, 4, 5),
    ]
    return Multigraph(range(6), edges)


def balloon_star() -> Multigraph:
    """Three digon-with-apex gadgets on a common center (10 vertices)."""
    edges = [(0, 0, 1), (1, 0, 2), (2, 0, 3)]
    nid = 3
    for apex, (u, v) in ((1, (4, 5)), (2, (6, 7)), (3, (8, 9))):
        edges.append((nid, apex, u)); nid += 1
        edges.append((nid, apex, v)); nid += 1
        edges.append((nid, u, v)); nid += 1
        edges.append((nid, u, v)); nid += 1
    return Multigraph(range(10), edges)


def balloon_h() -> Multigraph:
    """Two adjacent centers, each carrying two digon-with-apex gadgets
    (14 vertices)."""
    edges = [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 4), (4, 1, 5)]
    nid = 5
    for apex, (u, v) in ((2, (6, 7)), (3, (8, 9)), (4, (10, 11)), (5, (12, 13))):
        edges.append((nid, apex, u)); nid += 1
        edges.append((nid, apex, v)); nid += 1
        edges.append((nid, u, v)); nid += 1
        edges.append((nid, u, v)); nid += 1
    return Multigraph(range(14), edges)


def _dedupe(graphs: list[Multigraph]) -> list[Multigraph]:
    """The first graph of each isomorphism class, in input order."""
    seen = set()
    out = []
    for g in graphs:
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            out.append(g)
    return out


def _candidates(n: int) -> list[Multigraph]:
    """One expansion per automorphism orbit of edge pairs of every graph on
    n - 2 vertices, in generation order, then the gadget tree injected at n
    (n >= 4, even)."""
    candidates: list[Multigraph] = []
    for parent in connected_cubic_multigraphs(n - 2):
        group = automorphisms(parent)
        ends = {e: tuple(sorted(parent.endpoints(e))) for e in parent.edge_ids}
        eids = list(ends)
        seen = set()
        for i, e1 in enumerate(eids):
            for e2 in eids[i:]:
                pair = (*sorted((ends[e1], ends[e2])), e1 == e2)
                if pair in seen:
                    continue
                for sigma in group:
                    image = sorted(tuple(sorted((sigma[a], sigma[b]))) for a, b in pair[:2])
                    seen.add((*image, pair[2]))
                candidates.append(insert_edge_pair(parent, e1, e2))
    if n == 6:
        candidates.append(balloon_flower())
    if n == 10:
        candidates.append(balloon_star())
    if n == 14:
        candidates.append(balloon_h())
    for g in candidates:
        assert g.is_cubic() and not g.has_loops() and is_connected(g)
    return candidates


def _check_order(n: int) -> None:
    if n > MAX_COMPLETE_ORDER:
        raise OracleLimitError(
            f"{n} vertices > {MAX_COMPLETE_ORDER}: the generator is checked complete "
            f"only up to {MAX_COMPLETE_ORDER} vertices"
        )


@lru_cache(maxsize=None)
def connected_cubic_multigraphs(n: int) -> tuple[Multigraph, ...]:
    """All connected cubic loopless multigraphs on n vertices, up to
    isomorphism; OracleLimitError above MAX_COMPLETE_ORDER."""
    _check_order(n)
    if n <= 0 or n % 2 != 0:
        return ()
    if n == 2:
        return (theta_graph(),)
    return tuple(_dedupe(_candidates(n)))


def is_simple(g: Multigraph) -> bool:
    seen = set()
    for _, a, b in g.edges():
        key = frozenset((a, b))
        if a == b or key in seen:
            return False
        seen.add(key)
    return True


def connected_cubic_simple_graphs(n: int) -> tuple[Multigraph, ...]:
    return tuple(g for g in connected_cubic_multigraphs(n) if is_simple(g))


def cubic_corpus(max_vertices: int, simple_only: bool = False) -> list[Multigraph]:
    _check_order(max_vertices)
    out: list[Multigraph] = []
    for n in range(2, max_vertices + 1, 2):
        graphs = (
            connected_cubic_simple_graphs(n) if simple_only else connected_cubic_multigraphs(n)
        )
        out.extend(graphs)
    return out


def brute_force_cubic_multigraphs(n: int) -> list[Multigraph]:
    """Independent slow enumeration for cross-checking small levels.

    Fills the upper-triangular multiplicity matrix vertex by vertex under
    the degree-3 constraint, then deduplicates.
    """
    pairs = list(itertools.combinations(range(n), 2))
    out: list[Multigraph] = []

    def emit(mult: dict) -> None:
        edges = []
        nid = 0
        for (a, b), m in sorted(mult.items()):
            for _ in range(m):
                edges.append((nid, a, b))
                nid += 1
        g = Multigraph(range(n), edges)
        if is_connected(g):
            out.append(g)

    def rec(idx: int, deg: list[int], mult: dict) -> None:
        if idx == len(pairs):
            if all(d == 3 for d in deg):
                emit(mult)
            return
        a, b = pairs[idx]
        # once the first coordinate advances, the previous vertex is closed
        if idx > 0 and pairs[idx - 1][0] < a and deg[pairs[idx - 1][0]] != 3:
            return
        for m in range(0, 4):
            if deg[a] + m > 3 or deg[b] + m > 3:
                break
            deg[a] += m
            deg[b] += m
            if m:
                mult[(a, b)] = m
            rec(idx + 1, deg, mult)
            deg[a] -= m
            deg[b] -= m
            mult.pop((a, b), None)

    rec(0, [0] * n, {})
    return _dedupe(out)
