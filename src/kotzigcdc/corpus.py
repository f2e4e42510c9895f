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
(509 and 3,608 graphs).  At every order up to 14 the tests also check the
mass formula: the sum of n!/|Aut(G)| over the classes is the number of
labelled graphs, so no class is missing or doubled.  Above
MAX_COMPLETE_ORDER it refuses with OracleLimitError.  Isomorphism
reduction keeps the first candidate of each exact canonical form.

Only one edge pair per automorphism orbit of each parent is expanded
(McKay, "Isomorph-free exhaustive generation", 1998).  An automorphism that
maps one pair onto another makes their children isomorphic, and so do
parallel edges, which can be swapped: a pair is keyed by the multiset of
its two end pairs and whether it names one edge twice.  The parent's group
comes from the canonical-form search for free: that search skips every
branch that an automorphism it has already found maps from a searched one,
and the automorphisms it finds on the way generate the whole group
(McKay, "Practical graph isomorphism", 1981).  A pair left unexpanded
gives a child isomorphic to an earlier child of the same parent, and the
dedupe keeps the first candidate of each class, so the corpus is the same,
graph for graph and edge for edge, as when every pair is expanded.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .catalog import theta_graph
from .errors import ConstructionInvariantError, OracleLimitError
from .multigraph import Multigraph, is_connected

MAX_COMPLETE_ORDER = 14  # the largest order whose count is checked against A005967


def _refine(colour: list, nbrs: list[tuple]) -> list[int]:
    """Coarsest equitable refinement: split cells by the sorted (colour,
    multiplicity) pairs of each vertex's neighbours until nothing splits
    (a singleton cell cannot split, so its vertex keeps its colour alone).
    The colours returned are ranks of sorted keys, so they do not depend
    on labels; the colours given may be any comparable values."""
    while True:
        size: dict = {}
        for c in colour:
            size[c] = size.get(c, 0) + 1
        keys = [
            (c, tuple(sorted([(colour[u], m) for u, m in nb]))) if size[c] > 1 else (c,)
            for c, nb in zip(colour, nbrs)
        ]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) in (len(size), len(keys)):
            return colour


def _orbit(seeds: list[int], perms: list[list[int]]) -> set[int]:
    """The points reached from seeds under the group generated by perms."""
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for p in perms:
            if p[u] not in orbit:
                orbit.add(p[u])
                stack.append(p[u])
    return orbit


def _search(g: Multigraph) -> tuple[tuple, list[list[int]]]:
    """The pruned individualisation-refinement search behind canonical_form
    and automorphisms.

    Returns the form and generators of Aut(g); a generator p maps vertex
    g.vertices[i] to g.vertices[p[i]].
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

    # distance profiles: balls[i] is the bit mask of the vertices within
    # the current radius of i, and every round widens all balls by one
    balls = [1 << i for i in range(n)]
    profiles: list[list[int]] = [[1] for _ in range(n)]
    while True:
        wider = []
        for i, d in enumerate(adj):
            ball = balls[i]
            for j in d:
                ball |= balls[j]
            wider.append(ball)
        if wider == balls:
            break
        for profile, old, new in zip(profiles, balls, wider):
            if new != old:
                profile.append(new.bit_count() - old.bit_count())
        balls = wider

    gens: list[list[int]] = []
    first = best = None  # (key, colouring, path) of the first and the best leaf

    def search(colour: list, path: tuple) -> int:
        """Search below the node reached by individualising path; return
        the depth the search resumes at, less than len(path) to jump back."""
        nonlocal first, best
        colour = _refine(colour, nbrs)
        if len(set(colour)) == n:
            key = sorted([
                (colour[i], colour[j], m) if colour[i] < colour[j] else (colour[j], colour[i], m)
                for i, j, m in edges
            ])
            for end in (first, best):
                if end and key == end[0]:
                    label = [0] * n
                    for i, c in enumerate(end[1]):
                        label[c] = i
                    gens.append([label[c] for c in colour])
                    # below the common ancestor, this branch is the image of
                    # the one already searched down to end
                    return next(d for d, (u, w) in enumerate(zip(path, end[2])) if u != w)
            if first is None:
                first = best = (key, colour, path)
            elif key < best[0]:
                best = (key, colour, path)
            return len(path)
        size: dict[int, int] = {}
        for c in colour:
            size[c] = size.get(c, 0) + 1
        cell = min((k, c) for c, k in size.items() if k > 1)[1]
        tried: list[int] = []
        for v in range(n):
            if colour[v] != cell:
                continue
            if tried and v in _orbit(tried, [p for p in gens if all(p[u] == u for u in path)]):
                continue
            tried.append(v)
            depth = search([2 * c + (u != v) for u, c in enumerate(colour)], path + (v,))
            if depth < len(path):
                return depth
        return len(path)

    search([(tuple(p), tuple(sorted(d.values()))) for p, d in zip(profiles, adj)], ())
    return (n, tuple(best[0])), gens


def canonical_form(g: Multigraph) -> tuple:
    """Exact isomorphism invariant: two multigraphs get the same form iff
    they are isomorphic.

    Every vertex starts with a colour from its breadth-first distance
    profile and its edge multiplicities (refinement alone never splits a
    simple regular graph).  The search refines to an equitable partition, then
    individualises each vertex of the smallest non-singleton cell in turn,
    ties broken by colour, down to discrete partitions.  Every choice
    depends on colours only, so the tree is the same for every labelling.
    The form is (n, the lex-min over leaves of the sorted (i, j,
    multiplicity) triples).

    The search is pruned by the automorphisms it finds (McKay, "Practical
    graph isomorphism", 1981).  A leaf whose triples equal those of the
    first or the best leaf gives an automorphism: the vertex one of the two
    leaves labels c goes to the vertex the other labels c.  The subtree
    below their common ancestor that holds the new leaf is then the image
    of one already searched, and the search jumps back there.  At each node a
    vertex is skipped when an automorphism found so far that fixes the
    node's individualised vertices maps an already tried sibling onto it.
    Either way the skipped leaves copy searched ones, so the minimum is
    kept.
    """
    return _search(g)[0]


def automorphisms(g: Multigraph) -> list[dict]:
    """Every vertex automorphism of g (edge multiplicities kept), each a
    dict from vertex to image, the identity first.

    The group is the closure of the generators canonical_form's search
    finds, and that closure is all of Aut(g) (McKay 1981).  Let v1, v2, ...
    be the vertices individualised on the way to the first leaf.  At the
    node after v1..vk, every sibling of v(k+1) that the pruning lets
    through is searched until its subtree yields an automorphism fixing
    v1..vk and mapping v(k+1) to it, if one exists; pruned siblings lie in
    orbits already reached.  So by induction from the first leaf, where the
    stabiliser is trivial, the generators found reach the stabiliser of
    v1..vk at every k, and at k = 0 that is Aut(g).
    """
    verts = list(g.vertices)
    _, gens = _search(g)
    group = [tuple(range(len(verts)))]
    seen = set(group)
    for p in group:
        for q in gens:
            pq = tuple(q[i] for i in p)
            if pq not in seen:
                seen.add(pq)
                group.append(pq)
    return [{v: verts[i] for v, i in zip(verts, p)} for p in group]


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
        if not g.is_cubic() or g.has_loops() or not is_connected(g):
            raise ConstructionInvariantError(
                f"an expansion to {n} vertices is not a connected loopless cubic multigraph"
            )
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

