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
MAX_COMPLETE_ORDER it refuses with OracleLimitError.

Candidates are the integer edge triples (id, i, j) on 0..n-1, and they
stream into the dedupe; a Multigraph is built only for a kept graph.  The
dedupe keeps the first candidate of each isomorphism class.  It holds one
set: the key of every discrete leaf that the search of a kept graph visits,
a key being the leaf's sorted (i, j, multiplicity) triples.  A candidate's
search stops at its first leaf when that key is in the set, so a duplicate
costs one path from the root to a leaf, and only a new class is searched
to the end.  This is exact, for three reasons:

- the search tree does not depend on labels, so isomorphic graphs have
  the same set of leaf keys;
- the pruning skips only leaves that are automorphic images of visited
  leaves, and those leaves have equal keys;
- equal keys at discrete leaves mean the graphs are isomorphic.

Only one edge pair per automorphism orbit of each parent is expanded
(McKay, "Isomorph-free exhaustive generation", 1998).  An automorphism that
maps one pair onto another makes their children isomorphic, and so do
parallel edges, which can be swapped: a pair is keyed by the multiset of
its two end pairs and whether it names one edge twice.  The parent's group
comes for free from the search that kept it: that search skips every
branch that an automorphism it has already found maps from a searched one,
and the automorphisms it finds on the way generate the whole group
(McKay, "Practical graph isomorphism", 1981).  The generators live in the
value that connected_cubic_multigraphs caches, so clearing that cache
leaves every level cold.  A pair left unexpanded gives a child isomorphic
to an earlier child of the same parent, and the dedupe keeps the first
candidate of each class, so the corpus is the same, graph for graph and
edge for edge, as when every pair is expanded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Container, Iterable, Iterator

from .catalog import theta_graph
from .errors import ConstructionInvariantError, OracleLimitError
from .multigraph import Multigraph

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


def _search(n: int, edges: Iterable[tuple], seen: Container = ()) -> tuple | None:
    """The pruned individualisation-refinement search behind canonical_form,
    automorphisms and the corpus dedupe, on the edge triples (id, i, j) of
    a multigraph on the vertices 0..n-1.

    Returns the best leaf key, the set of every leaf key visited and
    generators of Aut; a generator p maps vertex i to p[i].  Returns None
    as soon as the first leaf's key is in seen.
    """
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for _, i, j in edges:
        adj[i][j] = adj[i].get(j, 0) + 1
        if i != j:
            adj[j][i] = adj[j].get(i, 0) + 1
    nbrs = [tuple(d.items()) for d in adj]
    pairs = [(i, j, m) for i, d in enumerate(adj) for j, m in d.items() if i <= j]

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
    keys: set[tuple] = set()
    first = best = None  # (key, colouring, path) of the first and the best leaf

    def search(colour: list, path: tuple) -> int:
        """Search below the node reached by individualising path; return
        the depth the search resumes at, less than len(path) to jump back
        (-1 to stop)."""
        nonlocal first, best
        colour = _refine(colour, nbrs)
        if len(set(colour)) == n:
            key = tuple(sorted([
                (colour[i], colour[j], m) if colour[i] < colour[j] else (colour[j], colour[i], m)
                for i, j, m in pairs
            ]))
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
                if key in seen:
                    return -1
                first = best = (key, colour, path)
            elif key < best[0]:
                best = (key, colour, path)
            keys.add(key)
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

    if search([(tuple(p), tuple(sorted(d.values()))) for p, d in zip(profiles, adj)], ()) < 0:
        return None
    return best[0], keys, gens


def _indexed(g: Multigraph) -> list[tuple]:
    """g's edges as triples on the positions of its vertices."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return [(e, index[a], index[b]) for e, a, b in g.edges()]


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
    return (g.num_vertices(), _search(g.num_vertices(), _indexed(g))[0])


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
    gens = _search(len(verts), _indexed(g))[2]
    group = [tuple(range(len(verts)))]
    seen = set(group)
    for p in group:
        for q in gens:
            pq = tuple(q[i] for i in p)
            if pq not in seen:
                seen.add(pq)
                group.append(pq)
    return [{v: verts[i] for v, i in zip(verts, p)} for p in group]


def insert_edge_pair(edges: list[tuple], e1, e2) -> list[tuple]:
    """Subdivide edges e1 and e2 of a cubic multigraph on 0..n-1, given as
    its edge triples (id, a, b), and join the two new vertices n and n + 1
    (e1 == e2 allowed).  The result's triples are numbered 0, 1, ... in
    order."""
    a = len(edges) * 2 // 3
    b = a + 1
    out = []
    for eid, x, y in edges:
        if eid == e1 and eid == e2:
            # two new vertices on the same edge, adjacent along it
            out += ((x, a), (a, b), (b, y))
        elif eid == e1:
            out += ((x, a), (a, y))
        elif eid == e2:
            out += ((x, b), (b, y))
        else:
            out.append((x, y))
    out.append((a, b))
    return [(i, x, y) for i, (x, y) in enumerate(out)]


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


def _dedupe(candidates: Iterable[list[tuple]]) -> list[tuple[list[tuple], list[list[int]]]]:
    """The first of each isomorphism class of cubic candidates, each given
    as its edge triples on 0..n-1, in input order, with generators of its
    automorphism group.

    One set holds the key of every leaf that the search of a kept graph
    visits, and a candidate's search stops at its first leaf when that key
    is in the set.  This is exact.  The search tree does not depend on
    labels, so isomorphic graphs have the same set of leaf keys.  The
    pruning skips only leaves that are automorphic images of visited
    leaves, and those have equal keys, so the set holds every key of every
    kept class.  Equal keys at discrete leaves mean isomorphic graphs.  So
    a duplicate costs one path from the root to a leaf, and only a new
    class is searched to the end.
    """
    seen: set[tuple] = set()
    kept = []
    for edges in candidates:
        found = _search(len(edges) * 2 // 3, edges, seen)
        if found is not None:
            seen |= found[1]
            kept.append((edges, found[2]))
    return kept


def _pair_representatives(edges: list[tuple], gens: list[list[int]]) -> Iterator[tuple]:
    """One edge pair (e1, e2), e1 at or before e2 in edges, per orbit of
    the group generated by gens, each the first of its orbit.  A pair is
    keyed by the multiset of its two end pairs and whether it names one
    edge twice, since parallel edges can be swapped."""
    ends = [(eid, (a, b) if a <= b else (b, a)) for eid, a, b in edges]
    seen = set()
    for i, (e1, end1) in enumerate(ends):
        for e2, end2 in ends[i:]:
            pair = (*sorted((end1, end2)), e1 == e2)
            if pair in seen:
                continue
            seen.add(pair)
            stack = [pair]
            while stack:
                (a, b), (c, d), same = stack.pop()
                for p in gens:
                    x = (p[a], p[b]) if p[a] <= p[b] else (p[b], p[a])
                    y = (p[c], p[d]) if p[c] <= p[d] else (p[d], p[c])
                    image = (x, y, same) if x <= y else (y, x, same)
                    if image not in seen:
                        seen.add(image)
                        stack.append(image)
            yield e1, e2


def _check_candidate(n: int, edges: list[tuple]) -> list[tuple]:
    """edges, if they form a connected loopless cubic multigraph on
    0..n-1; ConstructionInvariantError otherwise."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for _, a, b in edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            break
        nbrs[a].append(b)
        nbrs[b].append(a)
    else:
        reached = {0}
        stack = [0]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) == n and all(len(nb) == 3 for nb in nbrs):
            return edges
    raise ConstructionInvariantError(
        f"an expansion to {n} vertices is not a connected loopless cubic multigraph"
    )


# the graphs on n vertices that no expansion reaches
_IRREDUCIBLE = {2: theta_graph, 6: balloon_flower, 10: balloon_star, 14: balloon_h}


def _candidates(n: int) -> Iterator[list[tuple]]:
    """One expansion per automorphism orbit of edge pairs of every graph on
    n - 2 vertices, in generation order, then the graph no expansion
    reaches, if any (n >= 2, even); each as its edge triples on 0..n-1."""
    if n > 2:
        level = connected_cubic_multigraphs(n - 2)
        for parent, gens in zip(level, level.generators):
            edges = parent.edges()
            for e1, e2 in _pair_representatives(edges, gens):
                yield _check_candidate(n, insert_edge_pair(edges, e1, e2))
    if n in _IRREDUCIBLE:
        yield _check_candidate(n, _IRREDUCIBLE[n]().edges())


def _check_order(n: int) -> None:
    if n > MAX_COMPLETE_ORDER:
        raise OracleLimitError(
            f"{n} vertices > {MAX_COMPLETE_ORDER}: the generator is checked complete "
            f"only up to {MAX_COMPLETE_ORDER} vertices"
        )


class _Level(tuple):
    """The graphs on one order, with generators of each one's automorphism
    group, as the search that kept it found them."""

    generators: list[list[list[int]]]


@lru_cache(maxsize=None)
def connected_cubic_multigraphs(n: int) -> tuple[Multigraph, ...]:
    """All connected cubic loopless multigraphs on n vertices, up to
    isomorphism; OracleLimitError above MAX_COMPLETE_ORDER."""
    _check_order(n)
    if n <= 0 or n % 2 != 0:
        return ()
    kept = _dedupe(_candidates(n))
    level = _Level(Multigraph(range(n), edges) for edges, _ in kept)
    level.generators = [gens for _, gens in kept]
    return level


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


def cubic_corpus(max_vertices: int) -> list[Multigraph]:
    _check_order(max_vertices)
    out: list[Multigraph] = []
    for n in range(2, max_vertices + 1, 2):
        out.extend(connected_cubic_multigraphs(n))
    return out

