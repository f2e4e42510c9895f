import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import deque
from functools import lru_cache
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher, numerical_edge_match

from kotzigcdc import corpus
from kotzigcdc.corpus import (
    MAX_COMPLETE_ORDER,
    _candidates,
    _dedupe,
    automorphisms,
    balloon_flower,
    balloon_h,
    balloon_star,
    canonical_form,
    connected_cubic_multigraphs,
    connected_cubic_simple_graphs,
    cubic_corpus,
    insert_edge_pair,
    is_simple,
)
from kotzigcdc.catalog import theta_graph
from kotzigcdc.errors import ConstructionInvariantError, OracleLimitError
from kotzigcdc.multigraph import Multigraph, is_connected


# -- the VF2 oracle: networkx isomorphism inside Weisfeiler-Lehman buckets ---


def to_networkx(g: Multigraph) -> nx.Graph:
    """Simple graph with parallel edges folded into an integer attribute."""
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    for eid, a, b in g.edges():
        if out.has_edge(a, b):
            out[a][b]["m"] += 1
        else:
            out.add_edge(a, b, m=1)
    return out


def multigraph_hash(g: Multigraph) -> str:
    return nx.weisfeiler_lehman_graph_hash(to_networkx(g), edge_attr="m", iterations=4)


def are_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    return nx.is_isomorphic(
        to_networkx(g1), to_networkx(g2), edge_match=numerical_edge_match("m", 1)
    )


def vf2_dedupe(graphs: list[Multigraph]) -> list[Multigraph]:
    buckets: dict[str, list[Multigraph]] = {}
    out = []
    for g in graphs:
        bucket = buckets.setdefault(multigraph_hash(g), [])
        if any(are_isomorphic(g, seen) for seen in bucket):
            continue
        bucket.append(g)
        out.append(g)
    return out


def relabel(g: Multigraph, rng: random.Random) -> Multigraph:
    """The same graph with vertex ids, vertex order, edge ids, edge order
    and the order of each edge's ends all shuffled."""
    verts = list(g.vertices)
    new_ids = rng.sample(range(10 * len(verts)), len(verts))
    name = dict(zip(verts, new_ids))
    order = list(new_ids)
    rng.shuffle(order)
    edges = g.edges()
    rng.shuffle(edges)
    eids = rng.sample(range(10 * len(edges)), len(edges))
    out = []
    for eid, (_, a, b) in zip(eids, edges):
        a, b = (name[a], name[b]) if rng.random() < 0.5 else (name[b], name[a])
        out.append((eid, a, b))
    return Multigraph(order, out)


def test_canonical_form_ignores_labels():
    rng = random.Random(2017)
    for g in cubic_corpus(10):
        form = canonical_form(g)
        for _ in range(3):
            assert canonical_form(relabel(g, rng)) == form


def test_canonical_form_separates_the_corpus():
    graphs = cubic_corpus(10)
    assert len(graphs) == 120
    assert len({canonical_form(g) for g in graphs}) == 120


def test_canonical_form_agrees_with_vf2_up_to_8():
    rng = random.Random(8)
    graphs = cubic_corpus(8)
    assert len(graphs) == 29
    copies = [relabel(g, rng) for g in graphs]
    for g, h in itertools.product(graphs, copies):
        assert (canonical_form(g) == canonical_form(h)) == are_isomorphic(g, h)


# -- the unpruned oracle: the full individualisation-refinement tree -------


def oracle_refine(colour: list, nbrs: list[tuple]) -> list[int]:
    """corpus._refine without its shortcut for singleton cells."""
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


def best_leaves(g: Multigraph) -> tuple[tuple, list[list[int]]]:
    """The form and every leaf colouring that reaches it, by walking the
    whole search tree: the referee for the pruned search.  A leaf colouring
    gives vertex g.vertices[i] the label colour[i] in 0..n-1."""
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
        colour = oracle_refine(colour, nbrs)
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


def oracle_automorphisms(g: Multigraph) -> list[dict]:
    """leaf o first^-1 over the best leaves: each automorphism once, the
    identity first."""
    verts = list(g.vertices)
    _, leaves = best_leaves(g)
    first = [0] * len(verts)
    for i, c in enumerate(leaves[0]):
        first[c] = i
    return [{v: verts[first[c]] for v, c in zip(verts, leaf)} for leaf in leaves]


def test_pruned_search_matches_the_unpruned_tree():
    """The same form and the same group, identity first and no repeats, on
    every candidate up to 10 vertices."""
    for n in range(4, 11, 2):
        for edges in _candidates(n):
            g = Multigraph(range(n), edges)
            assert canonical_form(g) == best_leaves(g)[0]
            group = [tuple(sorted(sigma.items())) for sigma in automorphisms(g)]
            oracle = [tuple(sorted(sigma.items())) for sigma in oracle_automorphisms(g)]
            assert group[0] == oracle[0] == tuple((v, v) for v in sorted(g.vertices))
            assert len(set(group)) == len(group)
            assert sorted(group) == sorted(oracle)


def cold_refinements(monkeypatch, runs: int) -> list[int]:
    """_refine calls in each of runs cubic_corpus(10) calls, each after
    cache_clear() on a fresh cache of connected_cubic_multigraphs."""
    calls = []
    real = corpus._refine
    monkeypatch.setattr(corpus, "_refine", lambda colour, nbrs: calls.append(1) or real(colour, nbrs))
    cold = lru_cache(maxsize=None)(corpus.connected_cubic_multigraphs.__wrapped__)
    monkeypatch.setattr(corpus, "connected_cubic_multigraphs", cold)
    counts = []
    for _ in range(runs):
        cold.cache_clear()
        calls.clear()
        assert len(cubic_corpus(10)) == 120
        counts.append(len(calls))
    return counts


def test_pruning_cuts_the_search(monkeypatch):
    """A cold cubic_corpus(10) refines 5,755 times on the whole tree, 3,742
    times with the back-jumps alone, 3,298 with the orbit pruning alone and
    3,208 with both, when every candidate is searched to the end.  Stopping
    each duplicate at its first leaf brings it to 1,879."""
    assert cold_refinements(monkeypatch, 1)[0] <= 1900


def test_generation_stays_cold_after_the_cache_is_cleared(monkeypatch):
    """The generators each level hands to the next live in the cached
    value, so a cleared cache searches every level again."""
    first, second = cold_refinements(monkeypatch, 2)
    assert first == second


def all_expansions(n: int) -> list[Multigraph]:
    """Every expansion of every graph on n - 2 vertices, all edge pairs in
    generation order, then the gadget tree injected at n: the reference
    for _candidates, which expands one pair per automorphism orbit."""
    candidates = []
    for parent in connected_cubic_multigraphs(n - 2):
        edges = parent.edges()
        eids = list(parent.edge_ids)
        for i, e1 in enumerate(eids):
            for e2 in eids[i:]:
                candidates.append(insert_edge_pair(edges, e1, e2))
    gadget_trees = {6: balloon_flower, 10: balloon_star, 14: balloon_h}
    if n in gadget_trees:
        candidates.append(gadget_trees[n]().edges())
    return candidates


def test_automorphisms_match_vf2():
    """The group read off the best leaves is networkx's automorphism group,
    with the identity first, no repeats and closed under composition."""
    for g in cubic_corpus(10):
        group = [tuple(sorted(sigma.items())) for sigma in automorphisms(g)]
        nxg = to_networkx(g)
        matcher = GraphMatcher(nxg, nxg, edge_match=numerical_edge_match("m", 1))
        vf2 = [tuple(sorted(m.items())) for m in matcher.isomorphisms_iter()]
        assert sorted(group) == sorted(vf2)
        assert group[0] == tuple((v, v) for v in sorted(g.vertices))
        keys = set(group)
        assert len(keys) == len(group)
        maps = [dict(sigma) for sigma in group]
        for s, t in itertools.product(maps, repeat=2):
            assert tuple(sorted((v, s[t[v]]) for v in t)) in keys


def test_orbit_expansion_keeps_the_dedupe():
    """Expanding one edge pair per orbit keeps the same graphs, in the same
    order, as expanding every pair."""
    for n in range(4, 13, 2):
        pruned = [edges for edges, _ in _dedupe(_candidates(n))]
        assert pruned == [edges for edges, _ in _dedupe(all_expansions(n))]


def test_orbit_expansion_prunes(monkeypatch):
    connected_cubic_multigraphs(8)
    calls = []
    real = corpus.insert_edge_pair
    monkeypatch.setattr(
        corpus, "insert_edge_pair", lambda g, e1, e2: calls.append(g) or real(g, e1, e2)
    )
    assert len(list(_candidates(10))) == len(calls) + 1  # plus balloon_star
    # 430 orbits of edge pairs over the 20 graphs on 8 vertices; all pairs are 1,560
    assert 400 <= len(calls) <= 470


def positions(kept: list, items: list) -> list[int]:
    """The positions in items of the objects in kept."""
    ids = {id(x) for x in kept}
    return [k for k, x in enumerate(items) if id(x) in ids]


def kept_positions(candidates: list[list[tuple]]) -> list[int]:
    return positions([edges for edges, _ in _dedupe(candidates)], candidates)


def form_dedupe(graphs: list[Multigraph]) -> list[Multigraph]:
    """The first graph of each canonical form, in input order: the dedupe
    that searches every candidate to the end, kept as the referee for the
    one that stops a duplicate at its first leaf."""
    seen = set()
    out = []
    for g in graphs:
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            out.append(g)
    return out


def test_dedupe_matches_vf2_dedupe_up_to_10():
    for n in range(4, 11, 2):
        candidates = all_expansions(n)
        graphs = [Multigraph(range(n), edges) for edges in candidates]
        assert kept_positions(candidates) == positions(vf2_dedupe(graphs), graphs)


def test_dedupe_matches_the_form_dedupe():
    """The same positions kept on every candidate list up to 12 and on the
    labelled graphs on 6 vertices, where each class comes many times over
    in many labellings."""
    lists = [(n, list(_candidates(n))) for n in range(2, 13, 2)]
    lists.append((6, [g.edges() for g in labelled_cubic_multigraphs(6)]))
    for n, candidates in lists:
        graphs = [Multigraph(range(n), edges) for edges in candidates]
        assert kept_positions(candidates) == positions(form_dedupe(graphs), graphs)


CORPUS_DIGESTS = {
    10: "eff18cd06004479a7e58314c23cb6377738fed18c2e0cc2b5aa9efdfcd7ea2f1",
    12: "0189dfe3a481eea0da74152e972b59089f278afd39cc3db908eceea7a6b9c5cf",
}


def corpus_digest(n: int) -> str:
    plain = [(list(g.vertices), g.edges()) for g in cubic_corpus(n)]
    return hashlib.sha256(repr(plain).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(CORPUS_DIGESTS))
def test_corpus_digest(n):
    """The graphs, their order, their vertex lists and their edge triples,
    pinned as the generator that searched every candidate to the end made
    them."""
    assert corpus_digest(n) == CORPUS_DIGESTS[n]


def test_corpus_does_not_depend_on_the_hash_seed():
    src = str(Path(corpus.__file__).resolve().parents[1])
    code = (
        "import hashlib; from kotzigcdc.corpus import cubic_corpus; "
        "print(hashlib.sha256(repr([(list(g.vertices), g.edges()) "
        "for g in cubic_corpus(8)]).encode()).hexdigest())"
    )
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.strip())
    assert digests == [corpus_digest(8)] * 2


def test_known_simple_counts():
    # connected cubic simple graphs: classical counts
    assert len(connected_cubic_simple_graphs(4)) == 1
    assert len(connected_cubic_simple_graphs(6)) == 2
    assert len(connected_cubic_simple_graphs(8)) == 5
    assert len(connected_cubic_simple_graphs(10)) == 19
    assert len(connected_cubic_simple_graphs(12)) == 85  # OEIS A002851
    assert len(connected_cubic_simple_graphs(14)) == 509


def labelled_cubic_multigraphs(n: int) -> list[Multigraph]:
    """Every connected loopless cubic multigraph on the vertices 0..n-1,
    each multiplicity matrix once.

    Fills the upper-triangular multiplicity matrix vertex by vertex under
    the degree-3 constraint.
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
    return out


def brute_force_cubic_multigraphs(n: int) -> list[Multigraph]:
    """Independent slow enumeration for cross-checking small levels."""
    return form_dedupe(labelled_cubic_multigraphs(n))


def _splits(caps: tuple, d: int):
    """Every way to hand d edge ends to vertices with these free degrees."""
    if not caps:
        if d == 0:
            yield ()
        return
    for m in range(min(caps[0], d) + 1):
        for rest in _splits(caps[1:], d - m):
            yield (m, *rest)


@lru_cache(maxsize=None)
def labelled_with_degrees(degrees: tuple) -> int:
    """Loopless multigraphs on labelled vertices with these degrees (a
    sorted tuple without zeros): take out the vertex of largest degree and
    split its degree over the others; the count depends on the multiset
    only."""
    if not degrees:
        return 1
    *rest, d = degrees
    return sum(
        labelled_with_degrees(tuple(sorted(k - m for k, m in zip(rest, split) if k > m)))
        for split in _splits(tuple(rest), d)
    )


def labelled_connected_cubic(n: int) -> int:
    """Connected loopless cubic multigraphs on n labelled vertices, by the
    exponential formula: split off the component of the first vertex."""
    total = [labelled_with_degrees((3,) * k) for k in range(n + 1)]
    connected = [0] * (n + 1)
    for k in range(1, n + 1):
        connected[k] = total[k] - sum(
            math.comb(k - 1, j - 1) * connected[j] * total[k - j] for j in range(1, k)
        )
    return connected[n]


def test_labelled_counts():
    assert [labelled_connected_cubic(n) for n in range(2, 15, 2)] == [
        1, 7, 640, 168_840, 94_008_600, 95_054_374_800, 158_076_360_842_400,
    ]
    assert labelled_connected_cubic(3) == labelled_connected_cubic(5) == 0
    for n in (2, 4, 6):
        assert len(labelled_cubic_multigraphs(n)) == labelled_connected_cubic(n)


def test_mass_formula():
    """Orbit-stabilizer: the classes on n vertices, each counted n!/|Aut|
    times, are the labelled graphs.  A missing class or a wrong group size
    breaks the sum."""
    for n in range(2, MAX_COMPLETE_ORDER + 1, 2):
        mass = 0
        for g in connected_cubic_multigraphs(n):
            order = len(automorphisms(g))
            assert math.factorial(n) % order == 0
            mass += math.factorial(n) // order
        assert mass == labelled_connected_cubic(n), n


@pytest.mark.parametrize("n", [2, 4, 6])
def test_expansion_matches_bruteforce(n):
    brute = brute_force_cubic_multigraphs(n)
    fast = connected_cubic_multigraphs(n)
    assert len(brute) == len(fast)
    for g in brute:
        assert any(are_isomorphic(g, h) for h in fast)


def test_multigraph_counts():
    # OEIS A005967; the dedupe is exact, so the counts at 12 and 14 prove
    # the generator complete there
    assert [len(connected_cubic_multigraphs(n)) for n in (2, 4, 6, 8, 10, 12, 14)] == [
        1, 2, 6, 20, 91, 509, 3608,
    ]


def test_orders_past_the_checked_counts_are_refused():
    for call in (connected_cubic_multigraphs, cubic_corpus):
        with pytest.raises(OracleLimitError, match="16 vertices > 14"):
            call(16)


def test_all_generated_are_cubic_connected_loopless():
    for g in cubic_corpus(8):
        assert g.is_cubic()
        assert not g.has_loops()
        assert is_connected(g)


def test_a_bad_expansion_raises(monkeypatch):
    """The check on every candidate is a raise, so it runs under python -O."""
    connected_cubic_multigraphs(4)
    two_thetas = Multigraph(range(4), [(i, i // 3 * 2, i // 3 * 2 + 1) for i in range(6)])
    assert two_thetas.is_cubic() and not is_connected(two_thetas)
    monkeypatch.setattr(corpus, "insert_edge_pair", lambda g, e1, e2: two_thetas.edges())
    with pytest.raises(ConstructionInvariantError, match="6 vertices"):
        list(_candidates(6))


def test_insert_edge_pair_same_edge_gives_digon():
    g = Multigraph(range(4), insert_edge_pair(theta_graph().edges(), 0, 0))
    assert g.num_vertices() == 4 and g.is_cubic()
    assert not is_simple(g)


def test_balloon_graphs_present_in_corpus():
    sixes = connected_cubic_multigraphs(6)
    assert any(are_isomorphic(balloon_flower(), g) for g in sixes)
    tens = connected_cubic_multigraphs(10)
    assert any(are_isomorphic(balloon_star(), g) for g in tens)
    fourteens = connected_cubic_multigraphs(14)
    assert any(are_isomorphic(balloon_h(), g) for g in fourteens)


def _reduce_edge(g, eid):
    """Delete eid and smooth both endpoints; None when a loop appears or
    the graph falls apart (the exact inverse of the expansion move)."""
    from kotzigcdc.multigraph import Multigraph, components

    a, b = g.endpoints(eid)
    edges = {e: tuple(g.endpoints(e)) for e in g.edge_ids if e != eid}
    for v in (a, b):
        incident = [e for e, (x, y) in edges.items() if v in (x, y)]
        if len(incident) != 2:
            return None
        ends = []
        for e in incident:
            x, y = edges.pop(e)
            ends.append(y if x == v else x)
        u, w = ends
        if u == w:
            return None  # smoothing created a loop
        edges[f"merged_{v}"] = (u, w)
    verts = [v for v in g.vertices if v not in (a, b)]
    out = Multigraph(verts, [(e, x, y) for e, (x, y) in edges.items()])
    if len(components(out)) > 1:
        return None
    return out


def test_balloon_graphs_are_expansion_irreducible():
    """No edge of these graphs reduces to a smaller loopless connected
    cubic multigraph, so the generator must inject them by hand."""
    for g in (balloon_flower(), balloon_star(), balloon_h()):
        for eid in g.edge_ids:
            assert _reduce_edge(g, eid) is None, f"edge {eid} would be reducible"


def test_reduction_inverts_expansion_elsewhere():
    # every graph on 8 vertices has at least one reducible edge
    for g in connected_cubic_multigraphs(8):
        assert any(_reduce_edge(g, e) is not None for e in g.edge_ids)
