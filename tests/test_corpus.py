import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher, numerical_edge_match

from kotzigcdc import corpus
from kotzigcdc.corpus import (
    _candidates,
    _dedupe,
    automorphisms,
    balloon_flower,
    balloon_h,
    balloon_star,
    brute_force_cubic_multigraphs,
    canonical_form,
    connected_cubic_multigraphs,
    connected_cubic_simple_graphs,
    cubic_corpus,
    insert_edge_pair,
    is_simple,
)
from kotzigcdc.catalog import theta_graph
from kotzigcdc.errors import OracleLimitError
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


def all_expansions(n: int) -> list[Multigraph]:
    """Every expansion of every graph on n - 2 vertices, all edge pairs in
    generation order, then the gadget tree injected at n: the reference
    for _candidates, which expands one pair per automorphism orbit."""
    candidates = []
    for parent in connected_cubic_multigraphs(n - 2):
        eids = list(parent.edge_ids)
        for i, e1 in enumerate(eids):
            for e2 in eids[i:]:
                candidates.append(insert_edge_pair(parent, e1, e2))
    gadget_trees = {6: balloon_flower, 10: balloon_star, 14: balloon_h}
    if n in gadget_trees:
        candidates.append(gadget_trees[n]())
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
        pruned = [g.edges() for g in _dedupe(_candidates(n))]
        assert pruned == [g.edges() for g in _dedupe(all_expansions(n))]


def test_orbit_expansion_prunes(monkeypatch):
    connected_cubic_multigraphs(8)
    calls = []
    real = corpus.insert_edge_pair
    monkeypatch.setattr(
        corpus, "insert_edge_pair", lambda g, e1, e2: calls.append(g) or real(g, e1, e2)
    )
    assert len(_candidates(10)) == len(calls) + 1  # plus balloon_star
    # 430 orbits of edge pairs over the 20 graphs on 8 vertices; all pairs are 1,560
    assert 400 <= len(calls) <= 470


def test_dedupe_matches_vf2_dedupe_up_to_10():
    for n in range(4, 11, 2):
        candidates = all_expansions(n)
        kept, oracle = _dedupe(candidates), vf2_dedupe(candidates)
        assert len(kept) == len(oracle)
        assert all(a is b for a, b in zip(kept, oracle))


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
    plain = [(list(g.vertices), g.edges()) for g in cubic_corpus(8)]
    assert digests == [hashlib.sha256(repr(plain).encode()).hexdigest()] * 2


def test_known_simple_counts():
    # connected cubic simple graphs: classical counts
    assert len(connected_cubic_simple_graphs(4)) == 1
    assert len(connected_cubic_simple_graphs(6)) == 2
    assert len(connected_cubic_simple_graphs(8)) == 5
    assert len(connected_cubic_simple_graphs(10)) == 19
    assert len(connected_cubic_simple_graphs(12)) == 85  # OEIS A002851
    assert len(connected_cubic_simple_graphs(14)) == 509


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


def test_insert_edge_pair_same_edge_gives_digon():
    g = insert_edge_pair(theta_graph(), 0, 0)
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
