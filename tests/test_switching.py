import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from kotzigcdc.catalog import cycle_graph, path_graph
from kotzigcdc.errors import HypothesisError
from kotzigcdc.multigraph import Multigraph, _rooted_forest, _sort_key, components, sorted_vertices
from kotzigcdc.rowgraph import RowGraph
from kotzigcdc.switching import (
    BLUE,
    RED,
    acyclic_t_join,
    resolve_two_row,
    switchable_to_blue,
)


# -- switches and the t-join contract, the referees for the code above ---------


def apply_switch(g: Multigraph, coloring: dict, v) -> dict:
    """Flip non-loop edges at v; loops keep their color."""
    if not g.has_vertex(v):
        raise HypothesisError(f"unknown vertex {v!r}")
    out = dict(coloring)
    for eid in g.incident_edges(v):
        if g.is_loop(eid):
            continue
        out[eid] = BLUE if out[eid] == RED else RED
    return out


def apply_switch_sequence(g: Multigraph, coloring: dict, seq) -> dict:
    """Switch at every vertex of seq in turn; only parities matter."""
    for v in seq:
        coloring = apply_switch(g, coloring, v)
    return coloring


def is_all_blue(coloring: dict) -> bool:
    return all(c == BLUE for c in coloring.values())


def t_join_degrees_ok(g: Multigraph, t, edges: set) -> bool:
    """Every vertex has odd degree in edges exactly when it is in t."""
    t = set(t)
    sub = g.subgraph_of_edges(edges, keep_vertices=g.vertices)
    return all((sub.degree(v) % 2 == 1) == (v in t) for v in g.vertices)


def least_fixed_switch_set(g: Multigraph, coloring: dict):
    """The switch set, in sorted_vertices order, that turns every edge blue
    and leaves each component's least vertex by (type name, repr)
    unswitched, found among all 2^n vertex sets; None if no set does."""
    verts = sorted_vertices(g)
    kept = {comp[0] for comp in components(g)}
    for mask in range(1 << len(verts)):
        seq = [v for i, v in enumerate(verts) if mask >> i & 1]
        if kept.isdisjoint(seq) and is_all_blue(apply_switch_sequence(g, coloring, seq)):
            return seq
    return None


def random_instance(rng, max_n=8):
    n = rng.randint(1, max_n)
    m = rng.randint(0, 2 * n)
    g = Multigraph(range(n), [(i, rng.randrange(n), rng.randrange(n)) for i in range(m)])
    coloring = {e: rng.choice([RED, BLUE]) for e in g.edge_ids}
    return g, coloring


def test_switch_flips_single_edge():
    g = path_graph(2)
    out = apply_switch(g, {0: RED}, 0)
    assert out == {0: BLUE}


def test_switch_keeps_loop():
    g = Multigraph([0], [(0, 0, 0)])
    assert apply_switch(g, {0: RED}, 0) == {0: RED}


def test_switch_unknown_vertex():
    with pytest.raises(HypothesisError):
        apply_switch(path_graph(2), {0: RED}, 9)


def test_switch_involution():
    g = cycle_graph(5)
    coloring = {e: (RED if e % 2 else BLUE) for e in g.edge_ids}
    assert apply_switch(g, apply_switch(g, coloring, 2), 2) == coloring


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_switch_order_irrelevant(seed, shuffle_seed):
    rng = random.Random(seed)
    g, coloring = random_instance(rng)
    seq = [rng.choice(g.vertices) for _ in range(rng.randint(0, 6))]
    shuffled = seq[:]
    random.Random(shuffle_seed).shuffle(shuffled)
    assert apply_switch_sequence(g, coloring, seq) == apply_switch_sequence(
        g, coloring, shuffled
    )


def test_switchable_path():
    g = path_graph(4)
    coloring = {0: RED, 1: BLUE, 2: RED}
    seq = switchable_to_blue(g, coloring)
    assert seq is not None
    assert is_all_blue(apply_switch_sequence(g, coloring, seq))


def test_all_red_triangle_not_switchable():
    g = cycle_graph(3)
    assert switchable_to_blue(g, {e: RED for e in g.edge_ids}) is None


def test_red_blue_parallel_pair_not_switchable():
    g = Multigraph([0, 1], [(0, 0, 1), (1, 0, 1)])
    assert switchable_to_blue(g, {0: RED, 1: BLUE}) is None


def test_red_loop_never_switchable():
    g = Multigraph([0, 1], [(0, 0, 0), (1, 0, 1)])
    assert switchable_to_blue(g, {0: RED, 1: BLUE}) is None


def test_switchable_matches_bruteforce_500():
    """On 500 random instances the switch set is brute force's."""
    rng = random.Random(42)
    for _ in range(500):
        g, coloring = random_instance(rng)
        assert switchable_to_blue(g, coloring) == least_fixed_switch_set(g, coloring)


# Vertex and edge ids of four kinds.  The integers run past 9, so that
# their order by (type name, repr) is not their numeric order.
ID_KINDS = {
    "int": lambda k: 7 + k,
    "str": lambda k: f"v{k}",
    "tuple": lambda k: (k % 3, k),
    "mixed": lambda k: (k + 7, f"v{k}", (k,))[k % 3],
}


@pytest.mark.parametrize("ids", list(ID_KINDS))
def test_switch_set_is_the_one_that_keeps_each_least_vertex(ids):
    """switchable_to_blue returns exactly the brute-force switch set that
    keeps each component's least vertex by (type name, repr), in
    sorted_vertices order, on random multigraphs with loops and parallel
    edges listed in a shuffled vertex order; half the colourings are
    switchable by construction."""
    rng = random.Random(f"switch-{ids}")
    for _ in range(300):
        n = rng.randint(1, 8)
        vertices = [ID_KINDS[ids](k) for k in range(n)]
        rng.shuffle(vertices)
        edges = [(ID_KINDS[ids](i), rng.choice(vertices), rng.choice(vertices))
                 for i in range(rng.randint(0, 2 * n))]
        g = Multigraph(vertices, edges)
        if rng.random() < 0.5:
            side = {v: rng.random() < 0.5 for v in vertices}
            coloring = {e: RED if side[a] != side[b] else BLUE for e, a, b in edges}
        else:
            coloring = {e: rng.choice([RED, BLUE]) for e, _, _ in edges}
        assert switchable_to_blue(g, coloring) == least_fixed_switch_set(g, coloring)


# -- two-row resolution --------------------------------------------------------


def swap_rows_in(r, swaps):
    flip = {1: 2, 2: 1}
    out = []
    for e in r.edges:
        a = (flip[e.a[0]], e.a[1]) if e.a[1] in swaps else e.a
        b = (flip[e.b[0]], e.b[1]) if e.b[1] in swaps else e.b
        out.append((e.eid, a, b))
    return RowGraph(r.s, out, rows=2)


def test_resolve_single_cross_edge():
    r = RowGraph(2, [(0, (1, 1), (2, 2))], rows=2)
    swaps = resolve_two_row(r)
    assert swaps in ({1}, {2})
    fixed = swap_rows_in(r, swaps)
    assert all(e.a[0] == e.b[0] for e in fixed.edges)


def test_resolve_edgeless():
    assert resolve_two_row(RowGraph(3, [], rows=2)) == set()


def test_resolve_two_cross_edges_path():
    r = RowGraph(2, [(0, (1, 1), (2, 2))], rows=2)
    r = RowGraph(3, [(0, (1, 1), (2, 2)), (1, (2, 2), (1, 3))], rows=2)
    swaps = resolve_two_row(r)
    fixed = swap_rows_in(r, swaps)
    assert all(e.a[0] == e.b[0] for e in fixed.edges)
    # cross-check: some subset of the 8 straightens everything
    found = False
    for k in range(3):
        for combo in itertools.combinations([1, 2, 3], k):
            fixed = swap_rows_in(r, set(combo))
            if all(e.a[0] == e.b[0] for e in fixed.edges):
                found = True
    assert found


def test_resolve_rejects_cyclic_contraction():
    r = RowGraph(2, [(0, (1, 1), (2, 2)), (1, (1, 1), (1, 2))], rows=2)
    with pytest.raises(HypothesisError, match="cycle"):
        resolve_two_row(r)


def tree_path_swaps(r2: RowGraph):
    """resolve_two_row's answer, read off its column contraction with
    networkx: each column whose tree path from the least column of its
    piece by (type name, repr) holds an odd number of cross-row edges.  A
    contraction that is not a forest gives the error text instead."""
    rc = nx.MultiGraph()
    rc.add_nodes_from(range(1, r2.s + 1))
    for e in r2.edges:
        rc.add_edge(e.a[1], e.b[1], cross=e.a[0] != e.b[0])
    pieces = list(nx.connected_components(rc))
    if rc.number_of_edges() != r2.s - len(pieces):
        return "column contraction contains a cycle"
    swaps = set()
    for piece in pieces:
        for column, path in nx.shortest_path(rc, min(piece, key=_sort_key)).items():
            crossings = sum(rc[u][v][0]["cross"] for u, v in zip(path, path[1:]))
            if crossings % 2:
                swaps.add(column)
    return swaps


@pytest.mark.parametrize("ids", list(ID_KINDS))
def test_resolve_two_row_matches_the_tree_path_referee(ids):
    """On random two-row graphs with 10 to 16 columns whose column
    contraction is a forest (one in six gets an extra edge, which mostly
    closes a cycle), resolve_two_row returns the referee's exact swap set
    or raises its error text, whatever the edge ids."""
    rng = random.Random(f"two-row-{ids}")
    for _ in range(400):
        s = rng.randint(10, 16)
        columns = list(range(1, s + 1))
        rng.shuffle(columns)
        pairs = [(j, rng.choice(columns[:k])) for k, j in enumerate(columns) if k and rng.random() < 0.85]
        if rng.random() < 1 / 6:
            pairs.append(tuple(rng.sample(columns, 2)))
        edges = [(ID_KINDS[ids](i), (rng.choice((1, 2)), a), (rng.choice((1, 2)), b))
                 for i, (a, b) in enumerate(pairs)]
        r2 = RowGraph(s, edges, rows=2)
        expected = tree_path_swaps(r2)
        if isinstance(expected, str):
            with pytest.raises(HypothesisError, match=re.escape(expected)):
                resolve_two_row(r2)
        else:
            assert resolve_two_row(r2) == expected


# -- acyclic t-joins -------------------------------------------------------------


def is_acyclic(g, edges):
    sub = g.subgraph_of_edges(edges, keep_vertices=g.vertices)
    return sub.num_edges() == sub.num_vertices() - len(components(sub))


def test_t_join_path_ends():
    g = path_graph(3)
    join = acyclic_t_join(g, {0, 2})
    assert join == {0, 1}


def test_t_join_empty_t():
    g = cycle_graph(5)
    assert acyclic_t_join(g, set()) == set()


def test_t_join_triangle_pair():
    g = cycle_graph(3)
    join = acyclic_t_join(g, {0, 1})
    assert t_join_degrees_ok(g, {0, 1}, join)
    assert is_acyclic(g, join)
    # brute-force oracle: all acyclic subsets satisfying the parity contract
    eids = list(g.edge_ids)
    valid = []
    for k in range(len(eids) + 1):
        for combo in itertools.combinations(eids, k):
            if t_join_degrees_ok(g, {0, 1}, set(combo)) and is_acyclic(g, combo):
                valid.append(set(combo))
    assert join in valid
    assert {0} in valid and {1, 2} in valid  # edge or 2-path both fine


def test_t_join_odd_rejected():
    g = path_graph(3)
    with pytest.raises(HypothesisError, match="odd"):
        acyclic_t_join(g, {0})


def test_t_join_odd_per_component_rejected():
    g = Multigraph(range(4), [(0, 0, 1), (1, 2, 3)])
    with pytest.raises(HypothesisError):
        acyclic_t_join(g, {0, 2})  # even overall but odd per component


def test_t_join_contract_500_random():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 10)
        m = rng.randint(0, 2 * n)
        g = Multigraph(range(n), [(i, rng.randrange(n), rng.randrange(n)) for i in range(m)])
        t = set()
        for comp in components(g):
            pick = [v for v in comp if rng.random() < 0.5]
            if len(pick) % 2:
                pick.pop()
            t.update(pick)
        join = acyclic_t_join(g, t)
        assert t_join_degrees_ok(g, t, join)
        assert is_acyclic(g, join)


def test_t_join_deterministic():
    g = cycle_graph(6)
    assert acyclic_t_join(g, {1, 4}) == acyclic_t_join(g, {1, 4})


def referee_acyclic_t_join(g: Multigraph, t) -> set:
    """acyclic_t_join as it was: leaf-to-root toggling over the forest's
    vertices sorted by decreasing depth."""
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
    depth = {}

    def depth_of(v):
        if v in depth:
            return depth[v]
        chain = []
        cur = v
        while cur not in depth and parent[cur] is not None:
            chain.append(cur)
            cur = parent[cur]
        base = depth.get(cur, 0)
        depth.setdefault(cur, 0)
        for node in reversed(chain):
            base += 1
            depth[node] = base
        return depth[v]

    order = sorted(
        g.vertices, key=lambda v: (-depth_of(v), str(type(v)), repr(v))
    )
    need = {v: v in t for v in g.vertices}
    chosen = set()
    for v in order:
        if parent[v] is None:
            assert not need[v], "odd parity left at a root"
            continue
        if need[v]:
            chosen.add(parent_edge[v])
            need[parent[v]] = not need[parent[v]]
    return chosen


@pytest.mark.parametrize("ids", ["int", "str", "tuple", "mixed"])
def test_t_join_matches_the_depth_sorted_referee(ids):
    """Walking the breadth-first forest backwards gives the join that the
    walk by decreasing depth gave, on random multigraphs with loops and
    parallel edges, whatever the vertex ids; odd t-sets fail alike."""
    rng = random.Random(ids)
    name = {
        "int": lambda k: k,
        "str": lambda k: f"v{k}",
        "tuple": lambda k: (k % 3, k),
        "mixed": lambda k: (k, f"v{k}", (k,))[k % 3],
    }[ids]
    for _ in range(1000):
        n = rng.randint(1, 12)
        vertices = [name(k) for k in range(n)]
        edges = [(i, rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(0, 2 * n))]
        g = Multigraph(vertices, edges)
        t = {v for v in vertices if rng.random() < 0.5}
        try:
            expected = referee_acyclic_t_join(g, t)
        except HypothesisError as exc:
            with pytest.raises(HypothesisError, match=re.escape(str(exc))):
                acyclic_t_join(g, t)
            continue
        assert acyclic_t_join(g, t) == expected

