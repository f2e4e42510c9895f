import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from kotzigcdc.catalog import cycle_graph, path_graph
from kotzigcdc.errors import HypothesisError
from kotzigcdc.multigraph import Multigraph, _rooted_forest, components
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


def brute_switchable(g, coloring):
    verts = list(g.vertices)
    for mask in range(1 << len(verts)):
        seq = [v for i, v in enumerate(verts) if mask >> i & 1]
        if is_all_blue(apply_switch_sequence(g, coloring, seq)):
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
    rng = random.Random(42)
    for _ in range(500):
        g, coloring = random_instance(rng)
        mine = switchable_to_blue(g, coloring)
        brute = brute_switchable(g, coloring)
        assert (mine is None) == (brute is None)
        if mine is not None:
            assert is_all_blue(apply_switch_sequence(g, coloring, mine))


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

