import random

import pytest
from hypothesis import given, strategies as st

from kotzigcdc.catalog import cycle_graph, path_graph, theta_subdivision, k4
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.errors import GraphFormatError
from kotzigcdc.multigraph import (
    Multigraph,
    bridges,
    components,
    is_connected,
    is_eulerian,
    sorted_edge_ids,
    sorted_vertices,
    suppress_degree2,
    _rooted_forest,
)
from kotzigcdc.switching import RED, switchable_to_blue


def spanning_forest(g: Multigraph) -> set:
    """A maximal acyclic edge set (one spanning tree per component): the
    parent edges of the breadth-first forest."""
    return {eid for eid in _rooted_forest(g)[1].values() if eid is not None}


def test_degree_counts_loops_twice():
    g = Multigraph([0, 1], [(0, 0, 0), (1, 0, 1)])
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    with pytest.raises(KeyError):
        g.degree(2)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
def test_degree_table_matches_incident_edges(pairs):
    g = Multigraph(range(5), [(k, a, b) for k, (a, b) in enumerate(pairs)])
    for v in g.vertices:
        assert g.degree(v) == sum(2 if g.is_loop(e) else 1 for e in g.incident_edges(v))


def test_duplicate_edge_id_rejected():
    with pytest.raises(GraphFormatError):
        Multigraph([0, 1], [(0, 0, 1), (0, 1, 0)])


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphFormatError):
        Multigraph([0], [(0, 0, 1)])


# -- suppression ---------------------------------------------------------------


def test_suppress_theta_subdivision():
    h = theta_subdivision()
    base, path_map = suppress_degree2(h)
    assert base.num_vertices() == 2
    assert base.num_edges() == 3
    assert sorted(len(p) for p in path_map.values()) == [1, 2, 2]


def test_suppress_cubic_is_identity_shape():
    g = k4()
    base, path_map = suppress_degree2(g)
    assert base.num_vertices() == 4
    assert all(len(p) == 1 for p in path_map.values())


def test_suppress_pure_cycle_fails():
    with pytest.raises(GraphFormatError, match="3-valent"):
        suppress_degree2(cycle_graph(6))


def test_suppress_bad_degree_fails():
    with pytest.raises(GraphFormatError):
        suppress_degree2(path_graph(3))


def test_suppress_round_trip():
    h = theta_subdivision()
    base, path_map = suppress_degree2(h)
    # re-subdividing along the path map reproduces h exactly: the paths
    # partition E(h) and concatenate between the branch vertices
    all_edges = sorted(e for path in path_map.values() for e in path)
    assert all_edges == sorted(h.edge_ids)
    for base_eid, path in path_map.items():
        a, b = base.endpoints(base_eid)
        ends = []
        for v in (a, b):
            ends.append(v)
        sub = h.subgraph_of_edges(path)
        # the path's odd-degree vertices are exactly the base endpoints
        odd = [v for v in sub.vertices if sub.degree(v) % 2 == 1]
        if a == b:
            assert odd == []
        else:
            assert sorted(odd) == sorted(ends)


# -- bridges / eulerian / components / forest ---------------------------------


def all_red_switch_set(g: Multigraph):
    """Bipartiteness as switching: an all-red graph switches to all blue
    exactly when it is bipartite, and the switch set is one side."""
    return switchable_to_blue(g, {e: RED for e in g.edge_ids})


def test_bipartite_even_cycle():
    side = all_red_switch_set(cycle_graph(4))
    assert side is not None
    assert len(side) == 2


def test_bipartite_triangle():
    assert all_red_switch_set(cycle_graph(3)) is None


def test_bipartite_loop():
    g = Multigraph([0], [(0, 0, 0)])
    assert all_red_switch_set(g) is None


def test_bipartite_parallel_edges_fine():
    g = Multigraph([0, 1], [(0, 0, 1), (1, 0, 1)])
    assert all_red_switch_set(g) is not None


def test_bridges_parallel_edges_and_loops():
    # digon 0=1, bridge 1-2, loop at 2, bridge 2-3
    g = Multigraph(range(4), [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3)])
    assert bridges(g) == {2, 4}
    assert bridges(path_graph(4)) == set(path_graph(4).edge_ids)
    assert bridges(cycle_graph(5)) == set()


def test_eulerian_and_components():
    g = Multigraph(range(6), [(i, i, (i + 1) % 3) for i in range(3)]
                   + [(3 + i, 3 + i, 3 + (i + 1) % 3) for i in range(3)])
    assert is_eulerian(g)
    assert len(components(g)) == 2


def test_is_connected_is_one_component():
    two = Multigraph(range(6), [(i, i, (i + 1) % 3) for i in range(3)]
                     + [(3 + i, 3 + i, 3 + (i + 1) % 3) for i in range(3)])
    looped = Multigraph(range(3), [(0, 0, 0), (1, 0, 1), (2, 2, 2)])
    graphs = [*cubic_corpus(10), Multigraph([], []), Multigraph([7], []), two, looped]
    for g in graphs:
        assert is_connected(g) == (len(components(g)) <= 1)
    assert not is_connected(two) and not is_connected(looped)


def test_not_eulerian_path():
    assert not is_eulerian(path_graph(3))


def test_spanning_forest_of_cycle():
    g = cycle_graph(4)
    forest = spanning_forest(g)
    assert len(forest) == 3
    sub = g.subgraph_of_edges(forest, keep_vertices=g.vertices)
    assert len(components(sub)) == 1


def referee_rooted_forest(g: Multigraph):
    """_rooted_forest with a queue popped from its front, as it was."""
    parent: dict = {}
    parent_edge: dict = {}
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
                    queue.append(w)
    return parent, parent_edge


def test_rooted_forest_matches_the_popping_referee():
    """The same visiting order and the same parent and parent-edge maps,
    down to dict order, on seeded multigraphs with loops, parallel edges,
    several components and int, str, tuple or mixed vertex and edge ids."""
    rng = random.Random(3)
    names = (lambda k: k, lambda k: f"v{k}", lambda k: (k, "t"), lambda k: (k, f"m{k}", (k, "t"))[k % 3])
    loops = parallel = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        vname, ename = rng.choice(names), rng.choice(names)
        vertices = [vname(k) for k in rng.sample(range(n), n)]
        edges = [(ename(k), rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(0, 2 * n))]
        edges += [(ename(len(edges) + k), a, b) for k, (_, a, b) in enumerate(edges[: rng.randint(0, 3)])]
        g = Multigraph(vertices, edges)
        loops += g.has_loops()
        parallel += len({frozenset((a, b)) for _, a, b in edges}) < len(edges)
        new, old = _rooted_forest(g), referee_rooted_forest(g)
        assert [list(d.items()) for d in new] == [list(d.items()) for d in old]
    assert loops > 100 and parallel > 100
