import pytest

from kotzigcdc.catalog import (
    cube_graph,
    cycle_graph,
    k33,
    k4,
    path_graph,
    petersen,
    theta_graph,
    theta_subdivision,
)
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.errors import NotCubicError
from kotzigcdc import kotzig
from kotzigcdc.kotzig import (
    CYCLE,
    KOTZIG_SUBDIVISION,
    NEITHER,
    classify_component,
    enumerate_kotzig_colorings,
    enumerate_perfect_colorings,
    find_kotzig_coloring,
    is_kotzig_coloring,
    is_perfect_component_coloring,
)
from kotzigcdc.multigraph import Multigraph, components, sorted_edge_ids, sorted_vertices


def brute_proper_3_edge_colorings(g):
    """Independent oracle: all proper 3-edge-colorings by raw enumeration."""
    eids = list(g.edge_ids)
    out = []

    def rec(idx, coloring):
        if idx == len(eids):
            out.append(dict(coloring))
            return
        eid = eids[idx]
        a, b = g.endpoints(eid)
        for c in (1, 2, 3):
            clash = False
            for v in (a, b):
                for other in g.incident_edges(v):
                    if other in coloring and coloring[other] == c:
                        clash = True
            if not clash:
                coloring[eid] = c
                rec(idx + 1, coloring)
                del coloring[eid]

    rec(0, {})
    return out


def bicolored_unions_hamiltonian(g, coloring):
    for pair in ((1, 2), (1, 3), (2, 3)):
        eids = [e for e in g.edge_ids if coloring[e] in pair]
        sub = g.subgraph_of_edges(eids, keep_vertices=g.vertices)
        if any(sub.degree(v) != 2 for v in sub.vertices):
            return False
        if len(components(sub)) != 1:
            return False
    return True


def test_theta_identity_coloring_is_kotzig():
    g = theta_graph()
    assert is_kotzig_coloring(g, {0: 1, 1: 2, 2: 3})


def test_k4_every_proper_coloring_is_kotzig():
    g = k4()
    all_proper = brute_proper_3_edge_colorings(g)
    assert len(all_proper) == 6  # one orbit under the 6 color permutations
    for coloring in all_proper:
        assert bicolored_unions_hamiltonian(g, coloring)
        assert is_kotzig_coloring(g, coloring)


def test_cube_dimension_coloring_not_kotzig():
    g = cube_graph()
    coloring = {eid: {1: 1, 2: 2, 4: 3}[a ^ b] for eid, a, b in g.edges()}
    # each bicolored union is two disjoint 4-cycles
    assert not is_kotzig_coloring(g, coloring)


def test_petersen_has_no_proper_coloring_at_all():
    g = petersen()
    assert brute_proper_3_edge_colorings(g) == []
    assert find_kotzig_coloring(g) is None


def test_k33_kotzig_found():
    g = k33()
    coloring = find_kotzig_coloring(g)
    assert coloring is not None
    assert is_kotzig_coloring(g, coloring)
    # cross-check with the raw oracle: some proper coloring is Kotzig
    assert any(bicolored_unions_hamiltonian(g, c) for c in brute_proper_3_edge_colorings(g))


def test_enumerate_matches_oracle_on_cube():
    g = cube_graph()
    oracle = [c for c in brute_proper_3_edge_colorings(g) if bicolored_unions_hamiltonian(g, c)]
    mine = list(enumerate_kotzig_colorings(g))
    key = lambda c: tuple(sorted(c.items()))
    assert sorted(map(key, mine)) == sorted(map(key, oracle))



def test_kotzig_check_matches_the_subgraph_referee():
    """is_kotzig_coloring, which walks each bicolored cycle once, agrees
    with the subgraph-and-components referee on every proper
    3-edge-coloring of every cubic multigraph up to 8 vertices, and on
    each with one edge of color 3 recolored 4; and the search, which cuts
    a branch when such a walk closes a short cycle, enumerates exactly
    the referee's Kotzig colorings of each loopless one."""
    checked = kotzig_count = 0
    key = lambda c: tuple(sorted(c.items()))
    for g in cubic_corpus(8):
        proper = brute_proper_3_edge_colorings(g)
        for coloring in proper:
            e3 = next(e for e, c in coloring.items() if c == 3)
            for c in (coloring, {**coloring, e3: 4}):
                assert is_kotzig_coloring(g, c) == bicolored_unions_hamiltonian(g, c)
                checked += 1
                kotzig_count += is_kotzig_coloring(g, c)
        if not g.has_loops():
            oracle = [c for c in proper if bicolored_unions_hamiltonian(g, c)]
            assert sorted(map(key, enumerate_kotzig_colorings(g))) == sorted(map(key, oracle))
    assert (checked, kotzig_count) == (1020, 48)


def referee_bfs_edge_order(k):
    """kotzig._bfs_edge_order as it was, with a popped queue."""
    order, seen_e, seen_v = [], set(), set()
    for start in sorted_vertices(k):
        if start in seen_v:
            continue
        queue = [start]
        seen_v.add(start)
        while queue:
            v = queue.pop(0)
            for eid in sorted_edge_ids(k.incident_edges(v)):
                if eid not in seen_e:
                    seen_e.add(eid)
                    order.append(eid)
                w = k.other_end(eid, v)
                if w not in seen_v:
                    seen_v.add(w)
                    queue.append(w)
    return order


def test_bfs_edge_order_matches_the_popping_referee():
    """The same edge order on every cubic multigraph up to 8 vertices,
    with its own ids and with string ids."""
    for g in cubic_corpus(8):
        renamed = Multigraph([f"v{v}" for v in g.vertices], [(f"e{k}", f"v{a}", f"v{b}") for k, a, b in g.edges()])
        for h in (g, renamed):
            assert kotzig._bfs_edge_order(h) == referee_bfs_edge_order(h)

def test_enumerate_representatives_orbit_structure():
    g = k4()
    reps = list(enumerate_kotzig_colorings(g, representatives=True))
    full = list(enumerate_kotzig_colorings(g))
    assert len(full) == 6 * len(reps)


def test_non_cubic_rejected():
    with pytest.raises(NotCubicError):
        find_kotzig_coloring(cycle_graph(4))


def test_find_on_theta():
    g = theta_graph()
    coloring = find_kotzig_coloring(g)
    assert coloring is not None and sorted(coloring.values()) == [1, 2, 3]


# -- classification -------------------------------------------------------------


def test_classify_cycle():
    assert classify_component(cycle_graph(6)).kind == CYCLE


def test_classify_theta_subdivision():
    cls = classify_component(theta_subdivision())
    assert cls.kind == KOTZIG_SUBDIVISION
    assert cls.base.num_vertices() == 2
    assert cls.base.num_edges() == 3


def test_classify_single_edge_neither():
    assert classify_component(path_graph(2)).kind == NEITHER


def test_classify_cubic_graph_as_degenerate_subdivision():
    cls = classify_component(k4())
    assert cls.kind == KOTZIG_SUBDIVISION
    assert all(len(p) == 1 for p in cls.path_map.values())


def test_classify_petersen_neither():
    assert classify_component(petersen()).kind == NEITHER


def test_classify_loop_base_neither():
    # triangle with a pendant cycle through one vertex suppresses to a loop
    g = Multigraph(
        [0, 1, 2, 3],
        [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3), (4, 3, 1)],
    )
    # degrees: 0 and 1 are 3-valent, 2 and 3 are 2-valent; base has a
    # double edge plus ... just verify the classifier terminates sanely
    cls = classify_component(g)
    assert cls.kind in (KOTZIG_SUBDIVISION, NEITHER)


# -- perfect colorings per component ----------------------------------------------


def test_cycle_component_has_three_monochromatic_colorings():
    g = cycle_graph(4)
    cls = classify_component(g)
    frags = list(enumerate_perfect_colorings(g, cls))
    assert len(frags) == 3
    for vc, ec in frags:
        assert len(set(vc.values()) | set(ec.values())) == 1
        assert is_perfect_component_coloring(g, cls, vc, ec)


def test_theta_subdivision_has_six_lifts():
    g = theta_subdivision()
    cls = classify_component(g)
    frags = list(enumerate_perfect_colorings(g, cls))
    assert len(frags) == 6  # 3! permutations of the three paths
    for vc, ec in frags:
        assert is_perfect_component_coloring(g, cls, vc, ec)
        # 2-valent vertices match their edges
        for v in (2, 3):
            incident = [ec[e] for e in g.incident_edges(v)]
            assert vc[v] == incident[0] == incident[1]


def test_mixed_path_coloring_rejected():
    g = theta_subdivision()
    cls = classify_component(g)
    vc, ec = next(iter(enumerate_perfect_colorings(g, cls)))
    bad = dict(ec)
    # edges 1 and 2 form one subdivision path; split their colors
    bad[1], bad[2] = 1, 2
    assert not is_perfect_component_coloring(g, cls, vc, bad)
