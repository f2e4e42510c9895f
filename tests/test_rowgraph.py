import itertools
import random
from typing import Iterator

import pytest

from kotzigcdc import rowgraph
from kotzigcdc.catalog import theta_graph
from kotzigcdc.errors import OracleLimitError
from kotzigcdc.frame import validate_frame
from kotzigcdc.multigraph import is_eulerian
from kotzigcdc.rowgraph import (
    MAX_ORBIT_COLUMNS,
    AmiableColoring,
    RowEdge,
    RowGraph,
    brute_force_amiable,
    build_row_graph,
    enumerate_row_graphs,
    extend_to_amiable,
    is_amiable,
    row_contract,
    row_graph_to_json,
    solve_gf2,
)
from kotzigcdc.amiable import permute_component_colors
from tests.rearrangement import random_rearrangement, rearrange
from tests.test_frame import (
    contract_frame,
    cube_two_squares_frame,
    monochromatic_coloring,
    prism_hamiltonian_frame,
    validate_labeled,
)


def edge_signature(r):
    """A row graph's edges as (id, endpoint pair), for comparing graphs."""
    return frozenset((e.eid, frozenset((e.a, e.b))) for e in r.edges)


def test_column_independence_enforced():
    with pytest.raises(ValueError, match="independent"):
        RowGraph(2, [(0, (1, 1), (2, 1))])


def test_prism_row_graph_is_edgeless():
    g, f = prism_hamiltonian_frame()
    coloring = monochromatic_coloring(f, {1: 1})
    r = build_row_graph(g, f, coloring)
    assert r.s == 1
    assert r.edges == ()
    # the single column holds the colored blob and two isolated vertices
    assert all(r.degree(v) == 0 for v in r.vertices())


def test_theta_frame_row_graph():
    g = theta_graph()
    f = validate_frame(g, [1, 2])  # digon frame, edge 0 is a chord
    coloring = monochromatic_coloring(f, {1: 2})
    r = build_row_graph(g, f, coloring)
    assert r.s == 1 and r.edges == ()


def test_cube_two_squares_row_graph():
    g, f = cube_two_squares_frame()
    coloring = monochromatic_coloring(f, {1: 1, 2: 2})
    r = build_row_graph(g, f, coloring)
    assert r.s == 2
    assert len(r.edges) == 4
    assert all({e.a, e.b} == {(1, 1), (2, 2)} for e in r.edges)
    # origin ids point back at host edges
    assert all(g.has_edge(e.origin) for e in r.edges)


def test_row_contract_matches_contracted_frame():
    g, f = cube_two_squares_frame()
    coloring = monochromatic_coloring(f, {1: 1, 2: 2})
    r = build_row_graph(g, f, coloring)
    rc = row_contract(r)
    cf = contract_frame(f).graph
    assert is_eulerian(rc)
    assert sorted(rc.degree(v) for v in rc.vertices) == sorted(
        cf.degree(v) for v in cf.vertices
    )
    assert sorted(map(frozenset, (rc.endpoints(e) for e in rc.edge_ids))) == sorted(
        map(frozenset, (cf.endpoints(e) for e in cf.edge_ids))
    )


def test_row_contract_edgeless():
    r = RowGraph(3, [])
    assert row_contract(r).num_edges() == 0


# -- rearrangement ----------------------------------------------------------------


def sample_row_graph():
    return RowGraph(
        3,
        [
            (0, (1, 1), (2, 2)),
            (1, (2, 1), (3, 2)),
            (2, (1, 2), (3, 3)),
            (3, (1, 1), (1, 2)),
        ],
    )


def test_rearrange_identity():
    r = sample_row_graph()
    out = rearrange(r, [1, 2, 3])
    assert edge_signature(out) == edge_signature(r)


def test_rearrange_involution():
    r = sample_row_graph()
    swap = {1: 2, 2: 1, 3: 3}
    once = rearrange(r, swap)
    twice = rearrange(once, swap)
    assert edge_signature(twice) == edge_signature(r)
    assert edge_signature(once) != edge_signature(r)


def test_rearrange_malformed():
    r = sample_row_graph()
    with pytest.raises(ValueError):
        rearrange(r, [1, 1, 2])
    with pytest.raises(ValueError):
        rearrange(r, [1, 2, 3], {1: {1: 1, 2: 2, 3: 2}})


def test_rearrangement_inverse_round_trip():
    rng = random.Random(5)
    r = sample_row_graph()
    for _ in range(20):
        rearr = random_rearrangement(r, rng)
        back = rearr.inverse().apply(rearr.apply(r))
        assert edge_signature(back) == edge_signature(r)


def test_oracle_invariant_under_rearrangement():
    rng = random.Random(11)
    instances = list(enumerate_row_graphs(2, 4)) + [sample_row_graph()]
    for _ in range(60):
        r = rng.choice(instances)
        rearr = random_rearrangement(r, rng)
        r2 = rearr.apply(r)
        assert (brute_force_amiable(r) is None) == (brute_force_amiable(r2) is None)


def test_rearranged_coloring_transports():
    rng = random.Random(13)
    r = RowGraph(
        3,
        [
            (0, (1, 1), (1, 2)),
            (1, (2, 1), (2, 2)),
            (2, (1, 2), (2, 3)),
            (3, (3, 2), (3, 3)),
        ],
    )
    a = brute_force_amiable(r)
    assert a is not None
    for _ in range(10):
        rearr = random_rearrangement(r, rng)
        r2 = rearr.apply(r)
        a2 = rearr.transport_amiable(a)
        assert is_amiable(r2, a2)


def test_identical_row_graph_from_recolored_frame():
    """Any rearrangement of a frame-built row graph equals the row graph of
    a relabeled frame with per-component permuted colors."""
    g, f = cube_two_squares_frame()
    coloring = monochromatic_coloring(f, {1: 1, 2: 2})
    r = build_row_graph(g, f, coloring)
    rng = random.Random(3)
    for _ in range(10):
        rearr = random_rearrangement(r, rng)
        target = rearr.apply(r)
        order = sorted(range(1, f.s + 1), key=lambda j: rearr.column_perm[j])
        labeling = [f.components[j - 1].vertices for j in order]
        relabeled = validate_labeled(g, f.frame_edges, labeling)
        recolored = permute_component_colors(f, coloring, rearr.row_perms)
        rebuilt = build_row_graph(g, relabeled, recolored)
        assert edge_signature(rebuilt) == edge_signature(target)


# -- amiable colorings ---------------------------------------------------------------


def test_is_amiable_trivial_single_column():
    r = RowGraph(1, [])
    a = AmiableColoring(f={(1, 1): 1, (2, 1): 2, (3, 1): 3}, g={})
    assert is_amiable(r, a)


def test_is_amiable_rejects_repeated_column_color():
    r = RowGraph(1, [])
    a = AmiableColoring(f={(1, 1): 1, (2, 1): 1, (3, 1): 3}, g={})
    assert not is_amiable(r, a)


def test_is_amiable_rejects_vertex_edge_clash_and_odd_parity():
    r = RowGraph(2, [(0, (1, 1), (2, 2))])
    f = {(1, 1): 1, (2, 1): 2, (3, 1): 3, (1, 2): 1, (2, 2): 2, (3, 2): 3}
    # color 3 avoids both endpoints but appears once per column: parity fails
    assert not is_amiable(r, AmiableColoring(f=f, g={0: 3}))
    # color 1 clashes with the row-1 endpoint
    assert not is_amiable(r, AmiableColoring(f=f, g={0: 1}))


def test_single_cross_edge_has_no_amiable_coloring():
    r = RowGraph(2, [(0, (1, 1), (2, 2))])
    assert brute_force_amiable(r) is None


def test_two_parallel_row_edges_found():
    r = RowGraph(2, [(0, (1, 1), (1, 2)), (1, (2, 1), (2, 2))])
    a = brute_force_amiable(r)
    assert a is not None and is_amiable(r, a)


def test_oracle_guard():
    r = RowGraph(2, [(i, (1, 1), (2, 2)) for i in range(26)])
    with pytest.raises(OracleLimitError):
        brute_force_amiable(r)
    assert brute_force_amiable(r, force=True) is not None


def vertex_colorings(r: RowGraph) -> Iterator[dict]:
    """Every vertex coloring with column 1 pinned to the identity, the
    other columns in sorted order with the last one fastest."""
    perms = sorted(itertools.permutations(range(1, r.rows + 1)))
    per_column = [perms[:1]] + [perms] * (r.s - 1) if r.s else []
    for combo in itertools.product(*per_column):
        yield {(i, j): perm[i - 1] for j, perm in enumerate(combo, start=1) for i in range(1, r.rows + 1)}


def product_walk_amiable(r: RowGraph) -> tuple[dict, dict] | None:
    """The first f of vertex_colorings that extends, with g =
    extend_to_amiable(r, f): the referee for brute_force_amiable."""
    for f in vertex_colorings(r):
        g = extend_to_amiable(r, f)
        if g is not None:
            return f, g
    return None


def oracle_answer(r: RowGraph, force: bool = False) -> tuple[dict, dict] | None:
    found = brute_force_amiable(r, force=force)
    return None if found is None else (found.f, found.g)


def closed_walk_row_edges(s: int, target: int, rng: random.Random) -> list:
    """Closed walks through distinct columns, each step on random rows at
    both ends, until fewer than two edges are left to reach target: every
    column degree is even."""
    edges = []
    while target - len(edges) >= 2:
        cols = rng.sample(range(1, s + 1), rng.randint(2, min(s, target - len(edges))))
        for p, q in zip(cols, cols[1:] + cols[:1]):
            edges.append((len(edges), (rng.randint(1, 3), p), (rng.randint(1, 3), q)))
    return edges


def six_column_graph(seed: int) -> RowGraph:
    return RowGraph(6, closed_walk_row_edges(6, 20, random.Random(seed)))


@pytest.mark.parametrize("rows", [2, 3])
def test_oracle_matches_product_walk_on_every_small_orbit(rows):
    """Every orbit with at most 3 columns and 6 edges, eulerian or not:
    the same (f, g), or None, as the walk over all colorings."""
    answers = [
        oracle_answer(r)
        for s in range(4)
        for r in enumerate_row_graphs(s, 6, rows=rows, eulerian_only=False, up_to_rearrangement=True)
    ]
    expected = [
        product_walk_amiable(r)
        for s in range(4)
        for r in enumerate_row_graphs(s, 6, rows=rows, eulerian_only=False, up_to_rearrangement=True)
    ]
    assert answers == expected
    assert len(answers) == {2: 541, 3: 1893}[rows]
    assert 0 < answers.count(None) < len(answers)


def test_oracle_matches_product_walk_on_six_column_graphs():
    """200 seeded eulerian row graphs with 6 columns and a target of 20
    edges (a walk can stop at 19), where the walk over whole colorings
    tries up to 2,849 of the 7,776."""
    for seed in range(200):
        r = six_column_graph(seed)
        assert len(r.edges) in (19, 20)
        assert oracle_answer(r) == product_walk_amiable(r), seed


def test_oracle_matches_product_walk_at_the_edges():
    # no columns: the empty coloring
    assert oracle_answer(RowGraph(0, [])) == ({}, {}) == product_walk_amiable(RowGraph(0, []))
    # columns 1 and 3 have degree 3
    odd = RowGraph(3, [(0, (1, 1), (1, 2)), (1, (2, 1), (2, 3)), (2, (3, 2), (3, 3)), (3, (1, 1), (1, 3))])
    assert oracle_answer(odd) is None and product_walk_amiable(odd) is None
    # past the edge guard, with force=True
    big = RowGraph(2, [(i, (1, 1), (2, 2)) for i in range(26)])
    assert oracle_answer(big, force=True) == product_walk_amiable(big)
    assert product_walk_amiable(big) is not None


def test_oracle_encoding():
    """The facts brute_force_amiable's docstring rests on, over every case."""
    # colors are vectors of GF(2)^2 (high, low); an end at vertex color c
    # allows exactly the nonzero g with n.g = 1, where n, as a mask with
    # the high bit first, is c
    for c in (1, 2, 3):
        for g in (1, 2, 3):
            high, low = g >> 1, g & 1
            n_high, n_low = c & 1, c >> 1
            assert (g != c) == ((n_high * high + n_low * low) % 2 == 1)
    # counts n1, n2, n3 at a column are all even exactly when their sum is
    # and the high bits (colors 2, 3) and low bits (colors 1, 3) sum to 0
    for n1, n2, n3 in itertools.product(range(4), repeat=3):
        all_even = n1 % 2 == n2 % 2 == n3 % 2 == 0
        assert all_even == ((n1 + n2 + n3) % 2 == (n2 + n3) % 2 == (n1 + n3) % 2 == 0)


def test_add_rows_refuses_and_restores():
    """Rows added one batch at a time are refused exactly when solve_gf2
    finds the whole system inconsistent, and a refusal leaves the pivots
    as they were; clearing the pivots an addition returned undoes it."""
    rng = random.Random(17)
    for _ in range(300):
        nvars = rng.randrange(1, 7)
        pivots = [0] * nvars
        kept: list[int] = []
        for _ in range(rng.randrange(1, 5)):
            batch = [rng.getrandbits(nvars + 1) for _ in range(rng.randrange(1, 4))]
            before = list(pivots)
            added = rowgraph._add_rows(pivots, batch, nvars)
            assert (added is None) == (solve_gf2(kept + batch, nvars) is None)
            if added is None:
                assert pivots == before
                continue
            if rng.random() < 0.3:
                for bit in added:
                    pivots[bit] = 0
                assert pivots == before
                continue
            kept += batch
            var_mask = (1 << nvars) - 1
            assert all(
                row == 0 or (row & var_mask).bit_length() - 1 == bit for bit, row in enumerate(pivots)
            )


# Measured at 21 on that graph (one call adds the column equations), where
# the walk tries 2,849 colorings.
SLOWEST_SEED_VISITS = 60


def test_oracle_prunes_partial_colorings(monkeypatch):
    """On seed 191, the slowest of the 200 six-column graphs for the walk
    over whole colorings, the search adds equations for few partial
    colorings and never solves a whole one, so a walk shows up as a
    failure, with no clock involved."""
    r = six_column_graph(191)
    calls = {"visits": 0, "whole": 0}
    add_rows, extend = rowgraph._add_rows, rowgraph.extend_to_amiable

    def counted_add(*args):
        calls["visits"] += 1
        return add_rows(*args)

    def counted_extend(*args):
        calls["whole"] += 1
        return extend(*args)

    monkeypatch.setattr(rowgraph, "_add_rows", counted_add)
    monkeypatch.setattr(rowgraph, "extend_to_amiable", counted_extend)
    found = brute_force_amiable(r)
    monkeypatch.undo()
    assert found is not None and is_amiable(r, found)
    assert r.s <= calls["visits"] < SLOWEST_SEED_VISITS and calls["whole"] == 0
    tried = 1 + next(k for k, f in enumerate(vertex_colorings(r)) if extend(r, f) is not None)
    assert tried == 2_849


def test_extend_to_amiable_respects_fixed_f():
    r = RowGraph(2, [(0, (1, 1), (1, 2)), (1, (2, 1), (2, 2))])
    f = {(i, j): i for i in (1, 2, 3) for j in (1, 2)}
    g = extend_to_amiable(r, f)
    assert g is not None
    assert is_amiable(r, AmiableColoring(f=f, g=g))


def extend_by_backtracking(r: RowGraph, f: dict) -> dict | None:
    """An edge coloring g making (f, g) amiable, or None.

    Every edge avoids its two endpoint colors, which leaves one or two
    choices; the per-column parity condition is checked as soon as a
    column's last incident edge is assigned.  The oracle for the GF(2)
    extend_to_amiable.
    """
    for j in range(1, r.s + 1):
        colors = [f[v] for v in r.column(j)]
        if len(set(colors)) != len(colors):
            return None

    edges = list(r.edges)
    remaining = {j: 0 for j in range(1, r.s + 1)}
    for e in edges:
        for col in {e.a[1], e.b[1]}:
            remaining[col] += 1
    counts = {(j, c): 0 for j in range(1, r.s + 1) for c in (1, 2, 3)}
    g: dict = {}

    def column_ok(j: int) -> bool:
        return all(counts[(j, c)] % 2 == 0 for c in (1, 2, 3))

    def assign(idx: int) -> bool:
        if idx == len(edges):
            return True
        e = edges[idx]
        cols = {e.a[1], e.b[1]}
        allowed = [c for c in (1, 2, 3) if c != f[e.a] and c != f[e.b]]
        for color in allowed:
            g[e.eid] = color
            for j in cols:
                counts[(j, color)] += 1
                remaining[j] -= 1
            ok = all(remaining[j] > 0 or column_ok(j) for j in cols)
            if ok and assign(idx + 1):
                return True
            for j in cols:
                counts[(j, color)] -= 1
                remaining[j] += 1
            del g[e.eid]
        return False

    if assign(0):
        return dict(g)
    return None


def test_extension_matches_backtracking_at_every_f():
    """Every orbit with s <= 2 and at most 6 edges, or s = 3 and at most 4,
    eulerian or not, at all 6^s vertex colorings: 27,510 pairs.  The GF(2)
    answer is the backtracking one, down to the coloring returned."""
    perms = list(itertools.permutations((1, 2, 3)))
    pairs = extended = 0
    for s, max_edges in ((1, 6), (2, 6), (3, 4)):
        for r in enumerate_row_graphs(s, max_edges, eulerian_only=False, up_to_rearrangement=True):
            for combo in itertools.product(perms, repeat=s):
                f = {(i, j): combo[j - 1][i - 1] for j in range(1, s + 1) for i in (1, 2, 3)}
                g = extend_to_amiable(r, f)
                assert g == extend_by_backtracking(r, f)
                if g is not None:
                    assert is_amiable(r, AmiableColoring(f=f, g=g))
                    extended += 1
                pairs += 1
    assert pairs == 27_510
    assert 0 < extended < pairs


def test_solve_gf2_against_every_assignment():
    rng = random.Random(11)
    for _ in range(400):
        nvars = rng.randrange(0, 6)
        rows = [rng.getrandbits(nvars + 1) for _ in range(rng.randrange(0, 8))]
        solutions = [
            x
            for x in range(1 << nvars)
            if all(bin(row & x).count("1") % 2 == row >> nvars for row in rows)
        ]
        # least in the order that compares bit 0 first
        least = min(solutions, key=lambda x: [x >> k & 1 for k in range(nvars)], default=None)
        assert solve_gf2(rows, nvars) == least
    assert solve_gf2([0b11, 0b01], 1) is None  # x = 1 and x = 0
    assert solve_gf2([], 0) == 0


# -- enumeration and serialization -----------------------------------------------------


def test_enumerate_counts_small():
    # s=2, one edge: 9 labeled slots, none eulerian
    assert sum(1 for _ in enumerate_row_graphs(2, 1)) == 1  # only the edgeless one
    all_two = list(enumerate_row_graphs(2, 2))
    # eulerian with two edges: both edges in the same column pair: C(9+1,2)=45 plus edgeless
    assert len(all_two) == 46


def canonical_form(r: RowGraph) -> tuple:
    """Lexicographically smallest edge multiset over all rearrangements:
    the brute-force oracle for orbit generation."""
    cols = list(range(1, r.s + 1))
    rows = list(range(1, r.rows + 1))
    best = None
    for col_perm in itertools.permutations(cols):
        cmap = {old: new for old, new in zip(cols, col_perm)}
        for row_choices in itertools.product(itertools.permutations(rows), repeat=r.s):
            rmaps = {
                j: {old: new for old, new in zip(rows, row_choices[j - 1])}
                for j in cols
            }
            sig = []
            for e in r.edges:
                a = (rmaps[e.a[1]][e.a[0]], cmap[e.a[1]])
                b = (rmaps[e.b[1]][e.b[0]], cmap[e.b[1]])
                sig.append(tuple(sorted((a, b))))
            cand = tuple(sorted(sig))
            if best is None or cand < best:
                best = cand
    return best


def test_enumerate_rearrangement_reduction():
    full = list(enumerate_row_graphs(2, 2))
    reduced = list(enumerate_row_graphs(2, 2, up_to_rearrangement=True))
    assert len(reduced) < len(full)
    canon = {canonical_form(r) for r in full}
    assert len(canon) == len(reduced)


@pytest.mark.parametrize(
    "max_edges, rows, eulerian_only", [(6, 3, True), (6, 2, True), (4, 3, False)]
)
def test_orbit_representatives_meet_every_orbit_once(max_edges, rows, eulerian_only):
    raw = enumerate_row_graphs(2, max_edges, rows=rows, eulerian_only=eulerian_only)
    orbits = {canonical_form(r) for r in raw}
    reps = list(
        enumerate_row_graphs(
            2, max_edges, rows=rows, eulerian_only=eulerian_only, up_to_rearrangement=True
        )
    )
    met = [canonical_form(r) for r in reps]
    assert len(set(met)) == len(met) and set(met) == orbits
    for r in reps:
        assert [e.eid for e in r.edges] == list(range(len(r.edges)))
        assert not eulerian_only or is_eulerian(row_contract(r))


def burnside_eulerian_orbits(s: int, max_edges: int) -> int:
    """Orbits of eulerian edge multisets with at most max_edges edges under
    the rearrangements, by Burnside's lemma: the mean over the group of the
    multisets each element fixes.  A fixed multiset is a union of whole
    cycles of the element acting on the edge kinds, each taken any number
    of times; it is counted by size and by the parity of every column's
    degree."""
    kinds = [
        frozenset(((i1, p), (i2, q)))
        for p, q in itertools.combinations(range(1, s + 1), 2)
        for i1 in (1, 2, 3)
        for i2 in (1, 2, 3)
    ]
    total = 0
    order = 0
    for cols in itertools.permutations(range(1, s + 1)):
        for row_perms in itertools.product(itertools.permutations((1, 2, 3)), repeat=s):
            order += 1
            image = {
                kind: frozenset((row_perms[j - 1][i - 1], cols[j - 1]) for i, j in kind)
                for kind in kinds
            }
            counts = {(0, 0): 1}  # (size, column parity mask) -> fixed multisets
            left = set(kinds)
            while left:
                cycle = [left.pop()]
                while image[cycle[-1]] != cycle[0]:
                    cycle.append(image[cycle[-1]])
                    left.discard(cycle[-1])
                mask = 0
                for kind in cycle:
                    for _, j in kind:
                        mask ^= 1 << j
                step = {}
                for (size, parity), n in counts.items():
                    times = 0
                    while size + times * len(cycle) <= max_edges:
                        key = (size + times * len(cycle), parity ^ (mask if times % 2 else 0))
                        step[key] = step.get(key, 0) + n
                        times += 1
                counts = step
            total += sum(n for (_, parity), n in counts.items() if parity == 0)
    assert total % order == 0
    return total // order


@pytest.mark.parametrize("s, max_edges, orbits", [(2, 4, 20), (2, 6, 88), (3, 4, 44), (3, 6, 540)])
def test_orbit_counts_match_burnside(s, max_edges, orbits):
    assert burnside_eulerian_orbits(s, max_edges) == orbits
    assert sum(1 for _ in enumerate_row_graphs(s, max_edges, up_to_rearrangement=True)) == orbits


def test_orbit_generation_with_no_edges_allowed():
    assert [len(r.edges) for r in enumerate_row_graphs(2, 0, up_to_rearrangement=True)] == [0]
    assert list(enumerate_row_graphs(2, -1, up_to_rearrangement=True)) == []


def test_orbit_generation_refuses_many_columns():
    with pytest.raises(OracleLimitError):
        next(enumerate_row_graphs(MAX_ORBIT_COLUMNS + 1, 2, up_to_rearrangement=True))


def row_graph_from_json(obj: dict) -> RowGraph:
    """Read back the row-graph format that row_graph_to_json writes."""
    rows = obj.get("rows", 3)
    edges = []
    for idx, rec in enumerate(obj["edges"]):
        i1, j1, i2, j2, *rest = rec
        origin = rest[0] if rest else None
        eid = origin if origin is not None else idx
        edges.append(RowEdge(eid, (i1, j1), (i2, j2), origin))
    return RowGraph(obj["s"], edges, rows=rows)


def test_row_graph_json_round_trip():
    r = sample_row_graph()
    obj = row_graph_to_json(r)
    back = row_graph_from_json(obj)
    assert back.s == r.s
    assert edge_signature(back) == {
        (idx, frozenset((e.a, e.b))) for idx, e in enumerate(r.edges)
    } or len(back.edges) == len(r.edges)
