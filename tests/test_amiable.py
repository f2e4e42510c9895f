import itertools
import random
from dataclasses import replace

import pytest

from kotzigcdc import amiable
from kotzigcdc.amiable import (
    STANDARD,
    SYMMETRIC,
    ConstructionTrace,
    ParityColoring,
    _pair_relations,
    amiable_to_parity,
    construct_amiable_concentrated_row,
    construct_amiable_main,
    construct_amiable_two_busy_columns,
    find_parity_coloring,
    identity_f,
    is_parity_coloring,
    normalize_frame_coloring,
    parity_to_amiable,
)
from kotzigcdc.catalog import cube_graph, petersen, prism
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.errors import ConstructionInvariantError, HypothesisError, OracleLimitError
from kotzigcdc.frame import (
    PerfectColoring,
    enumerate_frame_colorings,
    find_well_connected_frame_coloring,
    search_frames,
    validate_frame,
    well_connected_witness,
)
from kotzigcdc.multigraph import Multigraph, components, is_eulerian, sorted_edge_ids
from kotzigcdc.rowgraph import (
    AmiableColoring,
    RowEdge,
    RowGraph,
    brute_force_amiable,
    build_row_graph,
    enumerate_row_graphs,
    extend_to_amiable,
    is_amiable,
    row_components,
    row_contract,
)
from kotzigcdc.switching import acyclic_t_join, resolve_two_row
from tests.rearrangement import Rearrangement
from tests.test_cdc import planted_host, planted_multi_k_hosts
from tests.test_frame import build_colored_contraction, referee_witness, validate_labeled
from tests.test_rowgraph import edge_signature


# -- the main construction -----------------------------------------------------


def test_main_trivial_single_column():
    r = RowGraph(1, [])
    a, trace = construct_amiable_main(r)
    assert is_amiable(r, a)


def test_main_on_normalized_cube_instance():
    # both squares absorbed into the witness piece: edges sit in row 1
    r = RowGraph(2, [(i, (1, 1), (1, 2)) for i in range(4)])
    a, trace = construct_amiable_main(r)
    assert is_amiable(r, a)
    assert brute_force_amiable(r) is not None


def test_main_rejects_unnormalized_shape():
    r = RowGraph(2, [(i, (1, 1), (2, 2)) for i in range(4)])
    with pytest.raises(HypothesisError):
        construct_amiable_main(r)
    # but the same column marked as witness-held is allowed
    a, trace = construct_amiable_main(r, h_columns={1, 2})
    assert is_amiable(r, a)


def test_main_two_multi_components_rejected():
    r = RowGraph(
        4,
        [
            (0, (1, 1), (1, 2)), (1, (1, 1), (1, 2)),
            (2, (1, 3), (1, 4)), (3, (1, 3), (1, 4)),
        ],
    )
    with pytest.raises(HypothesisError, match="more than one"):
        construct_amiable_main(r)


def test_main_row_swap_instance():
    """Instance engineered so the lower t-join crosses rows 2/3, so rows 2
    and 3 trade places in a column; the coloring is amiable on the graph
    passed in, with f = (2, 1, 3) down that column."""
    r = RowGraph(
        3,
        [
            (0, (1, 2), (1, 3)),
            (1, (2, 1), (2, 2)),
            (2, (2, 1), (3, 3)),
        ],
    )
    a, trace = construct_amiable_main(r)
    assert trace.find("lower_join") is not None
    assert trace.find("row23_swap")["columns"] == [3]
    assert is_amiable(r, a)
    assert [a.f[(i, 3)] for i in (1, 2, 3)] == [2, 1, 3]


# -- concentrated-row construction ------------------------------------------------


def test_concentrated_row_tricky_normalization():
    """The first-row vertex of a singleton column may itself carry cross
    edges; it must be rotated out of row 1 before the engine runs."""
    r = RowGraph(
        3,
        [
            (0, (1, 2), (1, 3)),
            (1, (1, 1), (2, 2)),
            (2, (1, 1), (3, 3)),
        ],
    )
    a = construct_amiable_concentrated_row(r, 1)
    assert is_amiable(r, a)
    assert brute_force_amiable(r) is not None


def test_concentrated_row_connected_row():
    # row 2 connected: 2-edge path across all three columns
    r = RowGraph(
        3,
        [
            (0, (2, 1), (2, 2)), (1, (2, 2), (2, 3)),
            (2, (2, 1), (2, 2)), (3, (2, 2), (2, 3)),
        ],
    )
    a = construct_amiable_concentrated_row(r, 2)
    assert is_amiable(r, a)


def test_concentrated_row_rejects_two_busy_in_isolated_column():
    r = RowGraph(
        2,
        [
            (0, (2, 1), (2, 2)), (1, (2, 1), (2, 2)),
            (2, (3, 1), (3, 2)), (3, (3, 1), (3, 2)),
        ],
    )
    # row 1 is all isolated but both columns have two busy vertices
    with pytest.raises(HypothesisError):
        construct_amiable_concentrated_row(r, 1)
    # rows 2 and 3 are concentrated, so those succeed
    a = construct_amiable_concentrated_row(r, 2)
    assert is_amiable(r, a)


def test_concentrated_row_edgeless_any_row():
    r = RowGraph(3, [])
    for row in (1, 2, 3):
        assert is_amiable(r, construct_amiable_concentrated_row(r, row))


def test_concentrated_row_agrees_with_oracle_sweep():
    solved = 0
    for r in enumerate_row_graphs(2, 5):
        for row in (1, 2, 3):
            try:
                a = construct_amiable_concentrated_row(r, row)
            except HypothesisError:
                continue
            assert is_amiable(r, a)
            assert brute_force_amiable(r) is not None
            solved += 1
            break
    assert solved == 406  # frozen from this sweep


# -- two-busy-columns construction --------------------------------------------------


def test_two_busy_direct_edge():
    r = RowGraph(2, [(0, (2, 1), (3, 2)), (1, (3, 1), (2, 2))])
    a = construct_amiable_two_busy_columns(r, 1, 2)
    assert is_amiable(r, a)


def test_two_busy_split_case():
    # columns 1 and 4 busy but in different pieces
    r = RowGraph(
        4,
        [
            (0, (1, 1), (2, 2)), (1, (2, 1), (2, 2)),
            (2, (3, 3), (1, 4)), (3, (3, 3), (2, 4)),
        ],
    )
    a = construct_amiable_two_busy_columns(r, 1, 4)
    assert is_amiable(r, a)


def test_two_busy_with_path_between():
    r = RowGraph(
        3,
        [
            (0, (1, 1), (2, 2)), (1, (2, 2), (3, 3)),
            (2, (2, 1), (2, 2)), (3, (2, 2), (1, 3)),
        ],
    )
    a = construct_amiable_two_busy_columns(r, 1, 3)
    assert is_amiable(r, a)


def test_two_busy_hypothesis_violation():
    r = RowGraph(
        3,
        [
            (0, (1, 2), (1, 3)), (1, (2, 2), (2, 3)),
            (2, (1, 1), (3, 2)), (3, (1, 1), (3, 3)),
        ],
    )
    # column 2 (not special) has two busy vertices when p, q = 1, 3...
    with pytest.raises(HypothesisError):
        construct_amiable_two_busy_columns(r, 1, 2)


def test_two_busy_covers_all_s2():
    count = 0
    for r in enumerate_row_graphs(2, 5):
        a = construct_amiable_two_busy_columns(r, 1, 2)
        assert is_amiable(r, a)
        count += 1
    assert count == 541  # every eulerian instance at this size


# -- referees: the engine on rearranged copies ------------------------------------


def referee_run_engine(r, trace):
    """The engine as it ran on a copy of r with rows 2/3 swapped in the
    columns that straighten the lower join, the coloring carried back
    through the swap."""
    s = r.s
    amiable._require_eulerian(r)

    lower = [e for e in r.edges if e.a[0] in (2, 3) and e.b[0] in (2, 3)]
    identified = Multigraph(range(1, s + 1), [(e.eid, e.a[1], e.b[1]) for e in lower])
    odd_columns = [v for v in identified.vertices if identified.degree(v) % 2 == 1]
    join_lower = acyclic_t_join(identified, odd_columns)
    trace.record(
        "lower_join",
        odd_columns=sorted(odd_columns),
        edges=sorted_edge_ids(join_lower),
    )

    work = r
    emap = {e.eid: e for e in r.edges}
    crossing = [
        eid for eid in join_lower if {emap[eid].a[0], emap[eid].b[0]} == {2, 3}
    ]
    swap = None
    if crossing:
        join_two_row = RowGraph(
            s,
            [
                RowEdge(eid, (emap[eid].a[0] - 1, emap[eid].a[1]), (emap[eid].b[0] - 1, emap[eid].b[1]))
                for eid in sorted_edge_ids(join_lower)
            ],
            rows=2,
        )
        swapped_columns = resolve_two_row(join_two_row)
        trace.record("row23_swap", columns=sorted(swapped_columns))
        swap = Rearrangement.row_swaps(r, {j: (2, 3) for j in swapped_columns})
        work = swap.apply(r)
        emap = {e.eid: e for e in work.edges}
        lower = [e for e in work.edges if e.a[0] in (2, 3) and e.b[0] in (2, 3)]

    join_row2 = {eid for eid in join_lower if emap[eid].a[0] == emap[eid].b[0] == 2}
    join_row3 = {eid for eid in join_lower if emap[eid].a[0] == emap[eid].b[0] == 3}
    if join_row2 | join_row3 != set(join_lower):
        raise ConstructionInvariantError("lower join still crosses rows 2/3 after swapping")

    f = {}
    for j in range(1, s + 1):
        f[(1, j)], f[(2, j)], f[(3, j)] = 2, 3, 1
    g: dict = {}
    for e in lower:
        if e.eid not in join_lower:
            g[e.eid] = 2

    mixed_ids = set(join_row2)
    for e in work.edges:
        rows = {e.a[0], e.b[0]}
        if rows == {1, 2} or rows == {1}:
            mixed_ids.add(e.eid)

    def mixed_degree(v) -> int:
        return sum(1 for e in work.edges_at(v) if e.eid in mixed_ids)

    mismatch = [
        m
        for m in range(1, s + 1)
        if (mixed_degree((1, m)) - mixed_degree((2, m))) % 2 != 0
    ]
    trace.record("row1_join_targets", columns=sorted(mismatch))
    row1 = work.row_subgraph(1)
    try:
        join_row1 = acyclic_t_join(row1, {(1, m) for m in mismatch})
    except HypothesisError as exc:
        raise ConstructionInvariantError(
            "row-1 parity repair is infeasible; the concentration precondition "
            f"does not hold ({exc})"
        ) from exc
    trace.record("row1_join", edges=sorted_edge_ids(join_row1))

    for eid in mixed_ids:
        if eid not in join_row1:
            g[eid] = 1
    for e in work.edges:
        g.setdefault(e.eid, 3)

    coloring = AmiableColoring(f=f, g=g)
    if swap is not None:  # row swaps are their own inverse
        coloring = swap.transport_amiable(coloring)
    amiable._require_amiable(r, coloring, "constructed coloring is not amiable")
    trace.record("amiable", f_rows=[2, 3, 1])
    return coloring


def referee_solve_with_rows_to_front(r, chosen, trace):
    """Swap each column's chosen row with row 1, run the engine on that
    copy and carry the coloring back (row swaps are their own inverse)."""
    rearr = Rearrangement.row_swaps(r, {j: (i, 1) for j, i in chosen.items()})
    result = rearr.transport_amiable(referee_run_engine(rearr.apply(r), trace))
    amiable._require_amiable(r, result, "transported coloring lost amiability")
    return result


def referee_engine(r, trace, front=None):
    """The engine's call, answered the way it was before the engine read
    rows through permutations: construct_amiable_main ran the engine on r,
    the shape constructions on a copy with the front rows moved up."""
    if front is None:
        return referee_run_engine(r, trace)
    return referee_solve_with_rows_to_front(r, front, trace)


def referee_extract_columns(r, cols):
    mapping = {old: idx + 1 for idx, old in enumerate(sorted(cols))}
    edges = []
    for e in r.edges:
        ca, cb = e.a[1], e.b[1]
        if ca in mapping and cb in mapping:
            edges.append(
                RowEdge(e.eid, (e.a[0], mapping[ca]), (e.b[0], mapping[cb]), e.origin)
            )
        elif ca in mapping or cb in mapping:
            raise ValueError("column split cuts an edge")
    return RowGraph(len(cols), edges, rows=r.rows), mapping


def referee_merge_part_coloring(merged_f, merged_g, part, mapping):
    back = {new: old for old, new in mapping.items()}
    for (i, j), c in part.f.items():
        merged_f[(i, back[j])] = c
    merged_g.update(part.g)


def referee_solve_loose_part(r, special, trace):
    """Engine entry for a part in which every non-special column has at
    most one busy vertex."""
    for j in range(1, r.s + 1):
        if j == special:
            continue
        if len(amiable._busy_vertices(r, j)) > 1:
            raise HypothesisError(f"column {j} has more than one busy vertex")
    chosen = {}
    anchor_edge = None
    if special is not None and len(amiable._busy_vertices(r, special)) >= 2:
        # tie the special column into row 1 through one of its edges
        v = amiable._busy_vertices(r, special)[0]
        anchor_edge = min(r.edges_at(v), key=lambda e: repr(e.eid))
        u = anchor_edge.other(v)
        chosen[special] = v[0]
        chosen[u[1]] = u[0]
    for j in range(1, r.s + 1):
        if j in chosen:
            continue
        # a special column with <=1 busy vertex but no idle row stays as it is
        chosen[j] = amiable._first_idle_row(r, j) or 1
    trace.record(
        "loose_part",
        special=special,
        anchor_edge=None if anchor_edge is None else anchor_edge.eid,
        chosen_rows=chosen,
    )
    return referee_solve_with_rows_to_front(r, chosen, trace)


def referee_two_busy_columns(r, p, q, trace=None):
    """construct_amiable_two_busy_columns as it was: the split case cut r
    into renumbered parts, ran the engine once per part and merged."""
    trace = trace or ConstructionTrace()
    if p == q or p not in range(1, r.s + 1) or q not in range(1, r.s + 1):
        raise HypothesisError("need two distinct valid column indices")
    amiable._require_eulerian(r)
    for j in range(1, r.s + 1):
        if j in (p, q):
            continue
        if len(amiable._busy_vertices(r, j)) > 1:
            raise HypothesisError(
                f"column {j} must contain two isolated vertices"
            )

    path = amiable._shortest_cross_column_path(r, p, q)
    if path is not None:
        cols_seen = [v[1] for v in path]
        assert len(set(cols_seen)) == len(cols_seen), "shortest path revisits a column"
        chosen = {v[1]: v[0] for v in path}
        for j in range(1, r.s + 1):
            if j in chosen:
                continue
            idle = amiable._first_idle_row(r, j)
            if idle is None:
                raise HypothesisError(f"column {j} must contain two isolated vertices")
            chosen[j] = idle
        trace.record("path_to_front", path=[list(v) for v in path])
        return referee_solve_with_rows_to_front(r, chosen, trace)

    # no path: split along connected pieces of the column contraction
    rc = row_contract(r)
    groups = components(rc)
    part_cols = []
    specials = []
    loose = []
    for comp in groups:
        cols = sorted(comp)
        if p in cols:
            part_cols.append(cols)
            specials.append(p)
        elif q in cols:
            part_cols.append(cols)
            specials.append(q)
        elif len(cols) == 1:
            # a singleton contraction component is a fully isolated column
            loose.append(cols[0])
        else:
            part_cols.append(cols)
            specials.append(None)
    if loose:
        part_cols.append(loose)
        specials.append(None)

    merged_f = {}
    merged_g = {}
    for cols, special in zip(part_cols, specials):
        part, mapping = referee_extract_columns(r, cols)
        part_special = mapping[special] if special is not None else None
        part_coloring = referee_solve_loose_part(part, part_special, trace)
        referee_merge_part_coloring(merged_f, merged_g, part_coloring, mapping)
    result = AmiableColoring(f=merged_f, g=merged_g)
    amiable._require_amiable(r, result, "merged coloring is not amiable")
    return result


def orbit_representatives(spec):
    """The eulerian orbit representatives for each (s, max_edges) in spec."""
    for s, max_edges in spec:
        yield from enumerate_row_graphs(s, max_edges, up_to_rearrangement=True)


def _construction_record(fn, *args):
    """What a construction gives: ((f, g), trace steps), or the error's
    type and text with the trace steps recorded before it."""
    trace = ConstructionTrace()
    try:
        out = fn(*args, trace=trace)
    except (HypothesisError, ConstructionInvariantError) as exc:
        return (type(exc), str(exc)), trace.steps
    if isinstance(out, tuple):
        out = out[0]
    return (out.f, out.g), trace.steps


def test_engine_matches_the_rearranged_copy_referee(monkeypatch):
    """The engine that reads rows through one permutation per column gives
    the (f, g), trace steps and errors of the engine that ran on rearranged
    copies, for construct_amiable_main and construct_amiable_concentrated_row
    on every row, over every orbit with s <= 3 and at most 6 edges and with
    s = 4 and at most 5 edges."""
    runs = 0
    engine = amiable._run_engine

    def counted(*args):
        nonlocal runs
        runs += 1
        return engine(*args)

    for r in orbit_representatives(((1, 6), (2, 6), (3, 6), (4, 5))):
        calls = [(construct_amiable_main, r)] + [
            (construct_amiable_concentrated_row, r, row) for row in (1, 2, 3)
        ]
        for call in calls:
            monkeypatch.setattr(amiable, "_run_engine", counted)
            new = _construction_record(*call)
            monkeypatch.setattr(amiable, "_run_engine", referee_engine)
            old = _construction_record(*call)
            assert new == old, (call, new, old)
    assert runs == 1548


def test_two_busy_columns_match_the_split_referee():
    """On every column pair (p, q) of every orbit with s <= 3 and at most 6
    edges and with s = 4 and at most 4 edges, the two-busy construction and
    its split-into-parts referee refuse the same inputs, and what the
    construction returns is amiable."""
    pairs = split = 0
    for r in orbit_representatives(((1, 6), (2, 6), (3, 6), (4, 4))):
        for p, q in itertools.combinations(range(1, r.s + 1), 2):
            pairs += 1
            trace = ConstructionTrace()
            new = _outcome(construct_amiable_two_busy_columns, r, p, q, trace)
            old = _outcome(referee_two_busy_columns, r, p, q)
            if isinstance(new, AmiableColoring):
                assert is_amiable(r, new)
                assert isinstance(old, AmiableColoring), (r.edges, p, q, old)
            else:
                assert new == old, (r.edges, p, q, new, old)
            split += trace.find("pieces_to_front") is not None
    assert pairs == 2044
    assert split > 0



def referee_shortest_cross_column_path(r, p, q):
    """_shortest_cross_column_path as it was: a popped queue, each
    vertex's edges sorted by the repr of their ids as it is visited."""
    sources = [(i, p) for i in range(1, r.rows + 1)]
    parent = {v: None for v in sources}
    queue = list(sources)
    while queue:
        v = queue.pop(0)
        if v[1] == q:
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for e in sorted(r.edges_at(v), key=lambda e: repr(e.eid)):
            w = e.other(v)
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def test_shortest_cross_column_path_matches_the_popping_referee():
    """On random row graphs with 2 to 8 columns, parallel edges and edge
    ids whose repr order is not their list order (ints past 9, strings
    and a mix), every column pair gets the referee's path, or None."""
    rng = random.Random(5)
    eid_kinds = (lambda k: 20 - k, lambda k: f"e{k}", lambda k: (k, f"e{k}")[k % 2])
    found = 0
    for _ in range(300):
        s = rng.randint(2, 8)
        eid = rng.choice(eid_kinds)
        edges = []
        for k in range(rng.randint(0, 2 * s)):
            a, b = rng.sample(range(1, s + 1), 2)
            edges.append((eid(k), (rng.randint(1, 3), a), (rng.randint(1, 3), b)))
        r = RowGraph(s, edges)
        for p, q in itertools.permutations(range(1, s + 1), 2):
            path = amiable._shortest_cross_column_path(r, p, q)
            assert path == referee_shortest_cross_column_path(r, p, q)
            found += path is not None
    assert found > 1000

# -- parity colorings ----------------------------------------------------------------


def test_edgeless_all_white_valid_both_modes():
    r = RowGraph(2, [])
    phi = ParityColoring(black=frozenset(), mode=STANDARD)
    assert is_parity_coloring(r, phi, STANDARD)
    assert is_parity_coloring(r, phi, SYMMETRIC)


def test_single_black_vertex_fails_evenness():
    r = RowGraph(2, [])
    phi = ParityColoring(black=frozenset([(1, 1)]), mode=STANDARD)
    assert not is_parity_coloring(r, phi)


def has_parity_coloring_bruteforce(r, mode, max_s=6):
    """Exhaustive search over all 2^(3s) black/white assignments; the
    referee of find_parity_coloring."""
    if r.s > max_s:
        raise OracleLimitError(f"s={r.s} exceeds the brute-force guard {max_s}")
    verts = r.vertices()
    for bits in itertools.product((False, True), repeat=len(verts)):
        black = frozenset(v for v, b in zip(verts, bits) if b)
        phi = ParityColoring(black=black, mode=mode)
        if is_parity_coloring(r, phi, mode):
            return phi
    return None


def test_parity_bruteforce_and_fast_agree():
    rng = random.Random(23)
    insts = list(enumerate_row_graphs(2, 4))
    for r in insts:
        for mode in (STANDARD, SYMMETRIC):
            slow = has_parity_coloring_bruteforce(r, mode)
            fast = find_parity_coloring(r, mode)
            assert (slow is None) == (fast is None)
            if slow is not None:
                assert is_parity_coloring(r, slow, mode)
                assert is_parity_coloring(r, fast, mode)


def test_row_components_are_the_row_subgraph_components():
    """The union-find pass gives, as sets, the components of every row's
    subgraph with its isolated vertices, on the small orbits and on seeded
    row graphs with up to 6 columns."""
    rng = random.Random(29)
    insts = [
        r
        for s in (1, 2, 3)
        for r in enumerate_row_graphs(s, 5, eulerian_only=False, up_to_rearrangement=True)
    ]
    for _ in range(200):
        s = rng.randint(2, 6)
        edges = []
        for k in range(rng.randint(0, 12)):
            p, q = rng.sample(range(1, s + 1), 2)
            edges.append((k, (rng.randint(1, 3), p), (rng.randint(1, 3), q)))
        insts.append(RowGraph(s, edges))
    for r in insts:
        expected = {frozenset(c) for i in (1, 2, 3) for c in components(r.row_subgraph(i))}
        found = [frozenset(c) for c in row_components(r)]
        assert len(found) == len(expected) and set(found) == expected


# -- the per-column sums that _pair_relations replaced, kept as its oracle ------


def _degree_within(r, v, rows):
    return sum(1 for e in r.edges_at(v) if e.a[0] in rows and e.b[0] in rows)


def _neighbors_in_row(r, v, row):
    """Neighbors of v in the given row, counted with edge multiplicity."""
    return sum(1 for e in r.edges_at(v) if e.other(v)[0] == row)


def pair_relations_by_sums(r, mode):
    rel12 = []
    rel23 = []
    for j in range(1, r.s + 1):
        a = _degree_within(r, (1, j), {1, 2}) + _neighbors_in_row(r, (2, j), 1)
        rel12.append(a % 2 == 0)
        if mode == STANDARD:
            b = _degree_within(r, (2, j), {2, 3}) + _degree_within(r, (3, j), {2, 3})
        else:
            b = _degree_within(r, (2, j), {2, 3}) + _neighbors_in_row(r, (3, j), 2)
        rel23.append(b % 2 == 0)
    return rel12, rel23


def test_pair_relations_match_the_per_column_sums(monkeypatch):
    """Both parity searches and is_parity_coloring answer byte for byte as
    they did on the per-column sums: every orbit with s <= 3 and at most 6
    edges, and 200 seeded row graphs with up to 6 columns."""
    rng = random.Random(31)
    insts = [
        r
        for s in (1, 2, 3)
        for r in enumerate_row_graphs(s, 6, eulerian_only=False, up_to_rearrangement=True)
    ]
    for _ in range(200):
        s = rng.randint(2, 6)
        edges = []
        for k in range(rng.randint(0, 14)):
            p, q = rng.sample(range(1, s + 1), 2)
            edges.append((k, (rng.randint(1, 3), p), (rng.randint(1, 3), q)))
        insts.append(RowGraph(s, edges))

    def answers(r, probes):
        found = [find_parity_coloring(r, mode) for mode in (STANDARD, SYMMETRIC)]
        checks = [
            is_parity_coloring(r, phi, mode)
            for phi in probes + [phi for phi in found if phi is not None]
            for mode in (STANDARD, SYMMETRIC)
        ]
        return [None if phi is None else (phi.mode, sorted(phi.black)) for phi in found], checks

    for r in insts:
        for mode in (STANDARD, SYMMETRIC):
            assert _pair_relations(r, mode) == pair_relations_by_sums(r, mode)
        probes = [
            ParityColoring(black=frozenset(v for v in r.vertices() if rng.random() < 0.5), mode=STANDARD)
            for _ in range(4)
        ]
        new = answers(r, probes)
        with monkeypatch.context() as m:
            m.setattr(amiable, "_pair_relations", pair_relations_by_sums)
            assert answers(r, probes) == new


def three_way_answers(r):
    ext = extend_to_amiable(r, identity_f(r))
    std = find_parity_coloring(r, STANDARD)
    sym = find_parity_coloring(r, SYMMETRIC)
    assert (ext is None) == (std is None) == (sym is None)
    if ext is not None:
        assert is_amiable(r, AmiableColoring(f=identity_f(r), g=ext))
        assert is_parity_coloring(r, std, STANDARD)
        assert is_parity_coloring(r, sym, SYMMETRIC)
    return ext, std, sym


def test_parity_and_extension_have_no_size_guard():
    # no edges: everything white, at any number of columns
    ext, std, sym = three_way_answers(RowGraph(21, []))
    assert ext == {} and std.black == sym.black == frozenset()
    # 40 columns: closed walks inside one row each, and cross edges in
    # parallel pairs, so the identity f extends (every edge of a walk takes
    # one color that differs from its row; each pair takes one color twice)
    rng = random.Random(40)
    edges = []
    for _ in range(12):
        i = rng.randint(1, 3)
        cols = rng.sample(range(1, 41), rng.randint(2, 8))
        for p, q in zip(cols, cols[1:] + cols[:1]):
            edges.append((len(edges), (i, p), (i, q)))
    for _ in range(10):
        p, q = rng.sample(range(1, 41), 2)
        a, b = (rng.randint(1, 3), p), (rng.randint(1, 3), q)
        edges += [(len(edges), a, b), (len(edges) + 1, a, b)]
    ext, std, sym = three_way_answers(RowGraph(40, edges))
    assert ext is not None


def test_three_way_equivalence_s2():
    for r in enumerate_row_graphs(2, 6):
        f = identity_f(r)
        ext = extend_to_amiable(r, f)
        std = find_parity_coloring(r, STANDARD)
        sym = find_parity_coloring(r, SYMMETRIC)
        assert (ext is None) == (std is None) == (sym is None)


def test_conversion_round_trips():
    checked = 0
    for r in enumerate_row_graphs(2, 6):
        g = extend_to_amiable(r, identity_f(r))
        if g is None:
            continue
        a = AmiableColoring(f=identity_f(r), g=g)
        for mode in (STANDARD, SYMMETRIC):
            phi = amiable_to_parity(r, a, mode)
            assert phi.mode == mode and is_parity_coloring(r, phi, mode)
            assert is_amiable(r, parity_to_amiable(r, phi))
        checked += 1
    assert checked > 1000


def test_conversions_reject_an_unknown_mode():
    r = RowGraph(2, [(0, (1, 1), (1, 2)), (1, (1, 1), (1, 2))])
    a = AmiableColoring(f=identity_f(r), g=extend_to_amiable(r, identity_f(r)))
    with pytest.raises(ValueError, match="unknown mode"):
        amiable_to_parity(r, a, "skew")
    with pytest.raises(ValueError, match="unknown mode"):
        parity_to_amiable(r, ParityColoring(black=frozenset(), mode="skew"))


# -- the four conversions that the two merged ones replaced, kept as referees ----


def _ref_require_identity_f(r, a):
    if any(a.f.get((i, j)) != i for j in range(1, r.s + 1) for i in range(1, r.rows + 1)):
        raise HypothesisError("conversion requires the vertex coloring f(row i) = i")


def _ref_color_degree_in_row(r, a, v, color):
    row = v[0]
    return sum(
        1
        for e in r.edges_at(v)
        if e.a[0] == row and e.b[0] == row and a.g[e.eid] == color
    )


def _ref_row_joins(r, phi):
    joins = {}
    for i in (1, 2, 3):
        blacks = {(i, j) for j in range(1, r.s + 1) if (i, j) in phi.black}
        joins[i] = acyclic_t_join(r.row_subgraph(i), blacks)
    return joins


def _ref_require_rebuild_input(r, phi, mode):
    if phi.mode != mode:
        raise HypothesisError(f"expected a {mode}-mode coloring")
    if not is_eulerian(row_contract(r)):
        raise HypothesisError("column contraction must be eulerian")
    if not is_parity_coloring(r, phi):
        raise HypothesisError("coloring violates the parity conditions")


def _ref_amiable(r, g):
    a = AmiableColoring(f=identity_f(r), g=g)
    if not is_amiable(r, a):
        raise ConstructionInvariantError("rebuilt coloring is not amiable")
    return a


def ref_amiable_to_parity(r, a):
    _ref_require_identity_f(r, a)
    if not is_amiable(r, a):
        raise HypothesisError("coloring is not amiable")
    rules = {1: 2, 2: 3, 3: 2}  # row -> which g-color to count inside the row
    black = set()
    for j in range(1, r.s + 1):
        for i in (1, 2, 3):
            if _ref_color_degree_in_row(r, a, (i, j), rules[i]) % 2 == 1:
                black.add((i, j))
    phi = ParityColoring(black=frozenset(black), mode=STANDARD)
    if not is_parity_coloring(r, phi):
        raise ConstructionInvariantError("extracted coloring violates the parity conditions")
    return phi


def ref_amiable_to_symmetric(r, a):
    _ref_require_identity_f(r, a)
    if not is_amiable(r, a):
        raise HypothesisError("coloring is not amiable")
    black = set()
    for j in range(1, r.s + 1):
        for i in (1, 2, 3):
            if _ref_color_degree_in_row(r, a, (i, j), i % 3 + 1) % 2 == 1:
                black.add((i, j))
    phi = ParityColoring(black=frozenset(black), mode=SYMMETRIC)
    if not is_parity_coloring(r, phi):
        raise ConstructionInvariantError("extracted coloring violates the parity conditions")
    return phi


def ref_parity_to_amiable(r, phi):
    _ref_require_rebuild_input(r, phi, STANDARD)
    joins = _ref_row_joins(r, phi)
    g = {}
    for e in r.edges:
        key = frozenset((e.a[0], e.b[0]))
        if key == frozenset({2}):
            g[e.eid] = 3 if e.eid in joins[2] else 1
        elif key == frozenset({3}):
            g[e.eid] = 2 if e.eid in joins[3] else 1
        elif key == frozenset({1}):
            g[e.eid] = 2 if e.eid in joins[1] else 3
        elif key == frozenset({2, 3}):
            g[e.eid] = 1
        elif key == frozenset({1, 2}):
            g[e.eid] = 3
        else:
            g[e.eid] = 2
    return _ref_amiable(r, g)


def ref_symmetric_to_amiable(r, phi):
    _ref_require_rebuild_input(r, phi, SYMMETRIC)
    joins = _ref_row_joins(r, phi)
    g = {}
    for e in r.edges:
        ra, rb = e.a[0], e.b[0]
        if ra == rb:
            g[e.eid] = ra % 3 + 1 if e.eid in joins[ra] else (ra + 1) % 3 + 1
        else:
            g[e.eid] = ({1, 2, 3} - {ra, rb}).pop()
    return _ref_amiable(r, g)


def random_eulerian_row_graph(rng, s):
    """One to three closed walks over the columns, each step an edge
    between random rows."""
    edges = []
    for _ in range(rng.randint(1, 3)):
        cols = [rng.randint(1, s)]
        for _ in range(rng.randint(1, 5)):
            cols.append(rng.choice([c for c in range(1, s + 1) if c != cols[-1]]))
        if cols[-1] == cols[0]:
            cols.pop()
        if len(cols) < 2:
            continue
        for p, q in zip(cols, cols[1:] + cols[:1]):
            edges.append((len(edges), (rng.randint(1, 3), p), (rng.randint(1, 3), q)))
    return RowGraph(s, edges)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (HypothesisError, ConstructionInvariantError) as exc:
        return type(exc)


def test_merged_conversions_match_the_four_referees():
    """amiable_to_parity in either mode and parity_to_amiable give what the
    four mode-specific conversions gave: on every orbit with s <= 3 and at
    most 6 edges, and on seeded random eulerian row graphs with s = 3 to 6.
    Each rebuild runs on the extracted coloring, on the one
    find_parity_coloring gives, and on that one with a vertex flipped."""
    rng = random.Random(37)
    insts = [
        r
        for s in (1, 2, 3)
        for r in enumerate_row_graphs(s, 6, up_to_rearrangement=True)
    ]
    insts += [random_eulerian_row_graph(rng, rng.randint(3, 6)) for _ in range(1200)]
    referees = {
        STANDARD: (ref_amiable_to_parity, ref_parity_to_amiable),
        SYMMETRIC: (ref_amiable_to_symmetric, ref_symmetric_to_amiable),
    }
    converted = rejected = 0
    for r in insts:
        g = extend_to_amiable(r, identity_f(r))
        for mode, (extract, rebuild) in referees.items():
            found = find_parity_coloring(r, mode)
            phis = [] if found is None else [found]
            if g is not None:
                a = AmiableColoring(f=identity_f(r), g=g)
                phi = amiable_to_parity(r, a, mode)
                assert phi == extract(r, a)
                phis.append(phi)
            if found is not None:
                v = rng.choice(r.vertices())
                phis.append(ParityColoring(black=found.black ^ {v}, mode=mode))
            for phi in phis:
                rebuilt = _outcome(parity_to_amiable, r, phi)
                assert rebuilt == _outcome(rebuild, r, phi)
                if isinstance(rebuilt, AmiableColoring):
                    converted += 1
                else:
                    rejected += 1
    assert converted > 2000 and rejected > 500, (converted, rejected)


def test_rearrangement_equivalence_with_parity():
    """Amiable colorability equals parity-colorability of some
    rearrangement (checked exhaustively on tiny instances)."""
    insts = [r for i, r in enumerate(enumerate_row_graphs(2, 4)) if i % 3 == 0]
    for r in insts:
        has_amiable = brute_force_amiable(r) is not None
        found = False
        for cols in itertools.permutations(range(1, r.s + 1)):
            for rows_combo in itertools.product(
                itertools.permutations((1, 2, 3)), repeat=r.s
            ):
                rearr = Rearrangement(
                    column_perm={j: cols[j - 1] for j in range(1, r.s + 1)},
                    row_perms={
                        j: {i: rows_combo[j - 1][i - 1] for i in (1, 2, 3)}
                        for j in range(1, r.s + 1)
                    },
                )
                r2 = rearr.apply(r)
                if find_parity_coloring(r2, STANDARD) is not None:
                    found = True
                    break
            if found:
                break
        assert found == has_amiable


def test_conversion_requires_identity_f():
    r = RowGraph(2, [(0, (1, 1), (1, 2)), (1, (2, 1), (2, 2))])
    a = brute_force_amiable(r)
    f = dict(identity_f(r))
    f[(1, 1)], f[(2, 1)] = f[(2, 1)], f[(1, 1)]
    with pytest.raises(HypothesisError):
        amiable_to_parity(r, AmiableColoring(f=f, g=a.g))


def test_double_cross_edge_has_standard_parity_coloring():
    # neighbors are counted with edge multiplicity: the two parallel edges
    # make (2,2) see row 1 twice
    r = RowGraph(2, [(0, (1, 1), (2, 2)), (1, (1, 1), (2, 2))])
    assert find_parity_coloring(r, STANDARD) is not None


def test_parity_routines_refuse_fewer_than_three_rows():
    """A 2-row graph with a column gets an error that says what is wrong,
    not a KeyError; one with no column has nothing to check."""
    r = RowGraph(2, [(0, (1, 1), (2, 2)), (1, (2, 1), (1, 2))], rows=2)
    for call in (
        lambda: find_parity_coloring(r, STANDARD),
        lambda: is_parity_coloring(r, ParityColoring(black=frozenset(), mode=SYMMETRIC)),
    ):
        with pytest.raises(HypothesisError, match=r"^parity colorings need 3 rows; the row graph has 2$"):
            call()
    assert find_parity_coloring(RowGraph(0, [], rows=2), STANDARD) is not None


# -- frame-level normalization -------------------------------------------------------


def test_normalize_cube_two_squares():
    g = cube_graph()
    squares = [e for e, a, b in g.edges() if (a ^ b) in (1, 2)]
    f = validate_frame(g, squares)
    coloring, witness = find_well_connected_frame_coloring(f)
    f2, col2, h_cols, k = normalize_frame_coloring(f, coloring, witness)
    assert k == 0
    r = build_row_graph(g, f2, col2)
    a, trace = construct_amiable_main(r, h_cols, k)
    assert is_amiable(r, a)


def test_normalize_petersen_spanning_subdivision():
    g = petersen()
    frame = next(search_frames(g, "exhaustive"))
    coloring, witness = find_well_connected_frame_coloring(frame)
    f2, col2, h_cols, k = normalize_frame_coloring(frame, coloring, witness)
    assert k == 1
    r = build_row_graph(g, f2, col2)
    a, trace = construct_amiable_main(r, h_cols, k)
    assert is_amiable(r, a)


def _component_key(c):
    cls = c.classification
    base = None if cls.base is None else (list(cls.base.vertices), cls.base.edges())
    return (c.label, c.kind, c.vertices, c.edge_ids,
            (cls.kind, base, cls.path_map, cls.witness_coloring))


def _relabel_cases():
    yield pytest.param(prism(), id="prism")
    yield pytest.param(cube_graph(), id="cube")
    yield pytest.param(petersen(), id="petersen")
    for idx, g in enumerate(cubic_corpus(8)):
        yield pytest.param(g, id=f"corpus8_{idx}")


@pytest.mark.parametrize("g", list(_relabel_cases()))
def test_normalize_relabel_matches_revalidation(g):
    """normalize_frame_coloring relabels the components it already holds
    instead of validating the frame again; on every frame the exhaustive
    search finds, the frame it returns must equal the one validate_labeled
    builds from the same labeling."""
    frames = checked = 0
    for frame in search_frames(g, "exhaustive"):
        frames += 1
        found = find_well_connected_frame_coloring(frame)
        if found is None:
            continue
        coloring, witness = found
        trace = ConstructionTrace()
        relabeled, col2, _, _ = normalize_frame_coloring(frame, coloring, witness, trace)
        order = trace.find("relabel")["order"]
        comp_by_label = {c.label: c for c in frame.components}
        reference = validate_labeled(
            g, frame.frame_edges, [comp_by_label[l].vertices for l in order]
        )
        assert [_component_key(c) for c in relabeled.components] == [
            _component_key(c) for c in reference.components
        ]
        assert relabeled.chords == reference.chords
        assert relabeled.label_of == reference.label_of
        assert edge_signature(build_row_graph(g, relabeled, col2)) == edge_signature(
            build_row_graph(g, reference, col2)
        )
        checked += 1
    # bridged graphs have no frame; every other graph here is covered
    assert checked > 0 or frames == 0


# -- the witness piece: the restart loop as referee -------------------------------


def _recolor(coloring, comp, color):
    vc = dict(coloring.vertex_color)
    ec = dict(coloring.edge_color)
    for v in comp.vertices:
        if v in vc:
            vc[v] = color
    for e in comp.edge_ids:
        ec[e] = color
    return PerfectColoring(vertex_color=vc, edge_color=ec)


def _color1_piece(frame, coloring, anchors):
    """Labels of the color-1 piece of the colored contraction that holds
    every anchor, rebuilt from scratch."""
    cc = build_colored_contraction(frame, coloring)
    eids = [e for e, c in cc.edge_color.items() if c == 1]
    sub = cc.contracted.graph.subgraph_of_edges(eids, keep_vertices=cc.contracted.graph.vertices)
    for comp in components(sub):
        if anchors <= set(comp):
            return set(comp)
    raise ConstructionInvariantError("witness components are not joined by color 1")


def restart_normalize(frame, coloring, witness):
    """normalize_frame_coloring as a fixed-point loop: rebuild the color-1
    piece, absorb the first cycle that the first qualifying free edge
    reaches, and start the scan again.  Quadratic in the number of cycles;
    kept as the referee.  Returns (frame, coloring, h_columns, k, trace)."""
    trace = ConstructionTrace()
    if witness.color != 1:
        swap = {witness.color: 1, 1: witness.color}
        coloring = PerfectColoring(
            vertex_color={v: swap.get(c, c) for v, c in coloring.vertex_color.items()},
            edge_color={e: swap.get(c, c) for e, c in coloring.edge_color.items()},
        )
        trace.record("witness_color_swap", swap=[witness.color, 1])
    k_labels = set(frame.k_labels())
    anchors = set(k_labels) if k_labels else set(witness.h_labels)
    label_of = frame.label_of
    comp_by_label = {c.label: c for c in frame.components}
    h_labels = _color1_piece(frame, coloring, anchors)
    absorbed = []
    grown = True
    while grown:
        grown = False
        for eid in frame.free_edges:
            v, w = frame.host.endpoints(eid)
            for a, b in ((v, w), (w, v)):
                la, lb = label_of[a], label_of[b]
                if (
                    la in h_labels
                    and lb not in h_labels
                    and coloring.vertex_color.get(a) == 1
                    and comp_by_label[lb].kind == "C"
                ):
                    coloring = _recolor(coloring, comp_by_label[lb], 1)
                    absorbed.append(lb)
                    h_labels = _color1_piece(frame, coloring, anchors)
                    grown = True
                    break
            if grown:
                break
    if absorbed:
        trace.record("absorbed_components", labels=absorbed)
    recolored = []
    for comp in frame.components:
        if comp.kind == "C" and comp.label not in h_labels and coloring.edge_color[comp.edge_ids[0]] == 1:
            coloring = _recolor(coloring, comp, 2)
            recolored.append(comp.label)
    if recolored:
        trace.record("recolored_outside_witness", labels=recolored)
        assert _color1_piece(frame, coloring, anchors) == h_labels
    k_sorted = sorted(k_labels)
    h_c = sorted(l for l in h_labels if l not in k_labels)
    rest = sorted(l for l in comp_by_label if l not in h_labels and l not in k_labels)
    order = k_sorted + h_c + rest
    new_frame = replace(
        frame,
        components=tuple(replace(comp_by_label[l], label=i) for i, l in enumerate(order, start=1)),
    )
    k = len(k_sorted)
    h_columns = frozenset(range(1, k + len(h_c) + 1))
    trace.record("relabel", order=order, k_columns=k, h_columns=sorted(h_columns))
    return new_frame, coloring, h_columns, k, trace


def _comparable_steps(trace):
    """Trace steps with the absorbed labels as a set: the walk and the
    restart loop absorb the same cycles in different orders."""
    return [
        {**step, "labels": sorted(step["labels"])} if step["step"] == "absorbed_components" else step
        for step in trace.steps
    ]


def _witnessed_colorings(frame, limit=None):
    for coloring in itertools.islice(enumerate_frame_colorings(frame), limit):
        witness = well_connected_witness(frame, coloring)
        if witness is not None:
            yield coloring, witness


def _referee_frames():
    """(frame, how many of its colorings to take, None for all): every
    exhaustive frame of the corpus up to 8 vertices, and seeded frames with
    two to four K4 subdivisions."""
    for g in cubic_corpus(8):
        for frame in search_frames(g, "exhaustive"):
            yield frame, None
    for g, frame_edges in planted_multi_k_hosts(range(20)):
        yield validate_frame(g, frame_edges), 200
    rng = random.Random(4)
    for _ in range(4):
        g, frame_edges = planted_host(64 + rng.choice((0, 4, 8)), rng, 4)
        yield validate_frame(g, frame_edges), 200


def _referee_cases():
    for frame, limit in _referee_frames():
        yield from ((frame, *found) for found in _witnessed_colorings(frame, limit))


def test_witness_matches_the_contraction_referee():
    """The witness read off the rows of the row graph is the one the
    separately built colored contraction gives, color and piece, on every
    coloring taken from the referee frames, those with no witness too."""
    with_witness = without = 0
    for frame, limit in _referee_frames():
        for coloring in itertools.islice(enumerate_frame_colorings(frame), limit):
            witness = well_connected_witness(frame, coloring)
            assert witness == referee_witness(frame, coloring)
            with_witness += witness is not None
            without += witness is None
    assert with_witness > 2000 and without > 500, (with_witness, without)


def test_grown_piece_matches_the_restart_loop():
    """The one walk that grows the witness piece gives the restart loop's
    frame, coloring, h columns, k and absorbed cycles on every witnessed
    coloring of every exhaustive frame of the corpus up to 8 vertices, and
    on seeded frames with two to four K4 subdivisions."""
    cases = absorbing = 0
    for frame, coloring, witness in _referee_cases():
        trace = ConstructionTrace()
        f2, col2, h_cols, k = normalize_frame_coloring(frame, coloring, witness, trace)
        ref_frame, ref_col, ref_h, ref_k, ref_trace = restart_normalize(frame, coloring, witness)
        assert [_component_key(c) for c in f2.components] == [
            _component_key(c) for c in ref_frame.components
        ]
        assert (col2.vertex_color, col2.edge_color) == (ref_col.vertex_color, ref_col.edge_color)
        assert (h_cols, k) == (ref_h, ref_k)
        assert _comparable_steps(trace) == _comparable_steps(ref_trace)
        cases += 1
        absorbing += trace.find("absorbed_components") is not None
    assert cases > 1000 and absorbing > 100, (cases, absorbing)


# Measured at 1.06 lookups per edge at 500 vertices and 1.02 at 2,000; the
# restart loop made 114 and 466.
NORMALIZE_LOOKUPS_PER_EDGE = 10


@pytest.mark.parametrize("n", [500, 2000])
def test_normalization_work_is_linear(n, monkeypatch):
    """Edge lookups per host edge during normalize_frame_coloring stay under
    one constant at both sizes when every cycle must be absorbed, so a
    piece rebuilt per absorbed cycle shows up as a failure, with no clock
    involved."""
    g, frame_edges = planted_host(n, random.Random(n))
    f = validate_frame(g, frame_edges)
    coloring, _ = find_well_connected_frame_coloring(f)
    vc, ec = dict(coloring.vertex_color), dict(coloring.edge_color)
    for comp in f.components:
        if comp.kind == "C":
            vc.update((v, 2) for v in comp.vertices)
            ec.update((e, 2) for e in comp.edge_ids)
    coloring = PerfectColoring(vertex_color=vc, edge_color=ec)
    witness = well_connected_witness(f, coloring)
    calls = 0
    endpoints = Multigraph.endpoints

    def counted(self, eid):
        nonlocal calls
        calls += 1
        return endpoints(self, eid)

    trace = ConstructionTrace()
    monkeypatch.setattr(Multigraph, "endpoints", counted)
    normalize_frame_coloring(f, coloring, witness, trace)
    monkeypatch.undo()
    absorbed = trace.find("absorbed_components")["labels"]
    assert len(absorbed) > (f.s - 1) // 2
    assert calls / g.num_edges() < NORMALIZE_LOOKUPS_PER_EDGE
