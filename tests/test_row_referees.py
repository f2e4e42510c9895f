"""The row-graph routines read vertex numbers and per-edge end numbers that
each RowGraph builds once.  The tuple-keyed bodies they replaced are kept
here as referees: row_components, _pair_relations, extend_to_amiable,
find_parity_coloring, is_parity_coloring, amiable_violations and
brute_force_amiable."""

import itertools
import random

import pytest

from kotzigcdc import amiable, rowgraph
from kotzigcdc.amiable import STANDARD, SYMMETRIC, ParityColoring, find_parity_coloring, identity_f
from kotzigcdc.errors import HypothesisError, OracleLimitError
from kotzigcdc.rowgraph import (
    AmiableColoring,
    RowGraph,
    _add_rows,
    _column_color_assignments,
    _least_solution,
    enumerate_row_graphs,
    solve_gf2,
)

# -- the tuple-keyed bodies ---------------------------------------------------------


def referee_row_components(r):
    parent = {v: v for v in r.vertices()}

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for e in r.edges:
        if e.a[0] == e.b[0]:
            parent[root(e.a)] = root(e.b)
    comps: dict = {}
    for v in parent:
        comps.setdefault(root(v), []).append(v)
    return list(comps.values())


def referee_amiable_violations(r, a):
    out = []
    for v in r.vertices():
        if v not in a.f:
            out.append(f"vertex {v} uncolored")
    for e in r.edges:
        if e.eid not in a.g:
            out.append(f"edge {e.eid!r} uncolored")
    if out:
        return out
    for j in range(1, r.s + 1):
        colors = [a.f[v] for v in r.column(j)]
        if len(set(colors)) != len(colors):
            out.append(f"column {j} repeats a vertex color")
    count: dict = {}  # (column, color) -> edge ends of that color in the column
    for e in r.edges:
        color = a.g[e.eid]
        for v in (e.a, e.b):
            if a.f[v] == color:
                out.append(f"edge {e.eid!r} shares color {color} with vertex {v}")
            count[v[1], color] = count.get((v[1], color), 0) + 1
    for j in range(1, r.s + 1):
        for color in (1, 2, 3):
            total = count.get((j, color), 0)
            if total % 2 != 0:
                out.append(f"column {j} has odd count {total} of color {color}")
    return out


def referee_extend_to_amiable(r, f):
    for j in range(1, r.s + 1):
        colors = [f[v] for v in r.column(j)]
        if len(set(colors)) != len(colors):
            return None
    nvars = sum(1 for e in r.edges if f[e.a] == f[e.b])
    rhs = 1 << nvars
    equations: dict = {}
    choices = []  # per edge: its color at bit 0, its color at bit 1, the bit
    var = 1
    for e in r.edges:
        if f[e.a] != f[e.b]:
            third = 6 - f[e.a] - f[e.b]
            choice = (third, third, 0)
        else:
            lo, hi = [c for c in (1, 2, 3) if c != f[e.a]]
            choice = (lo, hi, var)
            var <<= 1
        lo, hi, bit = choice
        for j in (e.a[1], e.b[1]):
            equations[(j, lo)] = equations.get((j, lo), 0) ^ rhs ^ bit
            equations[(j, hi)] = equations.get((j, hi), 0) ^ bit
        choices.append(choice)
    solution = solve_gf2(equations.values(), nvars)
    if solution is None:
        return None
    return {e.eid: hi if solution & bit else lo for e, (lo, hi, bit) in zip(r.edges, choices)}


def referee_brute_force_amiable(r, force=False, max_edges=24, max_s=6):
    if not force and len(r.edges) > max_edges:
        raise OracleLimitError(
            f"instance too large for the oracle: {len(r.edges)} edges > max_edges={max_edges}"
        )
    if not force and r.s > max_s:
        raise OracleLimitError(f"instance too large for the oracle: s={r.s} > max_s={max_s}")
    nvars = 2 * len(r.edges)
    rhs = 1 << nvars
    ends = [[[] for _ in range(r.rows)] for _ in range(r.s)]  # the high bit of every edge at (i, j)
    column_bits = [0] * r.s  # the high bits at column j, one per edge end
    for k, e in enumerate(r.edges):
        high = 1 << 2 * k
        for i, j in (e.a, e.b):
            ends[j - 1][i - 1].append(high)
            column_bits[j - 1] ^= high
    if any(bits.bit_count() % 2 for bits in column_bits):
        return None
    pivots = [0] * nvars
    _add_rows(pivots, [row for bits in column_bits for row in (bits, bits << 1)], nvars)
    perms = _column_color_assignments(r.rows)
    chosen = []

    def search(j):
        if j == r.s:
            return True
        for perm in perms if j else perms[:1]:
            added = _add_rows(pivots, [rhs | c * h for hs, c in zip(ends[j], perm) for h in hs], nvars)
            if added is None:
                continue
            chosen.append(perm)
            if search(j + 1):
                return True
            chosen.pop()
            for bit in added:
                pivots[bit] = 0
        return False

    if not search(0):
        return None
    solution = _least_solution(pivots, nvars)
    return AmiableColoring(
        f={(i, j): perm[i - 1] for j, perm in enumerate(chosen, start=1) for i in range(1, r.rows + 1)},
        g={e.eid: (0, 2, 1, 3)[solution >> 2 * k & 3] for k, e in enumerate(r.edges)},
    )


def referee_pair_relations(r, mode):
    nbrs = {v: [0, 0, 0, 0] for v in r.vertices()}  # nbrs[v][i]: neighbours in row i
    for e in r.edges:
        nbrs[e.a][e.b[0]] += 1
        nbrs[e.b][e.a[0]] += 1
    rel12 = []
    rel23 = []
    for j in range(1, r.s + 1):
        n1, n2, n3 = nbrs[(1, j)], nbrs[(2, j)], nbrs[(3, j)]
        rel12.append((n1[1] + n1[2] + n2[1]) % 2 == 0)
        b = n2[2] + n2[3] + n3[2] + (n3[3] if mode == STANDARD else 0)
        rel23.append(b % 2 == 0)
    return rel12, rel23


def referee_is_parity_coloring(r, phi, mode=None):
    mode = mode or phi.mode
    amiable._require_mode(mode)
    rel12, rel23 = referee_pair_relations(r, mode)
    for j in range(1, r.s + 1):
        same12 = ((1, j) in phi.black) == ((2, j) in phi.black)
        if same12 != rel12[j - 1]:
            return False
        same23 = ((2, j) in phi.black) == ((3, j) in phi.black)
        if same23 != rel23[j - 1]:
            return False
    for comp in referee_row_components(r):
        if sum(1 for v in comp if v in phi.black) % 2 != 0:
            return False
    return True


def referee_find_parity_coloring(r, mode):
    rel12, rel23 = referee_pair_relations(r, mode)
    flip = {}  # does (i, j) take the other color than (1, j)?
    for j in range(1, r.s + 1):
        flip[(1, j)] = 0
        flip[(2, j)] = int(not rel12[j - 1])
        flip[(3, j)] = flip[(2, j)] ^ int(not rel23[j - 1])
    rhs = 1 << r.s
    equations = []
    for comp in referee_row_components(r):
        row = 0
        for v in comp:
            row ^= 1 << (v[1] - 1) | rhs * flip[v]
        equations.append(row)
    bits = solve_gf2(equations, r.s)
    if bits is None:
        return None
    black = frozenset(v for v in flip if (bits >> (v[1] - 1) & 1) ^ flip[v])
    return ParityColoring(black=black, mode=mode)


# -- the sweep -----------------------------------------------------------------------


def outcome(fn, *args):
    """What a call gives, down to dict order, or the type and text of
    what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return "raised", type(exc), str(exc)
    if isinstance(value, AmiableColoring):
        return "coloring", list(value.f.items()), list(value.g.items())
    if isinstance(value, dict):
        return "dict", list(value.items())
    return "value", value


def agrees(new, ref, r) -> bool:
    """Whether an outcome is the referee's.  A parity routine on a row
    graph with fewer than 3 rows and a column is the one exception: the
    referee runs into a bare KeyError((3, 1)) where the routine raises a
    HypothesisError that names the row count."""
    if ref == ("raised", KeyError, str(KeyError((3, 1)))):
        assert r.rows == 2 and r.s
        return new == ("raised", HypothesisError, "parity colorings need 3 rows; the row graph has 2")
    return new == ref


def edge_id(k: int, kind: int, rng: random.Random):
    """Edge k's id: an int, a str or a tuple, or for kind 3 any of them."""
    kind = rng.randrange(3) if kind == 3 else kind
    return (k, f"e{k}", (k, "x"))[kind]


def random_row_graphs(count: int, seed: int) -> list[RowGraph]:
    """Row graphs with 1 to 6 columns and 0 to 14 edges, eulerian or not,
    on ints, strs, tuples and mixed edge ids in turn."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        s = rng.randint(1, 6)
        edges = []
        for k in range(rng.randint(0, 14) if s > 1 else 0):
            p, q = rng.sample(range(1, s + 1), 2)
            edges.append((edge_id(k, n % 4, rng), (rng.randint(1, 3), p), (rng.randint(1, 3), q)))
        out.append(RowGraph(s, edges))
    return out


def referee_instances() -> list[RowGraph]:
    orbits = [
        r
        for s, max_edges, rows in [(s, 6, rows) for rows in (3, 2) for s in range(4)] + [(4, 5, 3)]
        for r in enumerate_row_graphs(s, max_edges, rows=rows, eulerian_only=False, up_to_rearrangement=True)
    ]
    return orbits + random_row_graphs(500, 19) + [RowGraph(0, [])]


def vertex_colorings(r: RowGraph, rng: random.Random) -> list[dict]:
    """The identity, two rainbow colorings, one with a random color at
    every vertex and one rainbow coloring that misses a vertex."""
    perms = list(itertools.permutations((1, 2, 3), r.rows))
    fs = [identity_f(r)]
    for _ in range(2):
        columns = [rng.choice(perms) for _ in range(r.s)]
        fs.append({(i, j): columns[j - 1][i - 1] for j in range(1, r.s + 1) for i in range(1, r.rows + 1)})
    fs.append({v: rng.randint(1, 3) for v in r.vertices()})
    if r.s:
        fs.append(dict(list(fs[1].items())[:-1]))
    return fs


def test_index_routines_match_the_tuple_keyed_referees():
    """The same answers, down to dict order, and the same error types and
    texts as the referees: every orbit with at most 3 columns and 6 edges
    (3 rows and 2 rows), every orbit with 4 columns and at most 5 edges,
    500 seeded graphs and the graph with no columns, eulerian or not.
    Each graph is tried in all three modes, at five vertex colorings, on
    the colorings found and on some that are not amiable or not parity
    colorings."""
    rng = random.Random(1919)
    instances = referee_instances()
    assert len(instances) == 1893 + 541 + 1085 + 500 + 1
    raised = found = 0
    for r in instances:
        assert rowgraph.row_components(r) == referee_row_components(r)
        oracle = outcome(rowgraph.brute_force_amiable, r)
        assert oracle == outcome(referee_brute_force_amiable, r)
        found += oracle[0] == "coloring"
        phis = [ParityColoring(black=frozenset(), mode=STANDARD)]
        for mode in (STANDARD, SYMMETRIC, "skew"):
            assert agrees(outcome(amiable._pair_relations, r, mode), outcome(referee_pair_relations, r, mode), r)
            answer = outcome(find_parity_coloring, r, mode)
            assert agrees(answer, outcome(referee_find_parity_coloring, r, mode), r)
            raised += answer[0] == "raised"
            if answer[0] == "value" and answer[1] is not None:
                phi = answer[1]
                phis.append(phi)
                phis += [ParityColoring(black=phi.black ^ {v}, mode=phi.mode) for v in r.vertices()[:3]]
        coin = frozenset(v for v in r.vertices() if rng.random() < 0.5)
        phis.append(ParityColoring(black=coin, mode=SYMMETRIC))
        for phi in phis:
            for mode in (None, STANDARD, SYMMETRIC, "skew"):
                assert agrees(
                    outcome(amiable.is_parity_coloring, r, phi, mode),
                    outcome(referee_is_parity_coloring, r, phi, mode),
                    r,
                )
        colorings = []
        for f in vertex_colorings(r, rng):
            g = outcome(rowgraph.extend_to_amiable, r, f)
            assert g == outcome(referee_extend_to_amiable, r, f)
            if g[0] == "dict":
                colorings.append(AmiableColoring(f=f, g=dict(g[1])))
            guess = {e.eid: rng.randint(1, 3) for e in r.edges}
            colorings.append(AmiableColoring(f=f, g=guess))
            colorings.append(AmiableColoring(f=f, g=dict(list(guess.items())[1:])))
        if oracle[0] == "coloring":
            colorings.append(AmiableColoring(f=dict(oracle[1]), g=dict(oracle[2])))
        for a in colorings:
            assert outcome(rowgraph.amiable_violations, r, a) == outcome(referee_amiable_violations, r, a)
    assert 0 < found < len(instances)
    assert raised == 3 * 540  # every 2-row graph with a column, in all three modes


def test_row_components_are_worked_out_once_per_graph(monkeypatch):
    """Both parity searches, the parity check and row_components share
    one union-find pass over a row graph."""
    calls = []
    union_rows = rowgraph._union_rows

    def counted(r):
        calls.append(r)
        return union_rows(r)

    monkeypatch.setattr(rowgraph, "_union_rows", counted)
    r = RowGraph(3, [(0, (1, 1), (1, 2)), (1, (1, 2), (1, 3)), (2, (2, 1), (3, 3)), (3, (2, 1), (3, 3))])
    std = find_parity_coloring(r, STANDARD)
    sym = find_parity_coloring(r, SYMMETRIC)
    assert std is not None and sym is not None
    assert amiable.is_parity_coloring(r, std) and amiable.is_parity_coloring(r, sym)
    assert rowgraph.row_components(r) == referee_row_components(r)
    assert calls == [r]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, (1, 1), (1, 2)), (0, (2, 1), (2, 2))], "duplicate row edge id 0"),
        ([("a", (1, 1), (4, 2))], "edge 'a' uses vertex (4, 2) outside the grid"),
        ([("a", (1, 0), (4, 2))], "edge 'a' uses vertex (1, 0) outside the grid"),
        ([((0, 1), (1, 2), (3, 2))], "edge (0, 1) lies inside column 2 (columns are independent)"),
    ],
)
def test_row_graph_refusals_keep_their_text(edges, message):
    with pytest.raises(ValueError) as caught:
        RowGraph(2, edges)
    assert str(caught.value) == message
