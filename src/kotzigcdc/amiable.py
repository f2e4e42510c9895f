"""Constructive amiable colorings and the parity-coloring equivalences.

The central routine turns a row graph whose first row is "concentrated"
(all non-isolated first-row vertices in one component, the remaining
first-row vertices fully isolated) into an amiable coloring:

  1. identify rows 2 and 3 column-wise and take an acyclic t-join of the
     odd-degree columns;
  2. swap rows 2/3 in some columns of a working copy so the t-join uses
     no cross-row edges (always possible because the join is acyclic);
  3. color f = (2, 3, 1) down each column, give color 2 to the lower-rows
     edges outside the join;
  4. compare row-1/row-2 degrees in the mixed subgraph (cross edges +
     row-1 edges + row-2 join edges) column by column; the mismatching
     columns get fixed by an acyclic t-join inside row 1, whose edges and
     the remaining mixed edges receive colors 3 and 1;
  5. everything left is color 3;
  6. carry the coloring back through the swaps of step 2, so a swapped
     column has f = (2, 1, 3).

Every construction here returns a coloring that is amiable on the row
graph it was given.  Feasibility of the row-1 join is exactly what the
concentration precondition buys; a failure there is reported loudly,
never masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .errors import ConstructionInvariantError, FrameError, HypothesisError
from .frame import C_KIND, Frame, PerfectColoring, Witness, is_perfect_coloring
from .multigraph import Multigraph, components, is_eulerian, sorted_edge_ids
from .rowgraph import (
    AmiableColoring,
    Rearrangement,
    RowEdge,
    RowGraph,
    amiable_violations,
    build_row_graph,
    is_amiable,
    row_contract,
    solve_gf2,
)
from .switching import acyclic_t_join, resolve_two_row


@dataclass
class ConstructionTrace:
    """Ordered audit log of every choice a construction makes."""

    steps: list = field(default_factory=list)

    def record(self, name: str, **payload) -> None:
        self.steps.append({"step": name, **payload})

    def find(self, name: str) -> dict | None:
        for step in self.steps:
            if step["step"] == name:
                return step
        return None

    def to_json(self) -> dict:
        return {"steps": self.steps}


def identity_f(r: RowGraph) -> dict:
    return {(i, j): i for j in range(1, r.s + 1) for i in range(1, r.rows + 1)}


def _require_eulerian(r: RowGraph) -> None:
    if not is_eulerian(row_contract(r)):
        raise HypothesisError("column contraction must be eulerian")


def _require_amiable(r: RowGraph, a: AmiableColoring, what: str) -> None:
    """Raise ConstructionInvariantError, naming what was built, unless a is
    amiable on r."""
    problems = amiable_violations(r, a)
    if problems:
        raise ConstructionInvariantError(f"{what}: {problems}")


# -- the core construction -----------------------------------------------------


def _run_engine(r: RowGraph, trace: ConstructionTrace) -> AmiableColoring:
    """Produce an amiable coloring of r with f = (2, 3, 1) down every
    column, or (2, 1, 3) down the columns swapped to straighten the lower
    join.

    The caller is responsible for the concentration precondition; if the
    row-1 join turns out infeasible regardless, ConstructionInvariantError
    is raised.
    """
    s = r.s
    _require_eulerian(r)

    lower = r.edges_within_rows({2, 3})
    identified = Multigraph(range(1, s + 1), [(e.eid, e.a[1], e.b[1]) for e in lower])
    odd_columns = [v for v in identified.vertices if identified.degree(v) % 2 == 1]
    join_lower = acyclic_t_join(identified, odd_columns)
    trace.record(
        "lower_join",
        odd_columns=sorted(odd_columns),
        edges=sorted_edge_ids(join_lower),
    )

    # the engine runs on a copy with rows 2/3 swapped in some columns
    work = r
    emap = r.edge_map()
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
        emap = work.edge_map()
        lower = work.edges_within_rows({2, 3})

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
    _require_amiable(r, coloring, "constructed coloring is not amiable")
    trace.record("amiable", f_rows=[2, 3, 1])
    return coloring


def _multi_components(r: RowGraph, row: int) -> list[list]:
    """The components of one row's subgraph with more than one vertex."""
    return [c for c in components(r.row_subgraph(row)) if len(c) >= 2]


def _column_is_dormant(r: RowGraph, j: int) -> bool:
    """Row-1 vertex fully isolated and at most one busy vertex below it."""
    if r.degree((1, j)) != 0:
        return False
    busy = sum(1 for i in (2, 3) if r.degree((i, j)) > 0)
    return busy <= 1


def construct_amiable_main(
    r: RowGraph,
    h_columns: Iterable[int] | None = None,
    k: int | None = None,
    trace: ConstructionTrace | None = None,
) -> tuple[AmiableColoring, ConstructionTrace]:
    """Amiable coloring of a row graph in witness-normalized form.

    Expects the shape produced by normalize_frame_coloring: at most one
    non-trivial component in row 1, and every column whose row-1 vertex is
    isolated within row 1 either dormant or listed in h_columns.  Returns
    the coloring, amiable on r itself, together with the trace.
    """
    trace = trace or ConstructionTrace()
    h_columns = set(h_columns or ())
    if k is not None:
        trace.record("layout", k_columns=k, h_columns=sorted(h_columns))
    multi = _multi_components(r, 1)
    if len(multi) > 1:
        raise HypothesisError("row 1 splits into more than one non-trivial component")
    big = set(multi[0]) if multi else set()
    for j in range(1, r.s + 1):
        if (1, j) in big:
            continue
        if _column_is_dormant(r, j) or j in h_columns:
            continue
        raise HypothesisError(
            f"column {j} is neither dormant nor part of the connected witness"
        )
    coloring = _run_engine(r, trace)
    # the parity-repair targets must stay inside the witness piece
    targets = set(trace.find("row1_join_targets")["columns"])
    allowed = {v[1] for v in big} | h_columns
    if not targets <= allowed:
        raise ConstructionInvariantError(
            f"repair columns {sorted(targets - allowed)} escape the witness piece"
        )
    return coloring, trace


def _solve_with_rows_to_front(
    r: RowGraph, chosen: dict[int, int], trace: ConstructionTrace
) -> AmiableColoring:
    """Swap each column's chosen row with row 1, run the engine on that
    copy and carry the coloring back (row swaps are their own inverse)."""
    rearr = Rearrangement.row_swaps(r, {j: (i, 1) for j, i in chosen.items()})
    result = rearr.transport_amiable(_run_engine(rearr.apply(r), trace))
    _require_amiable(r, result, "transported coloring lost amiability")
    return result


# -- constructive corollaries ---------------------------------------------------


def construct_amiable_concentrated_row(
    r: RowGraph, row: int, trace: ConstructionTrace | None = None
) -> AmiableColoring:
    """Amiable coloring when one row carries at most one non-trivial
    component and the columns meeting that row's isolated vertices have at
    most one busy vertex each.

    The coloring returned is valid on r itself (any internal rearranging is
    undone).  Raises HypothesisError when the shape does not hold.
    """
    trace = trace or ConstructionTrace()
    if row not in range(1, r.rows + 1):
        raise HypothesisError(f"row {row} out of range")
    _require_eulerian(r)

    multi = _multi_components(r, row)
    if len(multi) > 1:
        raise HypothesisError(
            f"row {row} has {len(multi)} components with more than one vertex"
        )
    big_cols = {v[1] for comp in multi for v in comp}
    chosen: dict[int, int] = {}
    for j in range(1, r.s + 1):
        if j in big_cols:
            chosen[j] = row
            continue
        # (row, j) is isolated within its row: the column may have at most
        # one busy vertex, and row 1 must end up fully isolated.
        busy = _busy_vertices(r, j)
        if len(busy) > 1:
            raise HypothesisError(
                f"column {j} has {len(busy)} busy vertices next to an isolated "
                f"row-{row} vertex"
            )
        chosen[j] = _first_idle_row(r, j)
    trace.record("row_to_front", row=row, chosen_rows=chosen)
    return _solve_with_rows_to_front(r, chosen, trace)


def _extract_columns(r: RowGraph, cols: Sequence[int]) -> tuple[RowGraph, dict[int, int]]:
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


def _merge_part_coloring(
    merged_f: dict, merged_g: dict, part: AmiableColoring, mapping: dict[int, int]
) -> None:
    back = {new: old for old, new in mapping.items()}
    for (i, j), c in part.f.items():
        merged_f[(i, back[j])] = c
    merged_g.update(part.g)


def _busy_vertices(r: RowGraph, j: int) -> list:
    return [(i, j) for i in range(1, r.rows + 1) if r.degree((i, j)) > 0]


def _first_idle_row(r: RowGraph, j: int) -> int | None:
    """The least row whose vertex in column j has no edge, or None."""
    return next((i for i in range(1, r.rows + 1) if r.degree((i, j)) == 0), None)


def _solve_loose_part(r: RowGraph, special: int | None, trace: ConstructionTrace) -> AmiableColoring:
    """Engine entry for a part in which every non-special column has at
    most one busy vertex."""
    for j in range(1, r.s + 1):
        if j == special:
            continue
        if len(_busy_vertices(r, j)) > 1:
            raise HypothesisError(f"column {j} has more than one busy vertex")
    chosen: dict[int, int] = {}
    anchor_edge = None
    if special is not None and len(_busy_vertices(r, special)) >= 2:
        # tie the special column into row 1 through one of its edges
        v = _busy_vertices(r, special)[0]
        anchor_edge = min(r.edges_at(v), key=lambda e: repr(e.eid))
        u = anchor_edge.other(v)
        chosen[special] = v[0]
        chosen[u[1]] = u[0]
    for j in range(1, r.s + 1):
        if j in chosen:
            continue
        # a special column with <=1 busy vertex but no idle row stays as it is
        chosen[j] = _first_idle_row(r, j) or 1
    trace.record(
        "loose_part",
        special=special,
        anchor_edge=None if anchor_edge is None else anchor_edge.eid,
        chosen_rows=chosen,
    )
    return _solve_with_rows_to_front(r, chosen, trace)


def _shortest_cross_column_path(r: RowGraph, p: int, q: int) -> list | None:
    """Shortest path between any vertex of column p and any vertex of
    column q; None if the columns lie in different pieces of the graph."""
    sources = [(i, p) for i in range(1, r.rows + 1)]
    parent: dict = {v: None for v in sources}
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


def construct_amiable_two_busy_columns(
    r: RowGraph, p: int, q: int, trace: ConstructionTrace | None = None
) -> AmiableColoring:
    """Amiable coloring when every column except p and q has two isolated
    vertices (hence at most one busy vertex).

    If some path joins columns p and q it is rotated into row 1 and the
    concentrated-row construction applies; otherwise the graph splits into
    independent parts that are solved separately and merged.
    """
    trace = trace or ConstructionTrace()
    if p == q or p not in range(1, r.s + 1) or q not in range(1, r.s + 1):
        raise HypothesisError("need two distinct valid column indices")
    _require_eulerian(r)
    for j in range(1, r.s + 1):
        if j in (p, q):
            continue
        if len(_busy_vertices(r, j)) > 1:
            raise HypothesisError(
                f"column {j} must contain two isolated vertices"
            )

    path = _shortest_cross_column_path(r, p, q)
    if path is not None:
        cols_seen = [v[1] for v in path]
        assert len(set(cols_seen)) == len(cols_seen), "shortest path revisits a column"
        chosen = {v[1]: v[0] for v in path}
        for j in range(1, r.s + 1):
            if j in chosen:
                continue
            idle = _first_idle_row(r, j)
            if idle is None:
                raise HypothesisError(f"column {j} must contain two isolated vertices")
            chosen[j] = idle
        trace.record("path_to_front", path=[list(v) for v in path])
        return _solve_with_rows_to_front(r, chosen, trace)

    # no path: split along connected pieces of the column contraction
    rc = row_contract(r)
    groups = components(rc)
    part_cols: list[list[int]] = []
    specials: list[int | None] = []
    loose: list[int] = []
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

    merged_f: dict = {}
    merged_g: dict = {}
    for cols, special in zip(part_cols, specials):
        part, mapping = _extract_columns(r, cols)
        part_special = mapping[special] if special is not None else None
        part_coloring = _solve_loose_part(part, part_special, trace)
        _merge_part_coloring(merged_f, merged_g, part_coloring, mapping)
    result = AmiableColoring(f=merged_f, g=merged_g)
    _require_amiable(r, result, "merged coloring is not amiable")
    return result


# -- parity colorings ------------------------------------------------------------

STANDARD = "standard"
SYMMETRIC = "symmetric"
BLACK = "black"
WHITE = "white"


@dataclass(frozen=True)
class ParityColoring:
    """Black/white vertex coloring of a 3-row graph."""

    black: frozenset
    mode: str

    def color(self, v) -> str:
        return BLACK if v in self.black else WHITE

    def to_json(self) -> dict:
        return {"mode": self.mode, "black": sorted([list(v) for v in self.black])}

    @staticmethod
    def from_json(obj: dict) -> "ParityColoring":
        return ParityColoring(
            black=frozenset((i, j) for i, j in obj["black"]), mode=obj["mode"]
        )


def _row_components(r: RowGraph) -> list[list]:
    """The components of rows 1, 2 and 3, each row's subgraph taken with
    all s of its vertices, so an isolated vertex is a component of its
    own: one union-find pass over the edges inside a row."""
    parent = {(i, j): (i, j) for j in range(1, r.s + 1) for i in (1, 2, 3)}

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


def _pair_relations(r: RowGraph, mode: str) -> tuple[list[bool], list[bool]]:
    """Per column: must phi agree on rows (1,2) and on rows (2,3)?

    One pass over the edges counts, for each vertex, its neighbours in
    each row with edge multiplicity; both relations read those counts."""
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


def _require_mode(mode: str) -> None:
    if mode not in (STANDARD, SYMMETRIC):
        raise ValueError(f"unknown mode {mode!r}")


def is_parity_coloring(r: RowGraph, phi: ParityColoring, mode: str | None = None) -> bool:
    """Literal evaluation of the parity-coloring conditions (neighbor
    counts with edge multiplicity)."""
    mode = mode or phi.mode
    _require_mode(mode)
    rel12, rel23 = _pair_relations(r, mode)
    for j in range(1, r.s + 1):
        same12 = ((1, j) in phi.black) == ((2, j) in phi.black)
        if same12 != rel12[j - 1]:
            return False
        same23 = ((2, j) in phi.black) == ((3, j) in phi.black)
        if same23 != rel23[j - 1]:
            return False
    for comp in _row_components(r):
        if sum(1 for v in comp if v in phi.black) % 2 != 0:
            return False
    return True


def find_parity_coloring(r: RowGraph, mode: str) -> ParityColoring | None:
    """Exact search over GF(2), one bit per column.

    Bit j-1 says whether (1, j) is black; conditions (i)/(ii) then fix
    (2, j) and (3, j), and every row component needs an even number of
    black vertices, one equation each.  Returns the first solution in the
    order that tries column 1 white first, then column 2, and so on.
    Agrees everywhere with an exhaustive search over all 2^(3s)
    black/white assignments.
    """
    rel12, rel23 = _pair_relations(r, mode)
    flip = {}  # does (i, j) take the other color than (1, j)?
    for j in range(1, r.s + 1):
        flip[(1, j)] = 0
        flip[(2, j)] = int(not rel12[j - 1])
        flip[(3, j)] = flip[(2, j)] ^ int(not rel23[j - 1])
    rhs = 1 << r.s
    equations = []
    for comp in _row_components(r):
        row = 0
        for v in comp:
            row ^= 1 << (v[1] - 1) | rhs * flip[v]
        equations.append(row)
    bits = solve_gf2(equations, r.s)
    if bits is None:
        return None
    black = frozenset(v for v in flip if (bits >> (v[1] - 1) & 1) ^ flip[v])
    return ParityColoring(black=black, mode=mode)


# -- conversions between amiable and parity colorings ----------------------------


def _require_identity_f(r: RowGraph, a: AmiableColoring) -> None:
    if any(a.f.get((i, j)) != i for j in range(1, r.s + 1) for i in range(1, r.rows + 1)):
        raise HypothesisError("conversion requires the vertex coloring f(row i) = i")


def _color_degree_in_row(r: RowGraph, a: AmiableColoring, v, color: int) -> int:
    row = v[0]
    return sum(
        1
        for e in r.edges_at(v)
        if e.a[0] == row and e.b[0] == row and a.g[e.eid] == color
    )


def amiable_to_parity(r: RowGraph, a: AmiableColoring, mode: str = STANDARD) -> ParityColoring:
    """Parity coloring of the given mode read off an amiable coloring.

    A vertex is black when an odd number of its edges inside its row have
    one color: color 2 in row 1, color 3 in row 2, and in row 3 color 2
    (standard) or color 1 (symmetric).
    """
    _require_mode(mode)
    _require_identity_f(r, a)
    if not is_amiable(r, a):
        raise HypothesisError("coloring is not amiable")
    counted = {1: 2, 2: 3, 3: 2 if mode == STANDARD else 1}  # row -> g-color
    black = frozenset(
        v for v in r.vertices() if _color_degree_in_row(r, a, v, counted[v[0]]) % 2 == 1
    )
    phi = ParityColoring(black=black, mode=mode)
    if not is_parity_coloring(r, phi):
        raise ConstructionInvariantError("extracted coloring violates the parity conditions")
    return phi


def _row_joins(r: RowGraph, phi: ParityColoring) -> dict[int, set]:
    joins = {}
    for i in (1, 2, 3):
        blacks = {(i, j) for j in range(1, r.s + 1) if (i, j) in phi.black}
        joins[i] = acyclic_t_join(r.row_subgraph(i), blacks)
    return joins


def parity_to_amiable(r: RowGraph, phi: ParityColoring) -> AmiableColoring:
    """Rebuild an amiable coloring from a parity coloring of either mode.

    An edge between two rows takes the third color.  Inside row i an edge
    on the acyclic t-join of the row's black vertices takes one color and
    any other edge another: (2, 3) in row 1, (3, 1) in row 2, and in row 3
    (2, 1) for a standard coloring or (1, 2) for a symmetric one.
    """
    _require_mode(phi.mode)
    _require_eulerian(r)
    if not is_parity_coloring(r, phi):
        raise HypothesisError("coloring violates the parity conditions")
    in_row = {1: (2, 3), 2: (3, 1), 3: (2, 1) if phi.mode == STANDARD else (1, 2)}
    joins = _row_joins(r, phi)
    g = {}
    for e in r.edges:
        ra, rb = e.a[0], e.b[0]
        if ra == rb:
            on_join, off_join = in_row[ra]
            g[e.eid] = on_join if e.eid in joins[ra] else off_join
        else:
            g[e.eid] = 6 - ra - rb
    a = AmiableColoring(f=identity_f(r), g=g)
    _require_amiable(r, a, "rebuilt coloring is not amiable")
    return a


# -- frame-level normalization and the full constructive path --------------------


def permute_component_colors(
    frame: Frame, coloring: PerfectColoring, perms: dict[int, dict[int, int]]
) -> PerfectColoring:
    """The coloring with the colors of each component whose label is in
    perms renamed by that component's permutation; both maps are copied
    once, whatever the number of components."""
    vc = dict(coloring.vertex_color)
    ec = dict(coloring.edge_color)
    for comp in frame.components:
        perm = perms.get(comp.label)
        if perm is None:
            continue
        for v in comp.vertices:
            if v in vc:
                vc[v] = perm[vc[v]]
        for e in comp.edge_ids:
            ec[e] = perm[ec[e]]
    return PerfectColoring(vertex_color=vc, edge_color=ec)


def normalize_frame_coloring(
    frame: Frame, coloring: PerfectColoring, witness: Witness, trace: ConstructionTrace | None = None
) -> tuple[Frame, PerfectColoring, frozenset, int]:
    """Rewrite (frame, coloring) into the shape the main construction expects.

    Steps: swap the witness color to 1; grow the color-1 piece from an
    anchor (the least K-component, or the witness piece when there is no
    K-component) along the free edges that leave a color-1 vertex of the
    piece: the far component joins when the far end has color 1, and a
    cycle component of another color is absorbed, recolored 1, and joins;
    check that every K-component joined; recolor the remaining color-1
    cycle components to 2; relabel components so the K-components come
    first, then the cycle components inside the piece.
    Returns (relabeled frame, adjusted coloring, h column set, k).

    The piece and the coloring do not depend on the order of the walk: the
    piece only grows and only absorbed cycles change color (to 1), so an
    edge that qualifies keeps qualifying until its far component joins.
    The walk therefore ends at the least piece closed under both moves, and
    the absorbed cycles are the cycles of that piece whose color was not 1.
    """
    if not is_perfect_coloring(frame, coloring):
        raise FrameError("coloring is not perfect for this frame")
    trace = trace or ConstructionTrace()
    swap = {witness.color: 1, 1: witness.color}
    vc = {v: swap.get(c, c) for v, c in coloring.vertex_color.items()}
    ec = {e: swap.get(c, c) for e, c in coloring.edge_color.items()}
    if witness.color != 1:
        trace.record("witness_color_swap", swap=[witness.color, 1])

    label_of = frame.label_of
    comp_by_label = {c.label: c for c in frame.components}
    ends: dict = {label: [] for label in comp_by_label}  # label -> (near, far) per free edge
    for eid in frame.free_edges():
        a, b = frame.host.endpoints(eid)
        ends[label_of[a]].append((a, b))
        ends[label_of[b]].append((b, a))

    def paint(label: int, color: int) -> None:
        comp = comp_by_label[label]
        for v in comp.vertices:
            vc[v] = color
        for e in comp.edge_ids:
            ec[e] = color

    def grow(start: int) -> tuple[set, list]:
        piece, absorbed, todo = {start}, [], [start]
        while todo:
            for a, b in ends[todo.pop()]:
                far = label_of[b]
                if far in piece or vc.get(a) != 1:
                    continue
                if vc.get(b) != 1:
                    if comp_by_label[far].kind != C_KIND:
                        continue
                    paint(far, 1)
                    absorbed.append(far)
                piece.add(far)
                todo.append(far)
        return piece, absorbed

    k_labels = set(frame.k_labels())
    anchors = k_labels or set(witness.h_labels)
    h_labels, absorbed = grow(min(anchors))
    if not anchors <= h_labels:
        raise ConstructionInvariantError("witness components are not joined by color 1")
    if absorbed:
        trace.record("absorbed_components", labels=absorbed)

    recolored = [
        c.label
        for c in frame.components
        if c.kind == C_KIND and c.label not in h_labels and ec[c.edge_ids[0]] == 1
    ]
    if recolored:
        for label in recolored:
            paint(label, 2)
        trace.record("recolored_outside_witness", labels=recolored)
        if grow(min(anchors)) != (h_labels, []):
            raise ConstructionInvariantError("recoloring outside the witness changed it")

    k_sorted = sorted(k_labels)
    h_c = sorted(l for l in h_labels if l not in k_labels)
    rest = sorted(l for l in comp_by_label if l not in h_labels and l not in k_labels)
    order = k_sorted + h_c + rest
    new_frame = replace(
        frame,
        components=tuple(
            replace(comp_by_label[l], label=i) for i, l in enumerate(order, start=1)
        ),
    )
    k = len(k_sorted)
    h_columns = frozenset(range(1, k + len(h_c) + 1))
    trace.record(
        "relabel",
        order=order,
        k_columns=k,
        h_columns=sorted(h_columns),
    )
    return new_frame, PerfectColoring(vertex_color=vc, edge_color=ec), h_columns, k


def amiable_coloring_for_frame(
    g: Multigraph, frame: Frame, coloring: PerfectColoring, witness: Witness
) -> tuple[Frame, PerfectColoring, AmiableColoring, ConstructionTrace]:
    """Full constructive path from a well-connected coloring to an amiable
    coloring.

    Returns (relabeled frame, normalized coloring, amiable coloring,
    trace); the amiable coloring is valid on the row graph of the relabeled
    frame and the normalized coloring.
    """
    trace = ConstructionTrace()
    frame2, coloring2, h_columns, k = normalize_frame_coloring(frame, coloring, witness, trace)
    r = build_row_graph(g, frame2, coloring2)
    amiable, trace = construct_amiable_main(r, h_columns, k, trace)
    return frame2, coloring2, amiable, trace
