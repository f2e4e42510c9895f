"""Constructive amiable colorings and the parity-coloring equivalences.

The central routine turns a row graph whose first row is "concentrated"
(all non-isolated first-row vertices in one component, the remaining
first-row vertices fully isolated) into an amiable coloring:

  1. identify rows 2 and 3 column-wise and take an acyclic t-join of the
     odd-degree columns;
  2. let rows 2 and 3 trade places in some columns so the t-join uses no
     cross-row edges (always possible because the join is acyclic);
  3. color f = (2, 3, 1) down each column, give color 2 to the lower-rows
     edges outside the join;
  4. compare row-1/row-2 degrees in the mixed subgraph (cross edges +
     row-1 edges + row-2 join edges) column by column; the mismatching
     columns get fixed by an acyclic t-join inside row 1, whose edges and
     the remaining mixed edges receive colors 3 and 1;
  5. everything left is color 3;
  6. read f off the rows played, so a column of step 2 has f = (2, 1, 3).

No row graph is copied: each column reads its vertices through one
permutation of its rows.  A construction may start it by letting a
chosen row trade places with row 1, step 2 adds the 2/3 trades, and every
step works on the rows played.  So every construction here returns a
coloring that is amiable on the row graph it was given.  Feasibility of
the row-1 join is exactly what the concentration precondition buys; a
failure there is reported loudly, never masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import ConstructionInvariantError, FrameError, HypothesisError
from .frame import C_KIND, Frame, PerfectColoring, Witness, is_perfect_coloring
from .multigraph import Multigraph, components, is_eulerian, sorted_edge_ids
from .rowgraph import (
    AmiableColoring,
    RowEdge,
    RowGraph,
    _component_indices,
    amiable_violations,
    build_row_graph,
    is_amiable,
    row_components,
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


def _run_engine(
    r: RowGraph, trace: ConstructionTrace, front: dict[int, int] | None = None
) -> AmiableColoring:
    """Produce an amiable coloring of r.

    Each vertex plays a row through one permutation per column: row
    front[j] (row 1 by default) trades places with row 1, and rows 2 and 3
    trade places in the columns that straighten the lower join.  The
    vertices playing rows 1, 2 and 3 get colors 2, 3 and 1.

    The caller is responsible for the concentration precondition, read on
    the rows played; if the row-1 join turns out infeasible regardless,
    ConstructionInvariantError is raised.
    """
    s = r.s
    _require_eulerian(r)
    front = front or {}
    plays = {}  # plays[j][i]: the row that (i, j) plays
    for j in range(1, s + 1):
        plays[j] = perm = [0, 1, 2, 3]
        i = front.get(j, 1)
        perm[1], perm[i] = i, 1

    def role(v) -> int:
        return plays[v[1]][v[0]]

    lower = [e for e in r.edges if role(e.a) > 1 and role(e.b) > 1]
    identified = Multigraph(range(1, s + 1), [(e.eid, e.a[1], e.b[1]) for e in lower])
    odd_columns = [v for v in identified.vertices if identified.degree(v) % 2 == 1]
    join_lower = acyclic_t_join(identified, odd_columns)
    trace.record(
        "lower_join",
        odd_columns=sorted(odd_columns),
        edges=sorted_edge_ids(join_lower),
    )

    join = [e for e in lower if e.eid in join_lower]
    if any(role(e.a) != role(e.b) for e in join):
        join_two_row = RowGraph(
            s, [RowEdge(e.eid, (role(e.a) - 1, e.a[1]), (role(e.b) - 1, e.b[1])) for e in join], rows=2
        )
        swapped_columns = resolve_two_row(join_two_row)
        trace.record("row23_swap", columns=sorted(swapped_columns))
        for j in swapped_columns:
            plays[j] = [(0, 1, 3, 2)[k] for k in plays[j]]
        if any(role(e.a) != role(e.b) for e in join):
            raise ConstructionInvariantError("lower join still crosses rows 2/3 after swapping")

    # the mixed subgraph: edges within rows 1 and 2 that meet row 1, and the
    # row-2 join edges
    mixed = {
        e.eid
        for e in r.edges
        if {role(e.a), role(e.b)} in ({1, 2}, {1}) or (e.eid in join_lower and role(e.a) == 2)
    }
    odd_ends: dict = {}  # (row played, column) -> parity of the mixed edge ends there
    for e in r.edges:
        if e.eid in mixed:
            for v in (e.a, e.b):
                odd_ends[role(v), v[1]] = not odd_ends.get((role(v), v[1]), False)
    mismatch = [m for m in range(1, s + 1) if odd_ends.get((1, m), False) != odd_ends.get((2, m), False)]
    trace.record("row1_join_targets", columns=mismatch)
    row1 = Multigraph(
        [(1, j) for j in range(1, s + 1)],
        [(e.eid, (1, e.a[1]), (1, e.b[1])) for e in r.edges if role(e.a) == role(e.b) == 1],
    )
    try:
        join_row1 = acyclic_t_join(row1, {(1, m) for m in mismatch})
    except HypothesisError as exc:
        raise ConstructionInvariantError(
            "row-1 parity repair is infeasible; the concentration precondition "
            f"does not hold ({exc})"
        ) from exc
    trace.record("row1_join", edges=sorted_edge_ids(join_row1))

    f = {(i, j): (0, 2, 3, 1)[plays[j][i]] for j in range(1, s + 1) for i in (1, 2, 3)}
    g = {}
    for e in r.edges:
        if e.eid in mixed:
            g[e.eid] = 3 if e.eid in join_row1 else 1
        elif role(e.a) > 1 and role(e.b) > 1 and e.eid not in join_lower:
            g[e.eid] = 2
        else:
            g[e.eid] = 3
    coloring = AmiableColoring(f=f, g=g)
    _require_amiable(r, coloring, "constructed coloring is not amiable")
    trace.record("amiable", f_rows=[2, 3, 1])
    return coloring


def _multi_components(r: RowGraph, row: int) -> list[list]:
    """The components of one row's subgraph with more than one vertex."""
    return [c for c in row_components(r) if c[0][0] == row and len(c) >= 2]


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


# -- constructive corollaries ---------------------------------------------------


def construct_amiable_concentrated_row(
    r: RowGraph, row: int, trace: ConstructionTrace | None = None
) -> AmiableColoring:
    """Amiable coloring when one row carries at most one non-trivial
    component and the columns meeting that row's isolated vertices have at
    most one busy vertex each.

    That row plays row 1 in the columns it joins; elsewhere the first idle
    row does.  Raises HypothesisError when the shape does not hold.
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
    return _run_engine(r, trace, chosen)


def _busy_vertices(r: RowGraph, j: int) -> list:
    return [(i, j) for i in range(1, r.rows + 1) if r.degree((i, j)) > 0]


def _first_idle_row(r: RowGraph, j: int) -> int | None:
    """The least row whose vertex in column j has no edge, or None."""
    return next((i for i in range(1, r.rows + 1) if r.degree((i, j)) == 0), None)


def _piece_front(r: RowGraph, cols: list[int], special: int | None, front: dict) -> object:
    """Choose the front row of every column of one piece of the column
    contraction, in which every column but special has at most one busy
    vertex.  A special column with two or more busy vertices brings its
    first busy vertex to the front, and the far end of that vertex's first
    edge comes to the front too, so the edge lies in row 1; every other
    column brings its first idle row.  Returns that edge's id, or None."""
    anchor = None
    busy = [] if special is None else _busy_vertices(r, special)
    if len(busy) >= 2:
        v = busy[0]
        anchor = min(r.edges_at(v), key=lambda e: repr(e.eid))
        u = anchor.other(v)
        front[special] = v[0]
        front[u[1]] = u[0]
    for j in cols:
        if j not in front:
            front[j] = _first_idle_row(r, j)
    return None if anchor is None else anchor.eid


def _shortest_cross_column_path(r: RowGraph, p: int, q: int) -> list | None:
    """Shortest path between any vertex of column p and any vertex of
    column q; None if the columns lie in different pieces of the graph."""
    at: dict = {}  # each vertex's edges, ordered by the repr of their ids
    for e in sorted(r.edges, key=lambda e: repr(e.eid)):
        at.setdefault(e.a, []).append(e)
        at.setdefault(e.b, []).append(e)
    queue = [(i, p) for i in range(1, r.rows + 1)]
    parent: dict = {v: None for v in queue}
    for v in queue:  # read front to back as it grows
        if v[1] == q:
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for e in at.get(v, ()):
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

    If some path joins columns p and q, its rows play row 1 and the
    concentrated-row construction applies; otherwise each piece of the
    column contraction chooses its own front rows, and the engine runs once
    on all of them.

    Once every column but p and q is checked, neither branch meets a column
    it cannot serve.  A column off the path has at most one busy vertex, so
    at least one idle row to bring to the front.  When no path joins the
    columns, p and q lie in different pieces of the column contraction: a
    contraction path that meets p and q only at its ends passes through
    columns with one busy vertex, where its two edges meet at that vertex,
    so it lifts to a path of the row graph.  Each piece therefore holds at
    most one of p and q, and every other column of it has at most one busy
    vertex.
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
            if j not in chosen:
                chosen[j] = _first_idle_row(r, j)
        trace.record("path_to_front", path=[list(v) for v in path])
        return _run_engine(r, trace, chosen)

    # no path: the front rows are chosen piece by piece of the column contraction
    front: dict[int, int] = {}
    anchors = []
    for comp in components(row_contract(r)):
        special = p if p in comp else q if q in comp else None
        anchor = _piece_front(r, sorted(comp), special, front)
        if anchor is not None:
            anchors.append(anchor)
    trace.record("pieces_to_front", anchor_edges=anchors, chosen_rows=front)
    return _run_engine(r, trace, front)


# -- parity colorings ------------------------------------------------------------

STANDARD = "standard"
SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class ParityColoring:
    """Black/white vertex coloring of a 3-row graph."""

    black: frozenset
    mode: str


def _pair_relations(r: RowGraph, mode: str) -> tuple[list[bool], list[bool]]:
    """Per column: must phi agree on rows (1,2) and on rows (2,3)?

    One pass over the edges keeps, for each vertex, the parities of its
    neighbours in each row with edge multiplicity (bit i - 1 for row i);
    both relations read those bits."""
    if r.rows != 3 and r.s:
        raise HypothesisError(f"parity colorings need 3 rows; the row graph has {r.rows}")
    odd = [0] * len(r._vertices)
    for a, b in zip(r._ia, r._ib):
        odd[a] ^= 1 << b % 3
        odd[b] ^= 1 << a % 3
    standard = mode == STANDARD
    rel12 = []
    rel23 = []
    for k in range(0, len(odd), 3):
        n1, n2, n3 = odd[k], odd[k + 1], odd[k + 2]
        rel12.append(not (n1 ^ n1 >> 1 ^ n2) & 1)
        rel23.append(not (n2 >> 1 ^ n2 >> 2 ^ n3 >> 1 ^ (n3 >> 2 if standard else 0)) & 1)
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
    black = [v in phi.black for v in r._vertices]
    for k, same12, same23 in zip(range(0, len(black), 3), rel12, rel23):
        if (black[k] == black[k + 1]) != same12 or (black[k + 1] == black[k + 2]) != same23:
            return False
    return not any(sum(black[v] for v in comp) % 2 for comp in _component_indices(r))


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
    flip = []  # per vertex: does it take the other color than row 1 of its column?
    for same12, same23 in zip(rel12, rel23):
        flip2 = int(not same12)
        flip += (0, flip2, flip2 ^ int(not same23))
    rhs = 1 << r.s
    term = [1 << v // 3 | rhs * flip[v] for v in range(len(flip))]
    equations = []
    for comp in _component_indices(r):
        row = 0
        for v in comp:
            row ^= term[v]
        equations.append(row)
    bits = solve_gf2(equations, r.s)
    if bits is None:
        return None
    black = frozenset(v for k, v in enumerate(r._vertices) if (bits >> k // 3 & 1) ^ flip[k])
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

    label_of, ends = frame.label_of, frame.free_ends
    comp_by_label = {c.label: c for c in frame.components}

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
) -> tuple[Frame, PerfectColoring, RowGraph, AmiableColoring, ConstructionTrace]:
    """Full constructive path from a well-connected coloring to an amiable
    coloring.

    Returns (relabeled frame, normalized coloring, row graph, amiable
    coloring, trace): the row graph is the one of the relabeled frame and
    the normalized coloring, and the amiable coloring is valid on it.  The
    tuple is construct_6cdc's arguments after the host.
    """
    trace = ConstructionTrace()
    frame2, coloring2, h_columns, k = normalize_frame_coloring(frame, coloring, witness, trace)
    r = build_row_graph(g, frame2, coloring2)
    amiable, trace = construct_amiable_main(r, h_columns, k, trace)
    return frame2, coloring2, r, amiable, trace
