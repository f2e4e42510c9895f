"""Row graphs: the 3 x s (or 2 x s) grids the coloring machinery runs on.

A row graph has vertices (row, column) with every column an independent
set.  Edges built from a frame keep the host edge id as their origin;
synthetic instances are first-class because the scanning harness works on
bare row graphs.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import HypothesisError, OracleLimitError
from .multigraph import Multigraph

GridVertex = tuple[int, int]  # (row, column), both 1-based


@dataclass(frozen=True)
class RowEdge:
    eid: object
    a: GridVertex
    b: GridVertex
    origin: object | None = None

    def other(self, v: GridVertex) -> GridVertex:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise KeyError(v)


class RowGraph:
    """Grid graph with independent columns; rows is 2 or 3."""

    __slots__ = ("s", "rows", "edges", "_at")

    def __init__(self, s: int, edges: Iterable[RowEdge | tuple], rows: int = 3):
        self.s = s
        self.rows = rows
        norm: list[RowEdge] = []
        for e in edges:
            if not isinstance(e, RowEdge):
                eid, a, b, *rest = e
                e = RowEdge(eid, tuple(a), tuple(b), rest[0] if rest else None)
            norm.append(e)
        self.edges = tuple(norm)
        self._at: dict[GridVertex, list[RowEdge]] = {v: [] for v in self.vertices()}
        seen = set()
        for e in self.edges:
            if e.eid in seen:
                raise ValueError(f"duplicate row edge id {e.eid!r}")
            seen.add(e.eid)
            for v in (e.a, e.b):
                if v not in self._at:
                    raise ValueError(f"edge {e.eid!r} uses vertex {v} outside the grid")
            if e.a[1] == e.b[1]:
                raise ValueError(f"edge {e.eid!r} lies inside column {e.a[1]} (columns are independent)")
            self._at[e.a].append(e)
            self._at[e.b].append(e)

    def vertices(self) -> list[GridVertex]:
        return [(i, j) for j in range(1, self.s + 1) for i in range(1, self.rows + 1)]

    def column(self, j: int) -> list[GridVertex]:
        return [(i, j) for i in range(1, self.rows + 1)]

    def row(self, i: int) -> list[GridVertex]:
        return [(i, j) for j in range(1, self.s + 1)]

    def edges_at(self, v: GridVertex) -> list[RowEdge]:
        return self._at[v]

    def degree(self, v: GridVertex) -> int:
        return len(self._at[v])

    def edges_within_rows(self, rows: set[int]) -> list[RowEdge]:
        return [e for e in self.edges if e.a[0] in rows and e.b[0] in rows]

    def edges_within_row(self, i: int) -> list[RowEdge]:
        return self.edges_within_rows({i})

    def edge_map(self) -> dict:
        return {e.eid: e for e in self.edges}

    def row_subgraph(self, i: int) -> Multigraph:
        """Induced subgraph on one row, keeping all s row vertices."""
        return Multigraph(
            [(i, j) for j in range(1, self.s + 1)],
            [(e.eid, e.a, e.b) for e in self.edges_within_row(i)],
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RowGraph(rows={self.rows}, s={self.s}, edges={len(self.edges)})"


def row_contract(r: RowGraph) -> Multigraph:
    """Squash every column to a single vertex (1..s); multiplicities are
    kept and no loops can arise because columns are independent."""
    return Multigraph(
        range(1, r.s + 1), [(e.eid, e.a[1], e.b[1]) for e in r.edges]
    )


def build_row_graph(g: Multigraph, frame, coloring) -> RowGraph:
    """Row graph of a host graph, frame and perfect coloring.

    Every non-frame non-chord edge of the host becomes one grid edge: each
    endpoint is a 2-valent frame vertex and lands in (its color, its
    component label).  Edges keep the host edge id as id and origin.
    """
    label_of = frame.label_of
    edges = []
    for eid in frame.free_edges():
        v, w = g.endpoints(eid)
        cv = coloring.vertex_color.get(v)
        cw = coloring.vertex_color.get(w)
        if cv is None or cw is None:
            raise HypothesisError(f"free edge {eid!r} touches an uncolored (3-valent) vertex")
        a = (cv, label_of[v])
        b = (cw, label_of[w])
        edges.append(RowEdge(eid, a, b, origin=eid))
    return RowGraph(frame.s, edges, rows=3)


# -- rearrangements -----------------------------------------------------------


@dataclass(frozen=True)
class Rearrangement:
    """Column permutation plus a row permutation inside each column.

    column_perm maps old column -> new column; row_perms maps old column ->
    {old row -> new row}.
    """

    column_perm: dict
    row_perms: dict

    @staticmethod
    def row_swaps(r: RowGraph, swaps: dict[int, tuple[int, int]]) -> "Rearrangement":
        """Columns stay put; column j swaps the two rows swaps[j], every
        other column keeps its rows.  The result is its own inverse."""
        row_perms = {}
        for j in range(1, r.s + 1):
            perm = {i: i for i in range(1, r.rows + 1)}
            if j in swaps:
                a, b = swaps[j]
                perm[a], perm[b] = b, a
            row_perms[j] = perm
        return Rearrangement(column_perm={j: j for j in range(1, r.s + 1)}, row_perms=row_perms)

    def map_vertex(self, v: GridVertex) -> GridVertex:
        i, j = v
        return (self.row_perms[j][i], self.column_perm[j])

    def inverse(self) -> "Rearrangement":
        col_inv = {new: old for old, new in self.column_perm.items()}
        row_inv = {}
        for old_col, perm in self.row_perms.items():
            new_col = self.column_perm[old_col]
            row_inv[new_col] = {new: old for old, new in perm.items()}
        return Rearrangement(column_perm=col_inv, row_perms=row_inv)

    def apply(self, r: RowGraph) -> RowGraph:
        edges = [
            RowEdge(e.eid, self.map_vertex(e.a), self.map_vertex(e.b), e.origin)
            for e in r.edges
        ]
        return RowGraph(r.s, edges, rows=r.rows)

    def transport_amiable(self, a: "AmiableColoring") -> "AmiableColoring":
        """Carry a coloring along the rearrangement (edge ids are stable)."""
        return AmiableColoring(
            f={self.map_vertex(v): c for v, c in a.f.items()},
            g=dict(a.g),
        )


def rearrange(
    r: RowGraph, column_perm: dict | Sequence[int], per_column_row_perms: dict | None = None
) -> RowGraph:
    """Apply a rearrangement given as plain mappings (1-based)."""
    if not isinstance(column_perm, dict):
        column_perm = {j: column_perm[j - 1] for j in range(1, r.s + 1)}
    if set(column_perm) != set(range(1, r.s + 1)) or set(column_perm.values()) != set(
        range(1, r.s + 1)
    ):
        raise ValueError("malformed column permutation")
    row_perms = {}
    for j in range(1, r.s + 1):
        perm = (per_column_row_perms or {}).get(j, {i: i for i in range(1, r.rows + 1)})
        if not isinstance(perm, dict):
            perm = {i: perm[i - 1] for i in range(1, r.rows + 1)}
        if set(perm) != set(range(1, r.rows + 1)) or set(perm.values()) != set(
            range(1, r.rows + 1)
        ):
            raise ValueError(f"malformed row permutation for column {j}")
        row_perms[j] = perm
    return Rearrangement(column_perm=column_perm, row_perms=row_perms).apply(r)


def random_rearrangement(r: RowGraph, rng: random.Random) -> Rearrangement:
    cols = list(range(1, r.s + 1))
    rng.shuffle(cols)
    column_perm = {j: cols[j - 1] for j in range(1, r.s + 1)}
    row_perms = {}
    for j in range(1, r.s + 1):
        rows = list(range(1, r.rows + 1))
        rng.shuffle(rows)
        row_perms[j] = {i: rows[i - 1] for i in range(1, r.rows + 1)}
    return Rearrangement(column_perm=column_perm, row_perms=row_perms)


# -- amiable colorings ---------------------------------------------------------


@dataclass(frozen=True)
class AmiableColoring:
    """Vertex coloring f and edge coloring g, both into {1,2,3}."""

    f: dict
    g: dict


def amiable_violations(r: RowGraph, a: AmiableColoring) -> list[str]:
    """Empty iff (f, g) is amiable: distinct colors in every column, no
    vertex sharing a color with an incident edge, and for every column and
    every color an even number of incidences of that color."""
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
    for e in r.edges:
        for v in (e.a, e.b):
            if a.f[v] == a.g[e.eid]:
                out.append(f"edge {e.eid!r} shares color {a.g[e.eid]} with vertex {v}")
    for j in range(1, r.s + 1):
        for color in (1, 2, 3):
            total = sum(
                1
                for v in r.column(j)
                for e in r.edges_at(v)
                if a.g[e.eid] == color
            )
            if total % 2 != 0:
                out.append(f"column {j} has odd count {total} of color {color}")
    return out


def is_amiable(r: RowGraph, a: AmiableColoring) -> bool:
    return not amiable_violations(r, a)


def solve_gf2(rows: Iterable[int], nvars: int) -> int | None:
    """One solution of a linear system over GF(2), or None.

    Each row is a bit mask: bit k is the coefficient of variable k, bit
    nvars the right-hand side.  A solution is returned as a mask of the
    variables set to 1: the least one when bit 0 is compared first, then
    bit 1, and so on (see _least_solution).
    """
    pivots = [0] * nvars
    if _add_rows(pivots, rows, nvars) is None:
        return None
    return _least_solution(pivots, nvars)


def _add_rows(pivots: list[int], rows: Iterable[int], nvars: int) -> list[int] | None:
    """Add rows to an echelon system over GF(2), or refuse them.

    pivots[b] is the row pivoted on variable b, its highest, or 0.
    Returns the pivots added, or None if the rows make the system
    inconsistent, in which case it is left as it was.  Pivot rows are not
    reduced against each other, so undoing an addition is clearing the
    pivots it returned.
    """
    var_mask = (1 << nvars) - 1
    added = []
    for row in rows:
        while low := row & var_mask:
            bit = low.bit_length() - 1
            pivot_row = pivots[bit]
            if not pivot_row:
                pivots[bit] = row
                added.append(bit)
                break
            row ^= pivot_row
        else:
            if row:
                for bit in added:
                    pivots[bit] = 0
                return None
    return added


def _least_solution(pivots: list[int], nvars: int) -> int:
    """The least solution of a consistent system kept by _add_rows, with
    bit 0 compared first.  A pivot row gives its variable from lower ones
    only, so going up from variable 0 every free variable can be 0 and
    every pivot variable is forced."""
    solution = 0
    for bit, row in enumerate(pivots):
        if row and ((row & solution).bit_count() ^ row >> nvars) & 1:
            solution |= 1 << bit
    return solution


def extend_to_amiable(r: RowGraph, f: dict) -> dict | None:
    """An edge coloring g making (f, g) amiable, or None.

    Over GF(2): an edge whose ends have different colors is forced to the
    third color; an edge whose ends share a color c takes the smaller or
    the larger of the other two (one bit, in edge order); every (column,
    color) count must be even.  Of all extensions this returns the first in
    edge order with the smaller color tried first.
    """
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


@functools.cache
def _column_color_assignments(rows: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(itertools.permutations(range(1, rows + 1))))


def brute_force_amiable(
    r: RowGraph, force: bool = False, max_edges: int = 24, max_s: int = 6
) -> AmiableColoring | None:
    """Exhaustive amiable-coloring search: the first (f, g) in the order
    below, or None.  Refuses oversized instances unless force=True.

    The vertex coloring of the first column is pinned to the identity (a
    global color permutation maps any amiable coloring to one of this
    form); every other column ranges over its assignments in sorted
    order, column 1 outermost.  The search goes column by column and
    keeps one linear system over GF(2) for the edge coloring:

    - Encoding.  Colors 1, 2, 3 are the nonzero vectors 01, 10, 11 of
      GF(2)^2, so a color's value is its vector.  Edge k has a high bit,
      variable 2k, and a low bit, variable 2k + 1.
    - Column equations.  Every color count at a column is even exactly
      when the column degree is even and the colors of the edge ends
      there sum to zero: if n1 + n2 + n3 is even and so are n2 + n3
      (high bits) and n1 + n3 (low bits), all three are.  An odd column
      degree ends the search at once; the two sums are two equations
      that do not depend on f.
    - End equations.  An edge at a vertex of color c takes neither 0 nor
      c, which is n.g = 1 for the nonzero vector n orthogonal to c: the
      edge's high bit is 1 if c = 1, its low bit is 1 if c = 2, and the
      two differ if c = 3.  Giving a column its assignment adds one such
      equation per edge end there.  Written as a mask over (high, low),
      n is c's value again, so on the edge with high bit h the equation
      is rhs | c * h.
    - Pruning.  An inconsistent system stays inconsistent as equations
      are added, so a partial f whose system has no solution is dropped
      with every completion.  At a full f the system says exactly which g
      make (f, g) amiable, so the search is exhaustive and finds the same
      first f as a walk over all 6^(s-1) colorings.
    - The edge coloring.  Every row is pivoted on its highest variable,
      so back-substitution from variable 0 up, with free variables 0,
      gives the least solution with bit 0 compared first
      (_least_solution): the least g in edge order, the smaller color
      first.  That is the g extend_to_amiable returns at this f.
    """
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
    # homogeneous, so always consistent
    _add_rows(pivots, [row for bits in column_bits for row in (bits, bits << 1)], nvars)
    perms = _column_color_assignments(r.rows)
    chosen: list[tuple[int, ...]] = []

    def search(j: int) -> bool:
        """Assign columns j + 1 onward (chosen holds columns 1 to j), each
        the first assignment whose end equations keep the system
        consistent and that extends to the later columns."""
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
        # edge k's bits, high first, read back as a color
        g={e.eid: (0, 2, 1, 3)[solution >> 2 * k & 3] for k, e in enumerate(r.edges)},
    )


# -- enumeration of synthetic instances ---------------------------------------


def _slot_pairs(rows: int) -> list[tuple[int, int]]:
    return [(i1, i2) for i1 in range(1, rows + 1) for i2 in range(1, rows + 1)]


MAX_ORBIT_COLUMNS = 4  # the group of rearrangements has s! * rows!^s elements


def check_orbit_columns(s: int) -> None:
    """Refuse orbit generation above MAX_ORBIT_COLUMNS columns."""
    if s > MAX_ORBIT_COLUMNS:
        raise OracleLimitError(
            f"row graphs up to rearrangement refused: {s} columns > {MAX_ORBIT_COLUMNS}"
        )


def _edge_kinds(s: int, rows: int) -> list[tuple[GridVertex, GridVertex]]:
    """Every grid-vertex pair {(i1, p), (i2, q)} with p < q, in the order
    the raw enumeration lists them."""
    return [
        ((i1, p), (i2, q))
        for p, q in itertools.combinations(range(1, s + 1), 2)
        for i1, i2 in _slot_pairs(rows)
    ]


@functools.cache
def _kind_action(s: int, rows: int) -> tuple[tuple[int, ...], ...]:
    """The rearrangements as permutations of the edge kinds, identity
    dropped, stored by kind: entry k lists the image of kind k under every
    rearrangement in one fixed order."""
    check_orbit_columns(s)
    kinds = _edge_kinds(s, rows)
    index = {kind: k for k, kind in enumerate(kinds)}
    identity = tuple(range(len(kinds)))
    table = []
    for cols in itertools.permutations(range(1, s + 1)):
        for row_perms in itertools.product(itertools.permutations(range(1, rows + 1)), repeat=s):
            image = {
                (i, j): (row_perms[j - 1][i - 1], cols[j - 1])
                for j in range(1, s + 1)
                for i in range(1, rows + 1)
            }
            perm = []
            for a, b in kinds:
                a, b = image[a], image[b]
                perm.append(index[(a, b) if a[1] < b[1] else (b, a)])
            perm = tuple(perm)
            if perm != identity:
                table.append(perm)
    return tuple(zip(*table))


def _orbit_representatives(s: int, max_edges: int, rows: int) -> Iterator[tuple[int, ...]]:
    """The lex-min member of every rearrangement orbit of edge multisets
    with at most max_edges edges, each once, as a sorted tuple of kind
    indices (orderly generation: R. C. Read, "Every one a winner", Ann.
    Discrete Math. 2, 1978).

    A tuple is only ever extended by kinds no smaller than its last one,
    and kept only if no rearrangement g maps it to a smaller sorted tuple.
    Pruning the rejected tuples loses nothing, because lex-min is
    hereditary: if T = (t1 <= ... <= tm) is lex-min in its orbit, so is
    its prefix P = (t1, ..., t(m-1)).  Suppose sorted g(P) < P, first
    differing at position i.  Adding one element to a multiset lowers or
    keeps each of its order statistics, so sorted g(T) is entrywise at
    most sorted g(P) on positions 0..m-2, and T agrees with P there.  So
    sorted g(T) <= T on positions 0..i, strictly at i: g(T) < T.

    The test is run on integer codes.  Of K kinds, kind k weighs
    2^(w * (K - 1 - k)) in a field of w bits wide enough for any
    multiplicity, so for equal sizes sorted A < sorted B exactly when
    code(A) > code(B): both are
    decided at the smallest kind whose multiplicities differ, where A has
    more.  Each kept tuple carries the codes of all its images, so a child
    costs one addition per rearrangement, and the scan over them stops at
    the first image that beats the child.
    """
    moved = _kind_action(s, rows)
    width = max_edges.bit_length()
    weight = [1 << (width * (len(moved) - 1 - k)) for k in range(len(moved))]
    moved_weight = [[weight[j] for j in images] for images in moved]

    def extend(tup, code, image_codes, first):
        yield tup
        if len(tup) == max_edges:
            return
        for k in range(first, len(moved)):
            child = code + weight[k]
            if any(map(child.__lt__, map(operator.add, image_codes, moved_weight[k]))):
                continue
            yield from extend(
                tup + (k,),
                child,
                list(map(operator.add, image_codes, moved_weight[k])),
                k,
            )

    if max_edges >= 0:
        yield from extend((), 0, [0] * len(moved[0]) if moved else [], 0)


def enumerate_row_graphs(
    s: int,
    max_edges: int,
    rows: int = 3,
    eulerian_only: bool = True,
    up_to_rearrangement: bool = False,
) -> Iterator[RowGraph]:
    """All row graphs with s columns and at most max_edges edges.

    With eulerian_only, only instances whose column contraction has even
    degrees everywhere are produced (enumerated pair-multiplicity-first so
    the parity filter prunes before row assignment).  Parallel edges are
    included.  up_to_rearrangement yields one representative per orbit of
    column/row permutations instead: the lex-min edge multiset of each
    orbit, with edges numbered 0.. in kind order (see
    _orbit_representatives).  It refuses s > MAX_ORBIT_COLUMNS.
    """
    if up_to_rearrangement:
        kinds = _edge_kinds(s, rows)
        for tup in _orbit_representatives(s, max_edges, rows):
            parity = 0
            for k in tup:
                (_, p), (_, q) = kinds[k]
                parity ^= (1 << p) ^ (1 << q)
            if eulerian_only and parity:
                continue
            yield RowGraph(
                s, [RowEdge(n, *kinds[k]) for n, k in enumerate(tup)], rows=rows
            )
        return

    pairs = list(itertools.combinations(range(1, s + 1), 2))
    row_pairs = _slot_pairs(rows)

    def column_parities(mults: tuple[int, ...]) -> bool:
        for col in range(1, s + 1):
            deg = sum(m for (p, q), m in zip(pairs, mults) if col in (p, q))
            if deg % 2 != 0:
                return False
        return True

    def mult_vectors() -> Iterator[tuple[int, ...]]:
        def rec(idx: int, left: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if idx == len(pairs):
                yield tuple(acc)
                return
            for m in range(left + 1):
                acc.append(m)
                yield from rec(idx + 1, left - m, acc)
                acc.pop()

        yield from rec(0, max_edges, [])

    for mults in mult_vectors():
        if eulerian_only and not column_parities(mults):
            continue
        per_pair_choices = []
        for (p, q), m in zip(pairs, mults):
            per_pair_choices.append(
                list(itertools.combinations_with_replacement(row_pairs, m))
            )
        for combo in itertools.product(*per_pair_choices):
            edges = []
            eid = 0
            for (p, q), assignment in zip(pairs, combo):
                for (i1, i2) in assignment:
                    edges.append(RowEdge(eid, (i1, p), (i2, q)))
                    eid += 1
            yield RowGraph(s, edges, rows=rows)


# -- serialization --------------------------------------------------------------


def row_graph_to_json(r: RowGraph) -> dict:
    edges = []
    for e in r.edges:
        rec = [e.a[0], e.a[1], e.b[0], e.b[1]]
        if e.origin is not None:
            rec.append(e.origin)
        edges.append(rec)
    out = {"s": r.s, "edges": edges}
    if r.rows != 3:
        out["rows"] = r.rows
    return out


def row_graph_from_json(obj: dict) -> RowGraph:
    rows = obj.get("rows", 3)
    edges = []
    for idx, rec in enumerate(obj["edges"]):
        i1, j1, i2, j2, *rest = rec
        origin = rest[0] if rest else None
        eid = origin if origin is not None else idx
        edges.append(RowEdge(eid, (i1, j1), (i2, j2), origin))
    return RowGraph(obj["s"], edges, rows=rows)


def amiable_to_json(a: AmiableColoring) -> dict:
    return {
        "f": [[v[0], v[1], c] for v, c in sorted(a.f.items())],
        "g": [[eid, c] for eid, c in sorted(a.g.items(), key=lambda kv: repr(kv[0]))],
    }


def amiable_from_json(obj: dict) -> AmiableColoring:
    return AmiableColoring(
        f={(i, j): c for i, j, c in obj["f"]},
        g={eid: c for eid, c in obj["g"]},
    )
