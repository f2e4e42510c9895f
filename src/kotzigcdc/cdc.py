"""Assembly and verification of 6-class cycle double covers.

The cover is assembled color by color: for color i, the frame edges whose
color differs from i form disjoint cycles, and the remaining edges of color
class i (free edges colored i plus the chords assigned to i) form a
matching attached to those cycles.  Every such piece has a 2-cycle cover
with the cycles covered once and the matching twice, provided every cycle
carries an even number of attachment points; the three pieces give six
classes and exactly double coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .amiable import ConstructionTrace, permute_component_colors
from .errors import ConstructionInvariantError, GraphFormatError, HypothesisError
from .frame import Frame, PerfectColoring
from .multigraph import EdgeId, Multigraph, _sort_key, sorted_edge_ids
from .rowgraph import AmiableColoring, RowGraph, is_amiable

CLASS_LABELS = ("1a", "1b", "2a", "2b", "3a", "3b")


@dataclass(frozen=True)
class CdcCertificate:
    """Labeled cycle classes; cycles are closed edge-id sequences."""

    classes: dict

    def all_cycles(self) -> list[tuple[str, tuple]]:
        out = []
        for label in sorted(self.classes):
            for cyc in self.classes[label]:
                out.append((label, tuple(cyc)))
        return out

    def to_json(self) -> dict:
        return {
            "classes": {
                label: [list(cyc) for cyc in cycles]
                for label, cycles in self.classes.items()
            }
        }

    @staticmethod
    def from_json(obj: dict) -> "CdcCertificate":
        classes = obj.get("classes") if isinstance(obj, dict) else None
        if not isinstance(classes, dict) or not all(
            isinstance(cycles, list)
            and all(isinstance(c, list) and not any(isinstance(e, (list, dict)) for e in c) for c in cycles)
            for cycles in classes.values()
        ):
            raise GraphFormatError('certificate is not {"classes": {label: [[edge ids...], ...]}}')
        return CdcCertificate(
            classes={label: tuple(tuple(cyc) for cyc in cycles) for label, cycles in classes.items()}
        )


def partition_chords(f: Frame, coloring: PerfectColoring) -> tuple[frozenset, frozenset, frozenset]:
    """Assign every chord the smallest color missing at both endpoints.

    Chord endpoints are 2-valent frame vertices, so at most two colors are
    excluded and a class always exists.
    """
    parts: dict[int, set] = {1: set(), 2: set(), 3: set()}
    for eid in sorted_edge_ids(f.chords):
        v, w = f.host.endpoints(eid)
        excluded = {coloring.vertex_color[v], coloring.vertex_color[w]}
        for color in (1, 2, 3):
            if color not in excluded:
                parts[color].add(eid)
                break
    return frozenset(parts[1]), frozenset(parts[2]), frozenset(parts[3])


def _pairs(g: Multigraph, eids: Iterable[EdgeId]) -> dict:
    """Vertex -> its (edge, far end) pairs over eids, a loop's twice, so
    that list lengths are degrees in the edge set."""
    at: dict = {}
    endpoints = g.endpoints
    for eid in eids:
        a, b = endpoints(eid)
        at.setdefault(a, []).append((eid, b))
        at.setdefault(b, []).append((eid, a))
    return at


def _walk(at: dict, first: EdgeId, start, cur) -> tuple[list, list]:
    """The closed walk from start along its edge first to cur, on the pairs
    of a 2-regular edge set (see _pairs): its vertices and edges, edges[k]
    from vertices[k] to vertices[k + 1], the last edge closing it."""
    vertices, edges = [start], [first]
    while cur != start:
        vertices.append(cur)
        (e1, w1), (e2, w2) = at[cur]
        eid, cur = (e2, w2) if e1 == edges[-1] else (e1, w1)
        edges.append(eid)
    return vertices, edges


def _cycles(g: Multigraph, eids: set) -> tuple[dict, list[tuple[list, list]]]:
    """Walk each cycle of a 2-regular edge set once, in the order of the
    cycles' least edge ids.  Returns the set's pairs (see _pairs) and per
    cycle its walk (see _walk) from the first end of its least edge.  A
    vertex of another degree raises HypothesisError, naming the first such
    vertex in host order."""
    at = _pairs(g, eids)
    bad = [v for v, here in at.items() if len(here) != 2]
    if bad:
        v = g.in_host_order(bad)[0]
        raise HypothesisError(f"vertex {v!r} has degree {len(at[v])} in the 2-factor")
    seen: set = set()
    out = []
    for seed in sorted_edge_ids(eids):
        if seed in seen:
            continue
        vertices, edges = _walk(at, seed, *g.endpoints(seed))
        seen.update(edges)
        out.append((vertices, edges))
    return at, out


def _rooted(vertices: list, edges: list, p: int, first) -> tuple[list, list]:
    """The closed walk (vertices, edges) read from vertices[p] along its
    edge first, by rotating the lists or reversing them."""
    if edges[p] != first:
        # reversed, edges[k] joins vertices[k + 1] to vertices[k]
        vertices, edges = vertices[::-1], edges[-2::-1] + edges[-1:]
        p = len(vertices) - 1 - p
    return vertices[p:] + vertices[:p], edges[p:] + edges[:p]


def _canonical_cycle(vertices: list, edges: list) -> tuple:
    """A closed walk's edges from its least vertex along the least edge
    there (sorted_edge_ids orders vertices as sorted_vertices does)."""
    p = vertices.index(sorted_edge_ids(vertices)[0])
    first = sorted_edge_ids((edges[p], edges[p - 1]))[0]
    return tuple(_rooted(vertices, edges, p, first)[1])


def two_cycle_cover_even(
    g: Multigraph, cycle_edges: Iterable[EdgeId], matching_edges: Iterable[EdgeId]
) -> tuple[list[tuple], list[tuple]]:
    """2-cycle cover of (disjoint cycles + attachment matching).

    Cycle edges end up covered once, matching edges twice, and each of the
    two returned classes consists of pairwise edge-disjoint cycles.  Every
    cycle must carry an even number of matching endpoints.  Each cycle is
    walked once and cut into arcs at its attachment points, from the least
    attachment vertex toward its least neighbour; the arcs go to the two
    classes alternately.  A class's cycles are read by joining its arcs
    through the matching edges, each from its least vertex along the least
    edge there, in the order of their least edge ids.  The first class
    ends with the cycles that carry no attachment point.
    """
    cycle_edges = set(cycle_edges)
    matching_edges = set(matching_edges)
    if cycle_edges & matching_edges:
        raise HypothesisError("cycle and matching edge sets overlap")
    at, cycles = _cycles(g, cycle_edges)
    across: dict = {}  # attachment vertex -> (its matching edge, the far end)
    for eid in matching_edges:
        a, b = g.endpoints(eid)
        if a == b:
            raise HypothesisError(f"matching edge {eid!r} is a loop")
        for v, w in ((a, b), (b, a)):
            if v not in at:
                raise HypothesisError(f"matching edge {eid!r} endpoint {v!r} misses the cycles")
            if v in across:
                raise HypothesisError(f"vertex {v!r} carries two attachment edges")
            across[v] = (eid, w)

    # per class: attachment vertex -> the arc of the class that leaves it,
    # as its cycle's rooted lists and the arc's positions there, from the
    # vertex to the far end
    leave: tuple[dict, dict] = ({}, {})
    lonely_cycles: list[tuple] = []
    key_rank = g.key_rank()
    for vertices, edges in cycles:
        attached = [v for v in vertices if v in across]
        if not attached:
            lonely_cycles.append(_canonical_cycle(vertices, edges))
            continue
        start = min(attached, key=key_rank.__getitem__)
        if len(attached) % 2 != 0:
            raise HypothesisError(f"cycle through {start!r} has {len(attached)} attachment points")
        # toward the least neighbour by (type name, repr), then the least edge
        (e1, w1), (e2, w2) = at[start]
        if key_rank[w1] != key_rank[w2]:
            first = e1 if key_rank[w1] < key_rank[w2] else e2
        else:
            first = min(e1, e2, key=_sort_key)
        vertices, edges = _rooted(vertices, edges, vertices.index(start), first)
        vertices.append(start)
        cuts = [k for k, v in enumerate(vertices) if v in across]
        for n, (i, j) in enumerate(zip(cuts, cuts[1:])):
            leave[n % 2][vertices[i]] = (vertices, edges, i, j)
            leave[n % 2][vertices[j]] = (vertices, edges, j, i)

    classes = []
    for side in leave:
        walks = []
        seen: set = set()
        for v in side:
            walk_v: list = []
            walk_e: list = []
            while v not in seen:
                cycle_v, cycle_e, i, j = side[v]
                if i < j:
                    walk_v += cycle_v[i:j]
                    walk_e += cycle_e[i:j]
                else:
                    walk_v += cycle_v[i:j:-1]
                    walk_e += cycle_e[j:i][::-1]
                end = cycle_v[j]
                seen.update((v, end))
                eid, v = across[end]
                walk_v.append(end)
                walk_e.append(eid)
            if walk_e:
                walks.append((walk_v, walk_e))
        # the order of least edge ids, chosen once on the whole class
        eids = [e for _, walk_e in walks for e in walk_e]
        rank = dict(zip(sorted_edge_ids(eids), range(len(eids))))
        walks.sort(key=lambda walk: min(map(rank.__getitem__, walk[1])))
        classes.append([_canonical_cycle(*walk) for walk in walks])
    cycles_a, cycles_b = classes
    cycles_a.extend(lonely_cycles)
    return cycles_a, cycles_b


def fold_vertex_coloring(
    f: Frame, coloring: PerfectColoring, amiable: AmiableColoring
) -> PerfectColoring:
    """Push the amiable vertex coloring into the frame coloring so that the
    rebuilt row graph carries the identity vertex coloring.

    Permuting the colors inside one component exactly renames the rows of
    its column, so the column-wise permutations read off f do the job.
    """
    perms = {
        comp.label: {i: amiable.f[(i, comp.label)] for i in (1, 2, 3)} for comp in f.components
    }
    return permute_component_colors(f, coloring, perms)


def _require_row_graph(g: Multigraph, f: Frame, coloring: PerfectColoring, r: RowGraph) -> None:
    """Raise HypothesisError unless r is the row graph build_row_graph
    gives for (g, f, coloring), read in one pass over its edges."""
    free = f.free_edges
    if (r.s, r.rows, len(r.edges)) != (f.s, 3, len(free)):
        raise HypothesisError("row graph does not match the frame")
    label_of = f.label_of
    vertex_color = coloring.vertex_color
    for e, eid in zip(r.edges, free):
        v, w = g.endpoints(eid)
        if (e.eid, e.a, e.b) != (
            eid, (vertex_color.get(v), label_of[v]), (vertex_color.get(w), label_of[w])
        ):
            raise HypothesisError(f"row edge {e.eid!r} does not match the frame and coloring")


OTHER_COLORS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def construct_6cdc(
    g: Multigraph,
    f: Frame,
    coloring: PerfectColoring,
    r: RowGraph,
    amiable: AmiableColoring,
    trace: ConstructionTrace | None = None,
) -> CdcCertificate:
    """Assemble a 6-class cycle double cover from an amiable coloring of
    r, the row graph of (g, f, coloring), as amiable_coloring_for_frame
    returns them.  The caller verifies it (verify_cdc), as run_pipeline
    does.

    After fold_vertex_coloring the edge coloring amiable.g is amiable, with
    the identity vertex coloring, on the row graph of the folded coloring:
    the fold renames the rows of each column as amiable.f does.
    """
    trace = trace or ConstructionTrace()
    _require_row_graph(g, f, coloring, r)
    if not is_amiable(r, amiable):
        raise HypothesisError("coloring is not amiable for this row graph")

    folded = fold_vertex_coloring(f, coloring, amiable)

    # per color: the frame edges of other colors, and the free edges and
    # chords of this color
    chord_parts = dict(zip((1, 2, 3), partition_chords(f, folded)))
    cycle_parts: dict = {1: [], 2: [], 3: []}
    for eid in f.frame_edges:
        for color in OTHER_COLORS[folded.edge_color[eid]]:
            cycle_parts[color].append(eid)
    matchings = {color: set(chord_parts[color]) for color in (1, 2, 3)}
    for eid in f.free_edges:
        matchings[amiable.g[eid]].add(eid)
    trace.record(
        "j_decomposition",
        chords={c: sorted_edge_ids(chord_parts[c]) for c in (1, 2, 3)},
    )

    classes = {}
    for color in (1, 2, 3):
        try:
            cycles_a, cycles_b = two_cycle_cover_even(g, cycle_parts[color], matchings[color])
        except HypothesisError as exc:
            raise ConstructionInvariantError(
                f"2-cycle cover precondition failed for color {color}: {exc}"
            ) from exc
        classes[f"{color}a"] = tuple(cycles_a)
        classes[f"{color}b"] = tuple(cycles_b)
    return CdcCertificate(classes=classes)


@dataclass
class CdcReport:
    valid: bool
    violations: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": list(self.violations),
            "coverage": {repr(k): v for k, v in sorted(self.coverage.items(), key=lambda kv: repr(kv[0]))},
        }


def verify_cdc(g: Multigraph, cert: CdcCertificate) -> CdcReport:
    """Independent re-check of a certificate against its host graph.

    Valid means: at most six classes, every listed cycle is a 2-regular
    connected subgraph, classes are internally edge-disjoint, and every
    host edge lies in exactly two cycles overall.  Each listed cycle's
    (edge, far end) pairs are read from the host once (see _pairs); the
    degrees come from them, and a 2-regular cycle is connected when one
    walk on them from its first edge takes in all of its edges.
    """
    violations = []
    coverage = {eid: 0 for eid in g.edge_ids}
    if len(cert.classes) > 6:
        violations.append(f"{len(cert.classes)} classes exceed the limit of 6")
    for label, cycles in sorted(cert.classes.items()):
        used_in_class: set = set()
        for idx, cyc in enumerate(cycles):
            name = f"{label}[{idx}]"
            eids = list(cyc)
            if len(set(eids)) != len(eids):
                violations.append(f"{name} repeats an edge")
                continue
            missing = [e for e in eids if not g.has_edge(e)]
            if missing:
                violations.append(f"{name} uses unknown edges {missing}")
                continue
            at = _pairs(g, eids)
            bad_degree = [v for v, here in at.items() if len(here) != 2]
            if bad_degree:
                violations.append(f"{name} is not 2-regular at {g.in_host_order(bad_degree)}")
            elif not eids:
                violations.append(f"{name} is empty")
            elif len(_walk(at, eids[0], *g.endpoints(eids[0]))[1]) != len(eids):
                violations.append(f"{name} is disconnected")
            overlap = used_in_class & set(eids)
            if overlap:
                violations.append(
                    f"class {label} reuses edges {sorted_edge_ids(overlap)} across cycles"
                )
            used_in_class.update(eids)
            for e in eids:
                if e in coverage:
                    coverage[e] += 1
    for eid, count in coverage.items():
        if count != 2:
            violations.append(f"edge {eid!r} is covered {count} times, expected 2")
    return CdcReport(valid=not violations, violations=violations, coverage=coverage)
