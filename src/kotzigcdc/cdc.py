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
from .rowgraph import AmiableColoring, build_row_graph, is_amiable

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


def _incidence(g: Multigraph, eids: Iterable[EdgeId]) -> dict:
    """Vertex -> the ids of eids at it, a loop listed twice, so that list
    lengths are degrees in the edge set."""
    at: dict = {}
    for eid in eids:
        a, b = g.endpoints(eid)
        at.setdefault(a, []).append(eid)
        at.setdefault(b, []).append(eid)
    return at


def _traverse_cycle(g: Multigraph, at: dict, start, first_edge) -> tuple[list, list]:
    """Walk the cycle through first_edge from start on an incidence map
    (see _incidence); returns (vertices, edges) in closed order
    (vertices[0] repeated implicitly)."""
    vertices = [start]
    edges = [first_edge]
    cur = g.other_end(first_edge, start)
    prev_edge = first_edge
    while cur != start:
        vertices.append(cur)
        nxt = [e for e in at[cur] if e != prev_edge]
        if len(nxt) != 1:
            raise HypothesisError("walk requires a 2-regular edge set")
        prev_edge = nxt[0]
        edges.append(prev_edge)
        cur = g.other_end(prev_edge, cur)
    return vertices, edges


def _canonical_cycle(g: Multigraph, at: dict, vertices: list) -> tuple:
    """A cycle's edges from its least vertex along the least edge there
    (sorted_edge_ids orders vertices as sorted_vertices does)."""
    start = sorted_edge_ids(vertices)[0]
    return tuple(_traverse_cycle(g, at, start, sorted_edge_ids(at[start])[0])[1])


def _cycle_components(g: Multigraph, eids: Iterable[EdgeId]) -> tuple[dict, list[list]]:
    """Split a 2-regular edge set into its cycles, in the order of their
    least edge ids.  Returns the incidence map of the set and, per cycle,
    its vertices in walk order.  A vertex of another degree raises
    HypothesisError, naming the first such vertex in host order."""
    eids = set(eids)
    at = _incidence(g, eids)
    bad = [v for v, here in at.items() if len(here) != 2]
    if bad:
        v = g.in_host_order(bad)[0]
        raise HypothesisError(f"vertex {v!r} has degree {len(at[v])} in the 2-factor")
    seen: set = set()
    out = []
    for seed in sorted_edge_ids(eids):
        if seed in seen:
            continue
        vertices, edges = _traverse_cycle(g, at, g.endpoints(seed)[0], seed)
        seen.update(edges)
        out.append(vertices)
    return at, out


def _canonical_cycles(g: Multigraph, eids: set) -> list[tuple]:
    """The cycles of a 2-regular edge set, each as _canonical_cycle reads it."""
    at, cycles = _cycle_components(g, eids)
    return [_canonical_cycle(g, at, verts) for verts in cycles]


def two_cycle_cover_even(
    g: Multigraph, cycle_edges: Iterable[EdgeId], matching_edges: Iterable[EdgeId]
) -> tuple[list[tuple], list[tuple]]:
    """2-cycle cover of (disjoint cycles + attachment matching).

    Cycle edges end up covered once, matching edges twice, and each of the
    two returned classes consists of pairwise edge-disjoint cycles.  Every
    cycle must carry an even number of matching endpoints.  The two classes
    come from 2-coloring the arcs between consecutive attachment points
    alternately around each cycle, deterministically: the walk starts at
    the smallest attachment vertex toward its smaller neighbor.
    """
    cycle_edges = set(cycle_edges)
    matching_edges = set(matching_edges)
    if cycle_edges & matching_edges:
        raise HypothesisError("cycle and matching edge sets overlap")
    at, cycles = _cycle_components(g, cycle_edges)
    attach_at: dict = {}
    for eid in matching_edges:
        for v in g.endpoints(eid):
            if v not in at:
                raise HypothesisError(f"matching edge {eid!r} endpoint {v!r} misses the cycles")
            if v in attach_at:
                raise HypothesisError(f"vertex {v!r} carries two attachment edges")
            attach_at[v] = eid
        if g.is_loop(eid):
            raise HypothesisError(f"matching edge {eid!r} is a loop")

    class_a: set = set(matching_edges)
    class_b: set = set(matching_edges)
    lonely_cycles: list[tuple] = []
    for verts in cycles:
        attachments = sorted((v for v in verts if v in attach_at), key=_sort_key)
        if not attachments:
            lonely_cycles.append(_canonical_cycle(g, at, verts))
            continue
        if len(attachments) % 2 != 0:
            raise HypothesisError(
                f"cycle through {attachments[0]!r} has {len(attachments)} attachment points"
            )
        start = attachments[0]
        first_edge = min(
            at[start], key=lambda e: (*_sort_key(g.other_end(e, start)), *_sort_key(e))
        )
        order_vertices, order_edges = _traverse_cycle(g, at, start, first_edge)
        # order_edges[k] joins order_vertices[k] to order_vertices[k+1]
        segments: list[list] = [[]]
        for pos, eid in enumerate(order_edges):
            segments[-1].append(eid)
            nxt_vertex = order_vertices[(pos + 1) % len(order_vertices)]
            if nxt_vertex in attach_at and pos != len(order_edges) - 1:
                segments.append([])
        if len(segments) != len(attachments):
            raise ConstructionInvariantError("one arc per attachment point")
        for idx, seg in enumerate(segments):
            (class_a if idx % 2 == 0 else class_b).update(seg)

    cycles_a = _canonical_cycles(g, class_a)
    cycles_b = _canonical_cycles(g, class_b)
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


def construct_6cdc(
    g: Multigraph,
    f: Frame,
    coloring: PerfectColoring,
    amiable: AmiableColoring,
    trace: ConstructionTrace | None = None,
) -> CdcCertificate:
    """Assemble a 6-class cycle double cover from an amiable coloring of
    the row graph of (g, f, coloring).  The caller verifies it (verify_cdc),
    as run_pipeline does.

    After fold_vertex_coloring the edge coloring amiable.g is amiable, with
    the identity vertex coloring, on the row graph of the folded coloring:
    the fold renames the rows of each column as amiable.f does.
    """
    trace = trace or ConstructionTrace()
    if not is_amiable(build_row_graph(g, f, coloring), amiable):
        raise HypothesisError("coloring is not amiable for this row graph")

    folded = fold_vertex_coloring(f, coloring, amiable)

    # per color: the frame edges of other colors, and the free edges and
    # chords of this color
    chord_parts = dict(zip((1, 2, 3), partition_chords(f, folded)))
    frame_parts = {
        color: frozenset(eid for eid in f.frame_edges if folded.edge_color[eid] != color)
        for color in (1, 2, 3)
    }
    free_parts = {
        color: frozenset(eid for eid in f.free_edges() if amiable.g[eid] == color)
        for color in (1, 2, 3)
    }
    trace.record(
        "j_decomposition",
        chords={c: sorted_edge_ids(chord_parts[c]) for c in (1, 2, 3)},
    )

    classes = {}
    for color in (1, 2, 3):
        matching = free_parts[color] | chord_parts[color]
        try:
            cycles_a, cycles_b = two_cycle_cover_even(
                g, frame_parts[color], matching
            )
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
    host edge lies in exactly two cycles overall.
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
            at = _incidence(g, eids)
            bad_degree = [v for v, here in at.items() if len(here) != 2]
            if bad_degree:
                violations.append(f"{name} is not 2-regular at {g.in_host_order(bad_degree)}")
            elif not eids or len(
                _traverse_cycle(g, at, g.endpoints(eids[0])[0], eids[0])[1]
            ) != len(eids):
                # a 2-regular edge set is one cycle iff one walk takes in all of it
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
