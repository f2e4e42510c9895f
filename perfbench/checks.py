"""Checkers written apart from the program.

Nothing here imports kotzigcdc.  Graphs are plain ``(vertices, edges)``
pairs with ``edges`` a list of ``(edge_id, a, b)``; row graphs are
``(s, edges)`` with ``edges`` a list of ``(edge_id, (row, col), (row, col))``
on three rows.  Every checker returns a list of violations, empty when the
output is right.
"""

from __future__ import annotations

import itertools
from collections import Counter

import networkx as nx

COLORS = (1, 2, 3)

# Connected loopless cubic multigraphs by order (OEIS A005967) and the
# simple ones among them (OEIS A002851).
CORPUS_COUNTS = {2: 1, 4: 2, 6: 6, 8: 20, 10: 91}
SIMPLE_COUNTS = {2: 0, 4: 1, 6: 2, 8: 5, 10: 19}


# -- graphs ------------------------------------------------------------------


def _adjacency(vertices, edges) -> dict:
    adj = {v: [] for v in vertices}
    for eid, a, b in edges:
        adj[a].append((eid, b))
        if a != b:
            adj[b].append((eid, a))
    return adj


def bridges(vertices, edges) -> set:
    """Edge ids of all bridges (Tarjan's low-point test, iterative).

    Parallel edges are told apart by id, so a doubled edge is never a bridge.
    """
    adj = _adjacency(vertices, edges)
    order: dict = {}
    low: dict = {}
    found = set()
    for root in vertices:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, via, it = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        found.add(via)
                continue
            eid, w = step
            if eid == via:
                continue
            if w in order:
                low[v] = min(low[v], order[w])
            else:
                order[w] = low[w] = len(order)
                stack.append((w, eid, iter(adj[w])))
    return found


def is_connected(vertices, edges) -> bool:
    vertices = list(vertices)
    if not vertices:
        return True
    adj = _adjacency(vertices, edges)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for _, w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def three_edge_colourable(vertices, edges) -> bool:
    """Whether a loopless graph of maximum degree 3 has a proper 3-edge-
    colouring: backtracking that always colours an edge with the fewest
    colours left."""
    at = {v: [] for v in vertices}
    ends = {}
    for eid, a, b in edges:
        if a == b:
            return False
        ends[eid] = (a, b)
        at[a].append(eid)
        at[b].append(eid)
    colour: dict = {}

    def left(eid):
        used = {colour[j] for v in ends[eid] for j in at[v] if j in colour}
        return [c for c in COLORS if c not in used]

    def extend() -> bool:
        best = None
        for eid in ends:
            if eid not in colour:
                options = left(eid)
                if len(options) <= 1:
                    best = (eid, options)
                    break
                if best is None or len(options) < len(best[1]):
                    best = (eid, options)
        if best is None:
            return True
        eid, options = best
        for c in options:
            colour[eid] = c
            if extend():
                return True
            del colour[eid]
        return False

    # the edges at one vertex take distinct colours, so fix them
    first = next((v for v in vertices if at[v]), None)
    if first is not None:
        colour.update(zip(at[first], COLORS))
    return extend()


def cover_violations(vertices, edges, classes: dict) -> list[str]:
    """At most six classes, each cycle a connected 2-regular edge set, the
    cycles of one class edge-disjoint, and every edge covered exactly twice."""
    out = []
    ends = {eid: (a, b) for eid, a, b in edges}
    coverage = Counter()
    if len(classes) > 6:
        out.append(f"{len(classes)} classes, at most 6 allowed")
    for label, cycles in classes.items():
        used = set()
        for idx, cycle in enumerate(cycles):
            name = f"{label}[{idx}]"
            cycle = list(cycle)
            if not cycle:
                out.append(f"{name} is empty")
                continue
            if len(set(cycle)) != len(cycle):
                out.append(f"{name} repeats an edge")
                continue
            unknown = [e for e in cycle if e not in ends]
            if unknown:
                out.append(f"{name} uses unknown edges {unknown}")
                continue
            cycle_edges = [(e, *ends[e]) for e in cycle]
            degree = Counter()
            for _, a, b in cycle_edges:
                degree[a] += 1
                degree[b] += 1
            if any(d != 2 for d in degree.values()):
                out.append(f"{name} is not 2-regular")
            elif not is_connected(list(degree), cycle_edges):
                out.append(f"{name} is not connected")
            if used & set(cycle):
                out.append(f"class {label} uses an edge in two cycles")
            used.update(cycle)
            coverage.update(cycle)
    for eid in ends:
        if coverage[eid] != 2:
            out.append(f"edge {eid!r} covered {coverage[eid]} times")
    return out


def _to_nx(vertices, edges) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(vertices)
    for _, a, b in edges:
        if h.has_edge(a, b):
            h[a][b]["m"] += 1
        else:
            h.add_edge(a, b, m=1)
    return h


def _invariant(h: nx.Graph) -> tuple:
    per_vertex = sorted(
        tuple(sorted(h[v][w]["m"] for w in h[v])) for v in h.nodes
    )
    return (h.number_of_nodes(), tuple(per_vertex), tuple(sorted(nx.triangles(h).values())))


def corpus_violations(graphs, max_vertices: int) -> list[str]:
    """The generated corpus is every connected loopless cubic multigraph on
    at most max_vertices vertices, each once: every member is cubic, loopless
    and connected, no two are isomorphic, and the counts per order (all and
    simple) match the known values."""
    out = []
    by_order = Counter()
    simple_by_order = Counter()
    buckets: dict = {}
    for idx, (vertices, edges) in enumerate(graphs):
        degree = Counter()
        for _, a, b in edges:
            if a == b:
                out.append(f"graph {idx} has a loop")
            degree[a] += 1
            degree[b] += 1
        if any(degree[v] != 3 for v in vertices):
            out.append(f"graph {idx} is not cubic")
        if not is_connected(vertices, edges):
            out.append(f"graph {idx} is not connected")
        n = len(vertices)
        by_order[n] += 1
        pairs = [frozenset((a, b)) for _, a, b in edges]
        if len(set(pairs)) == len(pairs):
            simple_by_order[n] += 1
        h = _to_nx(vertices, edges)
        bucket = buckets.setdefault(_invariant(h), [])
        for other_idx, other in bucket:
            if nx.is_isomorphic(h, other, edge_match=lambda x, y: x["m"] == y["m"]):
                out.append(f"graphs {other_idx} and {idx} are isomorphic")
        bucket.append((idx, h))
    for n, want in CORPUS_COUNTS.items():
        if n > max_vertices:
            continue
        if by_order[n] != want:
            out.append(f"{by_order[n]} graphs on {n} vertices, expected {want}")
        if simple_by_order[n] != SIMPLE_COUNTS[n]:
            out.append(
                f"{simple_by_order[n]} simple graphs on {n} vertices, "
                f"expected {SIMPLE_COUNTS[n]}"
            )
    return out


def graph_outcome_violations(vertices, edges, outcome: str, classes) -> tuple[list, list]:
    """(failures, wrong outputs) for one graph's final outcome.

    A graph with a bridge has no cycle double cover, so it must end
    ``no_frame``; a bridgeless graph fails unless it ends ``verified`` with
    a certificate this module accepts.  A certificate that is claimed but
    does not check is a wrong output, not a failure.
    """
    if bridges(vertices, edges):
        if outcome == "verified":
            return [], ["bridged graph ended verified"]
        if outcome != "no_frame":
            return [f"bridged graph ended {outcome}, expected no_frame"], []
        return [], []
    if outcome != "verified":
        return [f"bridgeless graph ended {outcome}"], []
    bad = cover_violations(vertices, edges, classes or {})
    return [], bad


# -- row graphs --------------------------------------------------------------


def amiable_violations(s: int, edges, f: dict, g: dict) -> list[str]:
    """(f, g) is amiable: three distinct vertex colors in every column, no
    edge colored like one of its ends, and every color met an even number of
    times at every column."""
    out = []
    for j in range(1, s + 1):
        column = [f.get((i, j)) for i in (1, 2, 3)]
        if sorted(c for c in column if c is not None) != [1, 2, 3]:
            out.append(f"column {j} colors {column}")
    if out:
        return out
    parity = Counter()
    for eid, a, b in edges:
        c = g.get(eid)
        if c not in COLORS:
            out.append(f"edge {eid!r} has color {c!r}")
            continue
        if c in (f[a], f[b]):
            out.append(f"edge {eid!r} shares color {c} with an end")
        parity[(a[1], c)] += 1
        parity[(b[1], c)] += 1
    for (j, c), count in sorted(parity.items()):
        if count % 2:
            out.append(f"column {j} meets color {c} {count} times")
    return out


def _gf2_solvable(rows: list[int], nvars: int) -> bool:
    """Rows are bit masks with the right-hand side in bit nvars."""
    rhs = 1 << nvars
    pivots: dict[int, int] = {}
    for row in rows:
        for bit, pivot_row in pivots.items():
            if row >> bit & 1:
                row ^= pivot_row
        low = row & (rhs - 1)
        if not low:
            if row:
                return False
            continue
        bit = low.bit_length() - 1
        for other in list(pivots):
            if pivots[other] >> bit & 1:
                pivots[other] ^= row
        pivots[bit] = row
    return True


def extension_exists(s: int, edges, f: dict) -> bool:
    """Whether some g makes (f, g) amiable, decided as a GF(2) system.

    An edge whose ends have different colors is forced to the third color;
    an edge whose ends share color c picks one of the other two (one bit);
    every (column, color) count must be even.
    """
    for j in range(1, s + 1):
        if sorted(f[(i, j)] for i in (1, 2, 3)) != [1, 2, 3]:
            return False
    equations: dict = {}
    nvars = 0
    choices = []
    for _, a, b in edges:
        if f[a] != f[b]:
            choices.append(((6 - f[a] - f[b]),))
        else:
            lo, hi = [c for c in COLORS if c != f[a]]
            choices.append((lo, hi, nvars))
            nvars += 1
    rhs = 1 << nvars
    for (_, a, b), choice in zip(edges, choices):
        for j in (a[1], b[1]):
            if len(choice) == 1:
                key = (j, choice[0])
                equations[key] = equations.get(key, 0) ^ rhs
            else:
                lo, hi, var = choice
                equations[(j, lo)] = equations.get((j, lo), 0) ^ rhs ^ (1 << var)
                equations[(j, hi)] = equations.get((j, hi), 0) ^ (1 << var)
    return _gf2_solvable(list(equations.values()), nvars)


def identity_f(s: int) -> dict:
    return {(i, j): i for j in range(1, s + 1) for i in (1, 2, 3)}


def amiable_exists(s: int, edges) -> bool:
    """Exhaustive search over vertex colorings.  Renaming the three colors
    maps amiable colorings to amiable colorings, so column 1 is fixed to
    (1, 2, 3) and every other column ranges over all six orders."""
    perms = list(itertools.permutations(COLORS))
    for combo in itertools.product(*([[(1, 2, 3)]] + [perms] * (s - 1))):
        f = {(i, j): combo[j - 1][i - 1] for j in range(1, s + 1) for i in (1, 2, 3)}
        if extension_exists(s, edges, f):
            return True
    return False


def three_way_violations(s: int, edges, extension, standard, symmetric) -> tuple[list, list]:
    """(failures, wrong outputs) for the identity-f answers.

    The extension at f = identity, the standard parity coloring and the
    symmetric parity coloring exist together or not at all.  Disagreement
    is a failure; an extension that is not amiable, or an existence answer
    that the GF(2) system contradicts, is a wrong output.
    """
    answers = (extension is not None, standard is not None, symmetric is not None)
    failures = [] if len(set(answers)) == 1 else [f"identity-f answers disagree: {answers}"]
    wrong = []
    if extension_exists(s, edges, identity_f(s)) != answers[0]:
        wrong.append("extension answer contradicts the GF(2) system")
    if extension is not None:
        wrong += amiable_violations(s, edges, identity_f(s), extension)
    return failures, wrong


def oracle_violations(s: int, edges, coloring) -> list[str]:
    """A returned amiable coloring must be amiable; a 'none' answer must be
    confirmed by the independent exhaustive search."""
    if coloring is None:
        return ["oracle found no amiable coloring but one exists"] if amiable_exists(s, edges) else []
    f, g = coloring
    return amiable_violations(s, edges, f, g)


# -- the scan-rows space ------------------------------------------------------


def _canonical(s: int, multiset) -> tuple:
    best = None
    for cols in itertools.permutations(range(1, s + 1)):
        for row_orders in itertools.product(itertools.permutations((1, 2, 3)), repeat=s):
            mapped = []
            for (i1, j1), (i2, j2) in multiset:
                a = (cols[j1 - 1], row_orders[j1 - 1][i1 - 1])
                b = (cols[j2 - 1], row_orders[j2 - 1][i2 - 1])
                mapped.append((a, b) if a < b else (b, a))
            key = tuple(sorted(mapped))
            if best is None or key < best:
                best = key
    return best


def row_space(columns: int, max_edges: int) -> tuple[int, list]:
    """(raw count, one member per rearrangement orbit) of all row graphs
    with at most ``columns`` columns, at most ``max_edges`` edges and even
    degree at every column."""
    raw = 0
    reps = []
    for s in range(1, columns + 1):
        kinds = [
            ((i1, p), (i2, q))
            for p, q in itertools.combinations(range(1, s + 1), 2)
            for i1 in (1, 2, 3)
            for i2 in (1, 2, 3)
        ]
        seen = set()
        for m in range(max_edges + 1):
            for multiset in itertools.combinations_with_replacement(kinds, m):
                degree = Counter()
                for (_, p), (_, q) in multiset:
                    degree[p] += 1
                    degree[q] += 1
                if any(d % 2 for d in degree.values()):
                    continue
                raw += 1
                key = _canonical(s, multiset)
                if key not in seen:
                    seen.add(key)
                    reps.append((s, [(k, a, b) for k, (a, b) in enumerate(multiset)]))
    return raw, reps


def scan_violations(scanned: int, counterexamples: int, raw: int, reps) -> list[str]:
    """scan-rows decides the whole space: it scans every orbit once (or
    every raw instance, if it stops deduplicating) and reports exactly the
    orbits that have no amiable coloring."""
    out = []
    if scanned not in (len(reps), raw):
        out.append(f"scanned {scanned}, expected {len(reps)} orbits or {raw} raw instances")
    missing = sum(1 for s, edges in reps if not amiable_exists(s, edges))
    if (counterexamples == 0) != (missing == 0) or (
        scanned == len(reps) and counterexamples != missing
    ):
        out.append(f"{counterexamples} counterexamples reported, {missing} orbits have none")
    return out
