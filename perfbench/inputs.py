"""Seeded input generators.  The same seed gives the same inputs, and the
program sees only the text these functions produce (graph6 lines, graph
and frame JSON, row-graph edge lists).  Nothing here imports kotzigcdc."""

from __future__ import annotations

import hashlib
import json
import random

from checks import bridges, is_connected, three_edge_colourable

# random_cubic: one graph per order in a round.  Above 40 vertices one
# graph's frame search can take over a run: on 44 vertices one graph in 60
# took 1.3 s against a median of 60 ms, and on 60 vertices one took 23 s.
CUBIC_ORDERS = (20, 24, 28, 32, 36, 40)
# A bridgeless, 3-edge-connected cubic graph on 20 vertices with girth 3
# that is not 3-edge-colourable.  It came up in the pairing model.  It has
# no even 2-factor and 30 edges, above the exhaustive search's limit, so the
# program gives it no cover; random_cubic runs it in every round and it
# counts as failed every time.
NOT_COLOURABLE_GRAPH6 = "S_?S@DCA@?aAo?A??GO?@Ga??DOHA?o?_"
# planted_frames: one graph per order in a round.
PLANTED_ORDERS = (200, 300, 400)
CYCLE_LENGTHS = (4, 6, 8, 10)
K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# row_oracles: edges per row graph by column count, all within the oracle's
# 24-edge guard, and the column counts of the graphs in each batch of a
# round.  The oracle's time is heavy-tailed from 5 columns up: on 6 columns
# with 12 edges the median is 11 ms, the 90th percentile 170 ms and the
# 99th 0.5 s.  With a 6-column graph in every batch, those few draws set
# most of a run's time, so a round holds one.
ROW_EDGES = {3: 12, 4: 14, 5: 16, 6: 12}
ROW_BATCHES = (
    {3: 4, 4: 4, 5: 4, 6: 1},
    {3: 4, 4: 4, 5: 4},
    {3: 4, 4: 4, 5: 4},
    {3: 4, 4: 4, 5: 4},
)
# scan_rows: the fixed space every round decides.
SCAN_ARGS = ("--columns", "2", "--max-edges", "6")


def rng_for(seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + parts)))


def random_cubic_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random connected simple cubic graph from the pairing model: three
    points per vertex, paired uniformly at random, drawn again while the
    pairing gives a loop, a parallel edge or a disconnected graph.

    A bridgeless draw that is not 3-edge-colourable is drawn again too.
    Such a graph has no even 2-factor, so ``two_factor`` cannot cover it
    (see NOT_COLOURABLE_GRAPH6), and it turns up on some seeds only, which
    would make the share of failed items differ from run to run.  The
    draws are therefore uniform among the bridged and the 3-edge-colourable
    cubic graphs, and the defect is shown by NOT_COLOURABLE_GRAPH6 in every
    round instead.  Colourability is decided by ``checks``, not by the
    program."""
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) < 3 * n // 2 or any(a == b for a, b in pairs):
            continue
        edges = [(k, a, b) for k, (a, b) in enumerate(sorted(pairs))]
        if not is_connected(range(n), edges):
            continue
        if bridges(range(n), edges) or three_edge_colourable(range(n), edges):
            return sorted(pairs)


def graph6_line(n: int, pairs) -> str:
    """graph6 text of a simple graph on fewer than 63 vertices."""
    present = set(pairs)
    bits = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[k : k + 6])), 2)))
    return "".join(chars)


def graph6_pairs(line: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted vertex pairs) of a graph6 line on fewer than 63 vertices."""
    n = ord(line[0]) - 63
    bits = [(ord(ch) - 63) >> (5 - k) & 1 for ch in line[1:] for k in range(6)]
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(pair for pair, bit in zip(slots, bits) if bit)


def graph6_edges(n: int, pairs) -> list[tuple[int, int, int]]:
    """Edges of a graph6 graph numbered in the format's bit order, which is
    the order a graph6 reader meets them."""
    present = set(pairs)
    order = [(i, j) for j in range(1, n) for i in range(j) if (i, j) in present]
    return [(k, a, b) for k, (a, b) in enumerate(order)]


def planted_graph(n: int, rng: random.Random) -> tuple[list, list]:
    """A cubic graph on n vertices with a known frame: an even subdivision
    of K4 plus even cycles, completed by a random perfect matching on the
    frame's 2-valent vertices (resampled until the graph is connected).
    Returns (edges, frame edge ids); frame edges come first."""
    frame = []
    subdivisions = [rng.randrange(4) for _ in K4_EDGES]
    if sum(subdivisions) % 2:
        subdivisions[0] += 1
    if not sum(subdivisions):
        # a K4 with no 2-valent vertex gets no matching edge and would stay
        # apart from the rest of the graph
        subdivisions[0] = 2
    nv = 4
    for (a, b), k in zip(K4_EDGES, subdivisions):
        path = [a, *range(nv, nv + k), b]
        nv += k
        frame += zip(path, path[1:])
    while nv < n:
        length = rng.choice(CYCLE_LENGTHS)
        if n - nv - length < min(CYCLE_LENGTHS):
            length = n - nv
        cycle = list(range(nv, nv + length))
        nv += length
        frame += zip(cycle, cycle[1:] + cycle[:1])
    degree = [0] * n
    for a, b in frame:
        degree[a] += 1
        degree[b] += 1
    two_valent = [v for v in range(n) if degree[v] == 2]
    while True:
        rng.shuffle(two_valent)
        matching = list(zip(two_valent[::2], two_valent[1::2]))
        edges = [(k, a, b) for k, (a, b) in enumerate(frame + matching)]
        if is_connected(range(n), edges):
            return edges, list(range(len(frame)))


def random_row_edges(s: int, rng: random.Random) -> list:
    """A random row graph on s columns whose column contraction has even
    degrees: closed walks through distinct columns, each step landing on a
    random row at both ends."""
    edges = []
    target = ROW_EDGES[s]
    while target - len(edges) >= 2:
        cols = rng.sample(range(1, s + 1), rng.randint(2, min(s, target - len(edges))))
        for p, q in zip(cols, cols[1:] + cols[:1]):
            edges.append((len(edges), (rng.randint(1, 3), p), (rng.randint(1, 3), q)))
    return edges


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]
