"""Small named graphs used by tests, docs and the CLI examples."""

from __future__ import annotations

from .multigraph import Multigraph


def theta_graph() -> Multigraph:
    """Two vertices joined by three parallel edges."""
    return Multigraph([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])


def cycle_graph(n: int) -> Multigraph:
    if n == 2:
        return Multigraph([0, 1], [(0, 0, 1), (1, 0, 1)])
    return Multigraph(range(n), [(i, i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Multigraph:
    """Path on n vertices (n - 1 edges)."""
    return Multigraph(range(n), [(i, i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Multigraph:
    edges = []
    eid = 0
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((eid, i, j))
            eid += 1
    return Multigraph(range(n), edges)


def k4() -> Multigraph:
    return complete_graph(4)


def k33() -> Multigraph:
    edges = []
    eid = 0
    for i in range(3):
        for j in range(3, 6):
            edges.append((eid, i, j))
            eid += 1
    return Multigraph(range(6), edges)


def prism() -> Multigraph:
    """Triangular prism: two triangles joined by a matching."""
    edges = [
        (0, 0, 1), (1, 1, 2), (2, 2, 0),
        (3, 3, 4), (4, 4, 5), (5, 5, 3),
        (6, 0, 3), (7, 1, 4), (8, 2, 5),
    ]
    return Multigraph(range(6), edges)


def cube_graph() -> Multigraph:
    """3-dimensional cube; vertices are 0..7 read as bit masks."""
    edges = []
    eid = 0
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((eid, v, w))
                eid += 1
    return Multigraph(range(8), edges)


def petersen() -> Multigraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = []
    eid = 0
    for i in range(5):
        edges.append((eid, i, (i + 1) % 5))
        eid += 1
    for i in range(5):
        edges.append((eid, 5 + i, 5 + (i + 2) % 5))
        eid += 1
    for i in range(5):
        edges.append((eid, i, i + 5))
        eid += 1
    return Multigraph(range(10), edges)


def theta_subdivision() -> Multigraph:
    """Smallest proper theta subdivision: paths of lengths 1, 2, 2."""
    # branch vertices 0, 1; path vertices 2, 3
    return Multigraph(
        [0, 1, 2, 3],
        [(0, 0, 1), (1, 0, 2), (2, 2, 1), (3, 0, 3), (4, 3, 1)],
    )
