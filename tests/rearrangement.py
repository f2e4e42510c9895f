"""Rearrangements of row graphs: a column permutation plus a row
permutation inside each column.  Only tests rearrange row graphs; the
library colours the row graph it is given."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from kotzigcdc.rowgraph import AmiableColoring, GridVertex, RowEdge, RowGraph


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
