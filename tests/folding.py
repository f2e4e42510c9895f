"""Referees for colour renaming: the library reads renamed colours through
the amiable f one at a time (cdc.construct_6cdc); these build the whole
renamed colouring."""

from kotzigcdc.frame import Frame, PerfectColoring
from kotzigcdc.rowgraph import AmiableColoring


def permute_component_colors(
    frame: Frame, coloring: PerfectColoring, perms: dict[int, dict[int, int]]
) -> PerfectColoring:
    """The coloring with the colors of each component whose label is in
    perms renamed by that component's permutation."""
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


def fold_vertex_coloring(f: Frame, coloring: PerfectColoring, amiable: AmiableColoring) -> PerfectColoring:
    """The coloring with each component's colors renamed as amiable.f
    renames the rows of its column."""
    perms = {
        comp.label: {i: amiable.f[(i, comp.label)] for i in (1, 2, 3)} for comp in f.components
    }
    return permute_component_colors(f, coloring, perms)
