"""Constructive 6-class cycle double covers of cubic graphs via Kotzig frames."""

from .multigraph import (
    Multigraph,
    components,
    is_connected,
    is_eulerian,
    suppress_degree2,
)
from .kotzig import (
    Classification,
    classify_component,
    enumerate_kotzig_colorings,
    enumerate_perfect_colorings,
    find_kotzig_coloring,
    is_kotzig_coloring,
)
from .frame import (
    Frame,
    PerfectColoring,
    Witness,
    find_well_connected_frame_coloring,
    is_perfect_coloring,
    search_frames,
    validate_frame,
    well_connected_witness,
)
from .rowgraph import (
    AmiableColoring,
    RowEdge,
    RowGraph,
    brute_force_amiable,
    build_row_graph,
    extend_to_amiable,
    is_amiable,
    row_contract,
)
from .switching import (
    BLUE,
    RED,
    acyclic_t_join,
    resolve_two_row,
    switchable_to_blue,
)
from .amiable import (
    ConstructionTrace,
    ParityColoring,
    amiable_coloring_for_frame,
    amiable_to_parity,
    construct_amiable_concentrated_row,
    construct_amiable_main,
    construct_amiable_two_busy_columns,
    find_parity_coloring,
    is_parity_coloring,
    normalize_frame_coloring,
    parity_to_amiable,
)
from .cdc import (
    CdcCertificate,
    CdcReport,
    construct_6cdc,
    partition_chords,
    two_cycle_cover_even,
    verify_cdc,
)

__version__ = "0.1.0"
