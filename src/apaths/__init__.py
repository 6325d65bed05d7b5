"""apaths: packing and covering certificates for long induced A-paths.

Given a graph, a terminal set, and parameters (k, ell), the solver returns
either k pairwise anti-complete induced terminal-to-terminal paths of length
at least ell, or two hitting sets z1, z2 with |z1| <= (12*max(ell,3)+42)(k-1)
and |z2| <= 4(k-1) whose radius-1 / radius-max(ell+1,4) ball removal destroys
every such path. Brute-force oracles and an independent verifier certify both
outcomes exactly at desk scale.
"""

from .graph import (
    Graph,
    GraphError,
    Path,
    VertexSet,
    anti_complete,
    ball,
    components,
    dist,
    induced_subgraph,
    is_induced_path,
    is_path,
    power_graph,
)
from .search import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    enumerate_induced_apaths,
    exists_apath,
    find_induced_apath_in_range,
    has_long_induced_apath,
    max_anticomplete_packing_with_witness,
    max_vertex_disjoint_apath_packing,
    oracle_max_anticomplete_packing,
    oracle_min_ball_cover,
    shortest_apath,
    shortest_long_induced_apath,
)
from .frame import (
    Frame,
    FrameInvariantError,
    Violation,
    build_maximal_frame,
    extend_frame,
    extract_frame_paths,
    find_extension,
    init_frame,
    leaf_paths,
    validate_frame,
)
from .solver import (
    Certificate,
    Cover,
    Packing,
    PowerGraphMap,
    SolveParams,
    lift_path,
    reduce_to_d3,
    solve,
)
from .verify import (
    Check,
    Report,
    verify_certificate,
    verify_cover,
    verify_packing,
    verify_tightness_claims,
)
from .generators import (
    caterpillar_instance,
    complete_instance,
    random_instance,
    random_subcubic_tree,
    subdivided_complete_instance,
)
from .cli import emit_graph, parse_graph

__all__ = [
    "Graph", "GraphError", "Path", "VertexSet",
    "ball", "dist", "anti_complete", "induced_subgraph", "components",
    "is_path", "is_induced_path", "power_graph",
    "BudgetExceededError", "DEFAULT_BUDGET",
    "exists_apath", "shortest_apath", "shortest_long_induced_apath",
    "find_induced_apath_in_range", "has_long_induced_apath",
    "enumerate_induced_apaths", "oracle_max_anticomplete_packing",
    "max_anticomplete_packing_with_witness", "max_vertex_disjoint_apath_packing",
    "oracle_min_ball_cover",
    "Frame", "Violation", "FrameInvariantError",
    "validate_frame", "init_frame", "find_extension",
    "extend_frame", "build_maximal_frame", "leaf_paths", "extract_frame_paths",
    "SolveParams", "Packing", "Cover", "Certificate", "solve",
    "PowerGraphMap", "reduce_to_d3", "lift_path",
    "Check", "Report", "verify_packing", "verify_cover", "verify_certificate",
    "verify_tightness_claims",
    "complete_instance", "subdivided_complete_instance", "random_instance",
    "random_subcubic_tree", "caterpillar_instance",
    "parse_graph", "emit_graph",
]

__version__ = "0.1.0"
