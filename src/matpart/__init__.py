"""Matrix partition problems on graphs.

Matrices over {0, 1, *} and their colored-type view, exact embedding
solvers, minimal-obstruction enumeration, seeded random types with
neighborhood-bound checkers, and the gadget constructions that drive
growing obstruction families and polynomial reductions.
"""

from .model import (
    BLUE,
    GREEN,
    RED,
    BlockRowReport,
    PartitionMatrix,
    SimpleGraph,
    SubtypeCopy,
    TypeGraph,
    block_row_distinctness,
    coloring_matrix,
    common_neighborhood,
    find_subtype_copy,
    is_embedding,
    is_friendly,
    matrix_from_type,
    rho_obstruction_family,
    rho_three_coloring,
    subtype,
    type_from_matrix,
    type_is_friendly,
)
from .solver import (
    FixedPointReport,
    SearchResult,
    SolverConfig,
    brute_force_has_embedding,
    canonical_code,
    enumerate_edge_homomorphisms,
    enumerate_minimal_obstructions,
    find_embedding,
    is_minimal_obstruction,
    min_fixed_points,
)
from .randtypes import (
    LemmaReport,
    MCProperty,
    MCSummary,
    MembershipScenario,
    ProbabilityResult,
    RandomSpec,
    chernoff_exponent,
    chernoff_tail_bound,
    check_neighborhood_lemma,
    exact_membership_probability,
    monte_carlo,
    plant_subtype,
    sample_type,
)
from .constructions import (
    ObstructionInstance,
    ReductionInstance,
    broken_path_embedding,
    build_planted_obstruction,
    extend_embedding,
    obstruction_graph,
    reduction_graph,
    restricted_placement_unsat,
)

__version__ = "0.1.0"
