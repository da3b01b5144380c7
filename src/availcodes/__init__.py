"""Erasure codes with availability: constructions, verification, bounds.

The package builds strict-availability parity-check matrices, checks the
defining regularity properties, computes exact brute-force invariants
(minimum distance, dual support weights), and evaluates every implemented
rate / distance / dimension bound in exact rational arithmetic, including
a weight-distribution linear program with an exact simplex solver.
"""

from .bitmatrix import (
    BitMatrix,
    MatrixFormatError,
    parse_matrix,
    rank,
    rank_and_nullspace,
    row_space_basis,
    serialize_matrix,
)
from .bounds import (
    BoundNotApplicableError,
    BoundResult,
    GHWBoundProfile,
    dim_huang,
    dmin_m_delta,
    dmin_m_delta_max,
    dmin_shortening,
    dmin_tamo_barg,
    dmin_wang,
    ghw_profile_linear,
    ghw_profile_m_delta,
    ghw_profile_simple,
    k_opt_griesmer,
    rate_best_known,
    rate_greedy_t3,
    rate_tamo_barg,
    rate_transpose,
    rate_transpose_step,
    rate_wzl_achievable,
)
from .codes import AvailabilityCode
from .constructions import (
    PartitionFamily,
    build_partition_family,
    functional_code,
    generate_mols,
    partition_code,
    product_code,
    projective_functionals,
)
from .fields import FiniteField, matrix_rank, prime_power
from .figures import FigureSpec, emit_figure_data
from .lp import (
    InfeasibleRelaxationError,
    LPBoundResult,
    LPModel,
    LPSolution,
    PivotLimitError,
    build_lp,
    lp_dimension_bound,
    point_violations,
    solve_lp,
)
from .verification import (
    AvailabilityCheckReport,
    GHWResult,
    GreedyTrace,
    StrictCheckReport,
    check_availability,
    check_strict_availability,
    dual_ghw_bruteforce,
    greedy_cover,
    min_distance_bruteforce,
)
from .weights import (
    EnumerationBudgetError,
    WeightDistribution,
    binomial,
    krawtchouk,
    macwilliams_transform,
    macwilliams_vector,
    weight_distribution,
)

__version__ = "0.1.0"
