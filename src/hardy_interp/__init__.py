"""Tangential Nevanlinna-Pick interpolation and Toeplitz-corona solvers
over H-infinity and the constrained subalgebras C + B*H-infinity on the
unit disk, with kernel-family feasibility tests, constructive interpolants,
and a finite-truncation check of the operator-distance duality."""

from .corona import CoronaProblem, CoronaReport, corona_check, corona_solve
from .duality import (
    DistanceSolution,
    TruncatedDistanceProblem,
    distance_dual,
    distance_primal,
    solve_distance,
)
from .errors import (
    DegenerateBoundaryData,
    DuplicateNodes,
    HardyInterpError,
    HypothesisInsufficientAtScale,
    InconsistentNodes,
    InfeasibleConstraints,
    InfeasibleProblem,
    InvalidMatrix,
    InvalidRadius,
    KernelMismatch,
    NotConverged,
    NotLogIntegrable,
    NotNormalized,
    ProblemFileError,
)
from .numerics import (
    DiskGrid,
    MinimaxSolution,
    QuadratureRule,
    disk_grid,
    hermitian_eigenvalues,
    hermitian_min_eig,
    minimax_affine,
    uniform_rule,
)
from .pick import (
    CplusB,
    FeasibilityReport,
    FullHinf,
    PickMatrix,
    TangentialProblem,
    Verdict,
    build_pick_matrix,
    default_kernel,
    family_minimum,
    feasible_family,
    feasible_single,
    kernel_minimum,
    unit_constant_projection,
)
from .rkhs import (
    BlaschkeProduct,
    CyclicKernel,
    ModelSpaceBasis,
    ModelSpaceKernel,
    ModelVector,
    OuterFunction,
    SzegoKernel,
    cyclic_grams,
    outer_from_modulus,
    sample_model_sphere,
    tm_basis,
)
from .solve import (
    AnalyticBasis,
    SchurInterpolant,
    SolutionReport,
    TangentialSolveResult,
    VectorAnalyticFunction,
    schur_interpolate,
    tangential_solve,
    verify_solution,
)

__version__ = "0.1.0"
