"""Toeplitz-corona checks and constructive solutions.

Checks the corona hypothesis as a family of Pick-type positivity
conditions over finite point sets, and produces G with F*G = 1 by reducing
to a tangential interpolation problem with directions conj(F(x_j)) and
targets delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HypothesisInsufficientAtScale, InfeasibleConstraints
from .numerics import DiskGrid, hermitian_min_eig
from .pick import FullHinf, TangentialProblem, family_minimum
from .rkhs import ModelVector, SzegoKernel, _sphere_rows, check_in_disk, tm_basis
from .solve import VectorAnalyticFunction, tangential_solve

__all__ = [
    "CoronaProblem",
    "CoronaReport",
    "corona_check",
    "corona_solve",
]


@dataclass
class CoronaProblem:
    """Row data F with lower bound delta: the hypothesis to check is that
    [(<F(y)*, F(x)*> - delta^2) K(x, y)] is PSD over finite sets and the
    algebra's kernel family."""

    function: VectorAnalyticFunction
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < np.sqrt(np.finfo(float).max)):
            raise ValueError("delta must be positive, with a finite square")

    @property
    def algebra(self):
        return self.function.algebra


@dataclass
class CoronaReport:
    """Outcome of a corona check or solve."""

    passed: bool
    min_eig: float
    worst_point_set: Optional[np.ndarray] = None
    worst_parameter: Optional[ModelVector] = None
    sets_tested: int = 0
    kernels_tested: int = 0
    node_residual: Optional[float] = None
    grid_residual: Optional[float] = None
    solution_norm: Optional[float] = None
    lower_bound: Optional[float] = None
    norm_slack: Optional[float] = None


def corona_check(problem: CoronaProblem, point_sets, samples: int = 200,
                 tol: float = 1e-8, seed: int = 0) -> CoronaReport:
    """Test the corona positivity condition on each point set.

    For H-infinity the family is the Szego kernel alone; for
    C + B*H-infinity each point set goes through family_minimum, the sweep
    of ``samples`` unit model vectors, drawn once for all sets, and the
    refine of the Pick family test.  Fails fast with the witness point set
    and kernel parameter.
    """
    algebra = problem.algebra
    if not isinstance(algebra, FullHinf):
        sweep = _sphere_rows(algebra.product, samples, seed)
    worst_eig = np.inf
    sets_tested = 0
    kernels_tested = 0
    for pts in point_sets:
        pts = check_in_disk(pts, "corona point")
        sets_tested += 1
        fvals = problem.function.values(pts)
        # entry (i, j) = sum_k F_k(x_i) conj(F_k(x_j)) - delta^2
        inner = fvals @ fvals.conj().T - problem.delta ** 2
        inner = 0.5 * (inner + inner.conj().T)
        if isinstance(algebra, FullHinf):
            lam, witness = hermitian_min_eig(inner * SzegoKernel().gram(pts)), None
            kernels_tested += 1
        else:
            lam, c = family_minimum(algebra.product, pts, inner, sweep)
            witness = ModelVector(tm_basis(algebra.product), c)
            kernels_tested += samples
        worst_eig = min(worst_eig, lam)
        if lam < -tol:
            return CoronaReport(
                passed=False,
                min_eig=lam,
                worst_point_set=pts,
                worst_parameter=witness,
                sets_tested=sets_tested,
                kernels_tested=kernels_tested,
            )
    return CoronaReport(
        passed=True,
        min_eig=float(worst_eig),
        sets_tested=sets_tested,
        kernels_tested=kernels_tested,
    )


# corona_solve accepts a tangential solution of grid norm up to 1 + _NORM_SLACK.
_NORM_SLACK = 1e-3


def corona_solve(problem: CoronaProblem, node_set, degree: int, grid: DiskGrid,
                 tol: float = 1e-6, check_samples: int = 200, seed: int = 0):
    """Produce G with F(z) . G(z) = 1 at the nodes and norm near 1/delta.

    Builds the tangential problem with directions conj(F(x_j)), targets
    delta, bound 1 over the same algebra, solves it by constrained minimax,
    and returns G = (1/delta) * G_Y.  The node residual is certified; the
    residual over the verification grid is reported, not guaranteed (the
    exact statement takes a limit over all finite node sets).  The report's
    lower_bound is the minimax's weak-duality bound over delta: no G of this
    degree meeting the nodes has a smaller grid norm.

    Raises HypothesisInsufficientAtScale when the check fails on the node
    set, when no G of this degree meets the nodes (the minimax's least
    squares raises InfeasibleConstraints), or when the tangential solution
    misses contractivity by more than _NORM_SLACK.
    """
    nodes = check_in_disk(node_set, "corona node")
    precheck = corona_check(problem, [nodes], samples=check_samples,
                            tol=1e-8, seed=seed)
    if not precheck.passed:
        raise HypothesisInsufficientAtScale(
            f"corona hypothesis fails on the node set: min eig {precheck.min_eig:.3e}",
            report=precheck,
        )
    fvals = problem.function.values(nodes)
    tangential = TangentialProblem(
        points=nodes,
        directions=np.conj(fvals),
        targets=np.full(nodes.size, problem.delta, dtype=complex),
        bound=1.0,
        algebra=problem.algebra,
    )
    try:
        result = tangential_solve(tangential, degree, grid, level=1.0, tol=tol)
    except InfeasibleConstraints as exc:
        raise HypothesisInsufficientAtScale(
            f"tangential step failed: {exc}", report=precheck
        ) from exc
    if result.grid_norm > 1.0 + _NORM_SLACK:
        raise HypothesisInsufficientAtScale(
            f"tangential solution norm {result.grid_norm:.6f} exceeds 1 + "
            f"{_NORM_SLACK}; raise the degree or refine the grid",
            report=precheck,
        )
    solution = result.function.scaled(1.0 / problem.delta)
    node_res = _identity_residual(problem.function, solution, nodes)
    grid_res = _identity_residual(problem.function, solution, grid.points)
    norm = solution.grid_norm(grid.points)
    report = CoronaReport(
        passed=True,
        min_eig=precheck.min_eig,
        sets_tested=1,
        kernels_tested=precheck.kernels_tested,
        node_residual=node_res,
        grid_residual=grid_res,
        solution_norm=norm,
        lower_bound=result.minimax.lower_bound / problem.delta,
        norm_slack=max(result.grid_norm - 1.0, 0.0),
    )
    return solution, report


def _identity_residual(f: VectorAnalyticFunction, g: VectorAnalyticFunction,
                       points) -> float:
    fv = f.values(points)
    gv = g.values(points)
    prod = np.sum(fv * gv, axis=1)
    return float(np.abs(prod - 1.0).max())
