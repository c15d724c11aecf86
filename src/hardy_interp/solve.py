"""Interpolant construction and verification.

Exact Schur-recursion solutions for scalar problems over H-infinity,
norm-near-optimal tangential solutions by constrained minimax on a disk
grid over a degree-d basis of the algebra, and an end-to-end verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateBoundaryData,
    DuplicateNodes,
    InfeasibleProblem,
)
from .numerics import DiskGrid, MinimaxSolution, is_psd, minimax_affine
from .pick import (
    FullHinf,
    TangentialProblem,
    build_pick_matrix,
    default_kernel,
)
from .rkhs import SzegoKernel, check_in_disk

__all__ = [
    "AnalyticBasis",
    "VectorAnalyticFunction",
    "SchurInterpolant",
    "schur_interpolate",
    "TangentialSolveResult",
    "tangential_solve",
    "SolutionReport",
    "verify_solution",
]


class AnalyticBasis:
    """Finite algebra-respecting basis.

    H-infinity at degree d uses the monomials z^0..z^d (size d+1); the
    subalgebra C + B*H-infinity uses {1} followed by B*z^0..B*z^d (size
    d+2), so every span element lies in the algebra by construction.
    """

    def __init__(self, algebra, degree: int):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.algebra = algebra
        self.degree = int(degree)

    @property
    def size(self) -> int:
        if isinstance(self.algebra, FullHinf):
            return self.degree + 1
        return self.degree + 2

    def eval_matrix(self, points) -> np.ndarray:
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        powers = z[:, None] ** np.arange(self.degree + 1)[None, :]
        if isinstance(self.algebra, FullHinf):
            return powers
        bvals = self.algebra.product(z)
        out = np.empty((z.size, self.degree + 2), dtype=complex)
        out[:, 0] = 1.0
        out[:, 1:] = bvals[:, None] * powers
        return out


@dataclass
class VectorAnalyticFunction:
    """Vector-valued function given by coefficients over an AnalyticBasis.

    Component k at z is ``sum_b coefficients[k, b] * basis_b(z)``; every
    component lies in the declared algebra by construction of the basis.
    """

    basis: AnalyticBasis
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.atleast_2d(np.asarray(self.coefficients, dtype=complex))
        if self.coefficients.shape[1] != self.basis.size:
            raise ValueError(
                f"expected {self.basis.size} coefficients per component, "
                f"got {self.coefficients.shape[1]}"
            )

    @property
    def components(self) -> int:
        return self.coefficients.shape[0]

    @property
    def algebra(self):
        return self.basis.algebra

    def values(self, points) -> np.ndarray:
        """Values at points, shape (len(points), components)."""
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        return self.basis.eval_matrix(z) @ self.coefficients.T

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        vals = self.values(zz.reshape(-1))
        if zz.shape:
            return vals.reshape(zz.shape + (self.components,))
        return vals[0]

    def grid_norm(self, points) -> float:
        vals = self.values(points)
        return float(np.sqrt(np.sum(np.abs(vals) ** 2, axis=1)).max())

    def scaled(self, factor: complex) -> "VectorAnalyticFunction":
        return VectorAnalyticFunction(self.basis, self.coefficients * factor)


class SchurInterpolant:
    """Scalar rational interpolant produced by the Schur recursion.

    Stored as numerator/denominator polynomial coefficients (ascending);
    the degree is at most the number of nodes.  Exposes the same
    evaluation surface as a one-component VectorAnalyticFunction.
    """

    def __init__(self, numerator: np.ndarray, denominator: np.ndarray):
        self.numerator = np.asarray(numerator, dtype=complex)
        self.denominator = np.asarray(denominator, dtype=complex)
        self.algebra = FullHinf()

    def values(self, points) -> np.ndarray:
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        num = np.polynomial.polynomial.polyval(z, self.numerator)
        den = np.polynomial.polynomial.polyval(z, self.denominator)
        return (num / den)[:, None]

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        vals = self.values(zz.reshape(-1))[:, 0]
        return vals.reshape(zz.shape) if zz.shape else complex(vals[0])

    def grid_norm(self, points) -> float:
        return float(np.abs(self.values(points)[:, 0]).max())


def _mobius_compose(u1: complex, x1: complex, num: np.ndarray, den: np.ndarray):
    """One inverse Schur step: f = (u1 + b*f1) / (1 + conj(u1)*b*f1) with
    b(z) = (z - x1)/(1 - conj(x1) z), on polynomial num/den pairs."""
    poly = np.polynomial.polynomial
    nb = np.array([-x1, 1.0], dtype=complex)          # z - x1
    db = np.array([1.0, -np.conj(x1)], dtype=complex)  # 1 - conj(x1) z
    d_term = poly.polymul(db, den)
    n_term = poly.polymul(nb, num)
    top = poly.polyadd(d_term * u1, n_term)
    bot = poly.polyadd(d_term, n_term * np.conj(u1))
    return top, bot


def _schur_recursion(points: np.ndarray, values: np.ndarray):
    u1 = values[0]
    if points.size == 1:
        return np.array([u1], dtype=complex), np.array([1.0], dtype=complex)
    if abs(u1) >= 1.0 - 1e-12:
        if np.all(np.abs(values - u1) <= 1e-10):
            return np.array([u1], dtype=complex), np.array([1.0], dtype=complex)
        raise DegenerateBoundaryData(
            "target on the norm boundary with non-constant remaining data"
        )
    x1 = points[0]
    rest_x = points[1:]
    mob = (values[1:] - u1) / (1.0 - np.conj(u1) * values[1:])
    bl = (rest_x - x1) / (1.0 - np.conj(x1) * rest_x)
    reduced = mob / bl
    num1, den1 = _schur_recursion(rest_x, reduced)
    return _mobius_compose(u1, x1, num1, den1)


def schur_interpolate(points, values, bound: float) -> SchurInterpolant:
    """Classical scalar Nevanlinna-Pick solution at norm bound alpha.

    Requires distinct nodes and a Pick matrix (Szego kernel) that is PSD at
    tolerance 1e-10; returns a rational function of degree at most n that
    meets the data and has supremum norm at most alpha up to rounding.
    """
    pts = check_in_disk(points, "interpolation node")
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    if pts.size != vals.size:
        raise ValueError("points and values must have equal length")
    for i in range(pts.size):
        for j in range(i + 1, pts.size):
            if abs(pts[i] - pts[j]) <= 1e-14:
                raise DuplicateNodes(f"nodes {i} and {j} coincide at {pts[i]}")
    if not (bound > 0.0):
        raise ValueError("norm bound must be positive")

    problem = TangentialProblem(
        points=pts,
        directions=np.ones((pts.size, 1), dtype=complex),
        targets=vals,
        bound=bound,
        algebra=FullHinf(),
    )
    pm = build_pick_matrix(problem, SzegoKernel())
    verdict = is_psd(pm.matrix, 1e-10)
    if not verdict.is_psd:
        raise InfeasibleProblem(
            f"Pick matrix not PSD: min eigenvalue {verdict.min_eig:.3e}"
        )
    num, den = _schur_recursion(pts, vals / bound)
    return SchurInterpolant(num * bound, den)


@dataclass
class TangentialSolveResult:
    """Near-optimal tangential solution on a grid.

    ``grid_norm`` is the achieved grid maximum of the solution's vector
    norm; ``meets_level`` compares it with the caller's level, when one
    was supplied.
    """

    function: VectorAnalyticFunction
    grid_norm: float
    meets_level: Optional[bool]
    minimax: MinimaxSolution


def tangential_solve(problem: TangentialProblem, degree: int, grid: DiskGrid,
                     level: Optional[float] = None,
                     tol: float = 1e-6) -> TangentialSolveResult:
    """Minimize the grid norm over the degree-d algebra basis subject to
    the interpolation constraints.

    The data are met at degree d exactly when the linear system Lc = b on
    the coefficients is consistent; minimax_affine checks that by least
    squares and raises InfeasibleConstraints otherwise.  The reported norm
    is a grid maximum: a lower bound for the true supremum.
    """
    basis = AnalyticBasis(problem.algebra, degree)
    nodes_eval = basis.eval_matrix(problem.points)
    # row j, component block k: conj(v_jk) times the basis values at x_j
    lmat = (np.conj(problem.directions)[:, :, None] * nodes_eval[:, None, :]).reshape(
        problem.node_count, -1)
    solution = minimax_affine(basis.eval_matrix(grid.points), (lmat, problem.targets), grid, tol)
    func = VectorAnalyticFunction(basis, solution.coefficients)
    achieved = solution.achieved_level
    return TangentialSolveResult(
        function=func,
        grid_norm=achieved,
        meets_level=None if level is None else bool(achieved <= level * (1.0 + 1e-6)),
        minimax=solution,
    )


@dataclass
class SolutionReport:
    """Verification summary for a candidate solution."""

    residuals: np.ndarray
    max_residual: float
    grid_norm: float
    pick_min_eig: float
    pick_psd: bool


# verify_solution's PSD tolerance on the smallest Pick eigenvalue.
_PSD_TOL = 1e-6


def verify_solution(function, problem: TangentialProblem, grid: DiskGrid) -> SolutionReport:
    """Residuals, grid norm, and the Pick PSD re-check at alpha = grid norm.

    The PSD status uses the algebra's canonical single kernel; it is a
    necessity check, meaningful when the grid norm is close to the true
    supremum of the candidate.
    """
    vals = function.values(problem.points)
    attained = np.sum(vals * np.conj(problem.directions), axis=1)
    residuals = np.abs(attained - problem.targets)
    gnorm = function.grid_norm(grid.points)
    check_problem = TangentialProblem(
        points=problem.points,
        directions=problem.directions,
        targets=problem.targets,
        bound=max(gnorm, 1e-300),
        algebra=problem.algebra,
    )
    pm = build_pick_matrix(check_problem, default_kernel(problem.algebra))
    verdict = is_psd(pm.matrix, _PSD_TOL)
    return SolutionReport(
        residuals=residuals,
        max_residual=float(residuals.max()),
        grid_norm=gnorm,
        pick_min_eig=verdict.min_eig,
        pick_psd=verdict.is_psd,
    )
