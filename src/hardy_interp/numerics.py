"""Shared numerical kernel.

Validated Hermitian eigenvalues by LAPACK (one matrix or a batched stack),
positive-semidefinite verdicts, uniform circle quadrature, deterministic
disk sampling grids, and a linearly-constrained minimax solver.  Everything
here is a pure function of its inputs; matrices are ordinary numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraints, InvalidMatrix, InvalidRadius, NotConverged

__all__ = [
    "as_hermitian",
    "hermitian_eigenvalues",
    "hermitian_min_eig",
    "PsdVerdict",
    "is_psd",
    "QuadratureRule",
    "uniform_rule",
    "circle_integral",
    "DiskGrid",
    "disk_grid",
    "MinimaxSolution",
    "minimax_affine",
]


def as_hermitian(entries) -> np.ndarray:
    """Validate and return a square Hermitian matrix, or a stack of them, as
    a complex array.

    Raises InvalidMatrix when the input is not square, has a non-finite
    entry, or deviates from Hermitian symmetry by more than 1e-12 relative to
    the largest entry of its matrix.
    """
    a = np.asarray(entries, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has a non-finite entry")
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    dev = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1))
    if np.any(dev > 1e-12 * scale):
        raise InvalidMatrix(f"matrix is not Hermitian: max deviation {dev.max():.3e}")
    return a


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, by LAPACK.

    A stack of shape (K, n, n) gives a (K, n) array, one ascending row per
    matrix, from a single batched call.
    """
    return np.linalg.eigvalsh(as_hermitian(matrix))


def hermitian_min_eig(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(matrix)[0])


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test."""

    is_psd: bool
    min_eig: float

    def __bool__(self) -> bool:
        return self.is_psd


def is_psd(matrix, tol: float = 1e-8) -> PsdVerdict:
    """Decide positive semidefiniteness at an absolute eigenvalue tolerance.

    PSD means the smallest eigenvalue is >= -tol; the verdict always carries
    that eigenvalue.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lam = hermitian_min_eig(matrix)
    return PsdVerdict(lam >= -tol, lam)


@dataclass(frozen=True)
class QuadratureRule:
    """Uniform quadrature on the unit circle: nodes 2*pi*k/N, weights 1/N.

    N must be a power of two.  The rule integrates trigonometric polynomials
    of degree < N exactly, realizing normalized arc-length measure.
    """

    node_count: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def boundary_points(self) -> np.ndarray:
        return np.exp(1j * self.nodes)


def uniform_rule(node_count: int) -> QuadratureRule:
    """Build the uniform circle rule with a power-of-two node count."""
    n = int(node_count)
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"node_count must be a positive power of two, got {node_count}")
    nodes = 2.0 * np.pi * np.arange(n) / n
    weights = np.full(n, 1.0 / n)
    return QuadratureRule(n, nodes, weights)


def circle_integral(f, rule: QuadratureRule) -> complex:
    """Average of f over the rule's boundary points, (1/N) sum f(e^{i t_k}).

    f may be scalar- or array-aware; evaluation falls back to a per-node
    loop when vectorized evaluation fails.
    """
    pts = rule.boundary_points
    try:
        vals = np.asarray(f(pts), dtype=complex)
        if vals.shape != pts.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([f(z) for z in pts], dtype=complex)
    return complex(np.sum(vals * rule.weights))


@dataclass(frozen=True)
class DiskGrid:
    """Deterministic sampling grid inside the disk of radius max_radius < 1.

    Radii are cosine-spaced (clustered toward max_radius, where suprema of
    analytic functions live); angles are uniform.  Grid maxima lower-bound
    true sup norms; callers state grid-level guarantees only.
    """

    radial_count: int
    angular_count: int
    max_radius: float
    points: np.ndarray

    def __len__(self) -> int:
        return self.points.size


def disk_grid(radial: int, angular: int, max_radius: float) -> DiskGrid:
    """Radial-by-angular product grid; point count is radial * angular."""
    if not (0.0 < max_radius < 1.0):
        raise InvalidRadius(f"max_radius must lie in (0, 1), got {max_radius}")
    if radial < 1 or angular < 1:
        raise ValueError("radial and angular counts must be positive")
    radii = max_radius * np.sin(np.pi * (np.arange(radial) + 1) / (2.0 * radial))
    angles = 2.0 * np.pi * np.arange(angular) / angular
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)
    return DiskGrid(radial, angular, float(max_radius), pts)


@dataclass
class MinimaxSolution:
    """Result of the constrained minimax solve.

    coefficients has one row per component; achieved_level is the exact grid
    maximum of the evaluated vector norm at those coefficients; iterations
    counts projection rounds across all bisection levels.
    """

    coefficients: np.ndarray
    achieved_level: float
    iterations: int
    converged: bool


def _row_norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=1))


def minimax_affine(
    basis_eval,
    constraints,
    grid: DiskGrid,
    tol: float = 1e-6,
    max_rounds: int = 10_000,
    max_bisections: int = 60,
) -> MinimaxSolution:
    """Minimize the grid maximum of a vector norm subject to Lc = b.

    Parameters
    ----------
    basis_eval : array or sequence of arrays
        Evaluation matrix of shape (grid size, basis size), or one such
        matrix per component.  Component k of the candidate function at grid
        point g is ``basis_eval[k][g, :] @ c_k``.
    constraints : (L, b) or None
        Affine system on the concatenated coefficient vector (component
        blocks in order).  Consistency is checked by least squares.
    grid : DiskGrid
        The sampling grid the basis was evaluated on (size check only).
    tol : float
        Relative width of the bisection interval at which to stop.

    Notes
    -----
    The optimal level is bracketed by bisection; each level's feasibility
    problem (affine set versus the product of per-grid-point norm balls) is
    decided by relaxed alternating projections in Douglas-Rachford form,
    warm-started across levels.  Feasibility certificates are genuine
    points of the affine set, so the achieved level is always attained by
    the returned coefficients.

    Raises InfeasibleConstraints for inconsistent systems and NotConverged
    (carrying the best solution) if the bracket cannot reach tol.
    """
    if isinstance(basis_eval, np.ndarray) and basis_eval.ndim == 2:
        mats = [np.asarray(basis_eval, dtype=complex)]
    else:
        mats = [np.asarray(e, dtype=complex) for e in basis_eval]
    m = len(mats)
    gsize, nb = mats[0].shape
    if any(e.shape != (gsize, nb) for e in mats):
        raise ValueError("per-component basis matrices must share one shape")
    if gsize != len(grid):
        raise ValueError("basis evaluation rows do not match the grid size")
    dim = m * nb

    if constraints is None:
        lmat = np.zeros((0, dim), dtype=complex)
        bvec = np.zeros(0, dtype=complex)
    else:
        lmat, bvec = constraints
        lmat = np.atleast_2d(np.asarray(lmat, dtype=complex))
        bvec = np.atleast_1d(np.asarray(bvec, dtype=complex))
    if lmat.shape[1] != dim:
        raise ValueError(f"constraint matrix has {lmat.shape[1]} columns, expected {dim}")

    def values(c):
        cm = c.reshape(m, nb)
        out = np.empty((gsize, m), dtype=complex)
        for k in range(m):
            out[:, k] = mats[k] @ cm[k]
        return out

    if lmat.shape[0] == 0:
        c0 = np.zeros(dim, dtype=complex)
        null = np.eye(dim, dtype=complex)
    else:
        c0, *_ = np.linalg.lstsq(lmat, bvec, rcond=None)
        resid = float(np.linalg.norm(lmat @ c0 - bvec))
        if resid > 1e-8 * max(1.0, float(np.linalg.norm(bvec))):
            raise InfeasibleConstraints(
                f"constraint system inconsistent: least-squares residual {resid:.3e}"
            )
        _, sv, vh = np.linalg.svd(lmat)
        rank = int(np.sum(sv > sv[0] * 1e-12)) if sv.size else 0
        null = vh[rank:].conj().T

    y0 = values(c0)
    base_level = float(_row_norms(y0).max()) if gsize else 0.0
    kdim = null.shape[1]
    if kdim == 0 or base_level <= tol * 1e-6:
        return MinimaxSolution(c0.reshape(m, nb).copy(), base_level, 0, True)

    # Affine set in value space: y0 + range(M), with M the evaluation of the
    # constraint null space.  Projection uses an orthonormal range basis.
    mmat = np.empty((gsize * m, kdim), dtype=complex)
    for j in range(kdim):
        mmat[:, j] = values(null[:, j]).reshape(-1)
    u, sv, vh = np.linalg.svd(mmat, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * 1e-13)) if sv.size else 0
    u, sv, vh = u[:, :rank], sv[:rank], vh[:rank]
    yflat0 = y0.reshape(-1)

    def proj_affine(y):
        return yflat0 + u @ (u.conj().T @ (y - yflat0))

    def proj_balls(y, t):
        w = y.reshape(gsize, m)
        rn = _row_norms(w)
        scale = np.minimum(1.0, t / np.maximum(rn, 1e-300))
        return (w * scale[:, None]).reshape(-1)

    def level_of(y):
        return float(_row_norms(y.reshape(gsize, m)).max())

    lo, hi = 0.0, base_level
    best_y = yflat0.copy()
    warm = yflat0.copy()
    total_rounds = 0
    bisections = 0
    while hi - lo > tol * max(1.0, hi) and bisections < max_bisections:
        bisections += 1
        t = 0.5 * (lo + hi)
        feas_eps = 1e-9 * max(1.0, t)
        z = warm.copy()
        feasible = False
        candidate = None
        drift_ref = None
        for it in range(max_rounds):
            total_rounds += 1
            x = proj_balls(z, t)
            ya = proj_affine(2.0 * x - z)
            z = z + ya - x
            if it % 10 == 0:
                excess = level_of(ya) - t
                if excess <= feas_eps:
                    feasible = True
                    candidate = ya
                    break
                # Infeasible levels make the Douglas-Rachford iterate drift
                # linearly; a doubling drift with persistent excess is a
                # reliable early certificate of disjoint sets.
                if it == 200:
                    drift_ref = float(np.linalg.norm(z - warm))
                elif it >= 400 and it % 200 == 0 and drift_ref is not None:
                    drift = float(np.linalg.norm(z - warm))
                    if drift > 2.0 * drift_ref and excess > 100.0 * feas_eps:
                        break
        if feasible:
            hi = t + max(level_of(candidate) - t, 0.0)
            best_y = candidate
            warm = candidate
        else:
            lo = t

    coeff_update = vh.conj().T @ ((u.conj().T @ (best_y - yflat0)) / sv)
    c = c0 + null @ coeff_update
    achieved = float(_row_norms(values(c)).max())
    converged = hi - lo <= tol * max(1.0, hi)
    solution = MinimaxSolution(c.reshape(m, nb), achieved, total_rounds, converged)
    if not converged:
        raise NotConverged(
            f"bisection stalled at bracket width {hi - lo:.3e}", best=solution
        )
    return solution
