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

    @property
    def boundary_points(self) -> np.ndarray:
        return np.exp(1j * self.nodes)


def uniform_rule(node_count: int) -> QuadratureRule:
    """Build the uniform circle rule with a power-of-two node count."""
    n = int(node_count)
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"node_count must be a positive power of two, got {node_count}")
    return QuadratureRule(n, 2.0 * np.pi * np.arange(n) / n)


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

    coefficients has one row per component; achieved_level is the exact
    maximum over the whole grid of the evaluated vector norm at those
    coefficients, an upper bound on the grid optimum; lower_bound is a lower
    bound on it by weak duality (the solve runs on the outer circle plus any
    grid points above it); iterations counts Newton steps over all passes.
    """

    coefficients: np.ndarray
    achieved_level: float
    iterations: int
    converged: bool
    lower_bound: float


def _row_norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=1))


# minimax_affine's barrier: tau grows by _TAU_GROWTH once the Newton decrement
# is below _CENTRED, and no step shrinks any t^2 - |v_g|^2 below _KEEP of it.
_TAU_GROWTH = 10.0
_CENTRED = 0.5
_KEEP = 0.1


def minimax_affine(
    basis_eval,
    constraints,
    grid: DiskGrid,
    tol: float = 1e-6,
    max_rounds: int = 500,
) -> MinimaxSolution:
    """Minimize the grid maximum of a vector norm subject to Lc = b.

    Parameters
    ----------
    basis_eval : array
        Evaluation matrix of shape (grid size, basis size), one for all m
        components: component k at grid point g is ``basis_eval[g, :] @ c_k``.
    constraints : (L, b) or None
        Affine system on the concatenated coefficient vector (m component
        blocks in order, m = L's width over the basis size, 1 without
        constraints).  Consistency is checked by least squares.
    grid : DiskGrid
        The sampling grid the basis was evaluated on; the solve starts from
        its points of largest modulus.
    tol : float
        Stop once upper - lower <= tol * max(1, upper).
    max_rounds : int
        Newton steps allowed, summed over all passes.

    Notes
    -----
    For a basis analytic on the closed disk the norm is subharmonic, so the
    outer circle of the grid bounds its inner radii (maximum modulus).  The
    solve (_barrier) runs on the grid points of largest modulus; points
    whose norm then exceeds the solved rows' level join them and it runs
    again.  achieved_level is the exact maximum over the whole grid, and a
    subset's lower bound is a lower bound for the whole grid.

    Raises InfeasibleConstraints for inconsistent systems and NotConverged
    (carrying the best solution) if the gap does not reach tol within
    max_rounds Newton steps, or if no grid point exceeds the solved rows'
    level while the gap is still open.
    """
    mat = np.asarray(basis_eval, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != len(grid) or mat.shape[1] < 1:
        raise ValueError(f"basis evaluation must be ({len(grid)}, basis size), got {mat.shape}")
    nb = mat.shape[1]
    lmat, bvec = constraints if constraints is not None else (np.zeros((0, nb)), [])
    lmat = np.atleast_2d(np.asarray(lmat, dtype=complex))
    bvec = np.atleast_1d(np.asarray(bvec, dtype=complex))
    m, extra = divmod(lmat.shape[1], nb)
    if m < 1 or extra:
        raise ValueError(f"constraint matrix width {lmat.shape[1]} is not a multiple of {nb}")
    dim = m * nb

    def values(c):  # (dim, ...) coefficients to (grid size, m, ...) values
        return np.stack([mat @ c[k * nb:(k + 1) * nb] for k in range(m)], axis=1)

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

    y0, span = values(c0), values(null)
    modulus = np.abs(grid.points)
    rows = modulus >= modulus.max(initial=0.0) * (1.0 - 1e-12)
    steps, lower = 0, 0.0
    while True:
        x, pass_lower, pass_steps = _barrier(y0[rows], span[rows], tol, max_rounds - steps)
        steps, lower = steps + pass_steps, max(lower, pass_lower)
        coeffs = c0 + null @ x
        norms = _row_norms(values(coeffs))
        achieved = float(norms.max(initial=0.0))
        converged = achieved - lower <= tol * max(1.0, achieved)
        added = ~rows & (norms > norms[rows].max(initial=0.0))
        if converged or steps >= max_rounds or not added.any():
            break
        rows |= added

    solution = MinimaxSolution(coeffs.reshape(m, nb), achieved, steps, converged, lower)
    if not converged:
        raise NotConverged(f"gap {achieved - lower:.3e} after {steps} steps", best=solution)
    return solution


def _barrier(y0: np.ndarray, span: np.ndarray, tol: float, max_rounds: int):
    """Minimize max_g |y0_g + span_g x| over x, on the selected grid rows.

    y0 (rows, m) holds the values of a solution of Lc = b and span (rows, m,
    k) those of a basis of the constraint null space.  Values v = y0 + U s,
    U orthonormal over the range of span, meet Lc = b to rounding for every
    s.  "Minimize t with |v_g| <= t at every row g" is solved by a primal
    log-barrier Newton method (Boyd and Vandenberghe, Convex Optimization,
    ch. 11).  Upper bound: the maximum at the best iterate.  Lower bound
    (weak duality): with w from the barrier projected onto range(U)-perp,
    Re <w, y0> = Re <w, v> <= max_g |v_g| sum_g |w_g| for every s.  Returns
    the best iterate's x, the lower bound and the Newton steps taken.
    """
    gsize, m = y0.shape
    base_level = float(_row_norms(y0).max(initial=0.0))
    u, sv, vh = np.linalg.svd(span.reshape(gsize * m, span.shape[2]), full_matrices=False)
    r = int(np.sum(sv > sv[0] * 1e-13)) if sv.size else 0
    if r == 0 or base_level <= tol * 1e-6:
        return np.zeros(span.shape[2], dtype=complex), base_level if r == 0 else 0.0, 0
    u, sv, vh = u[:, :r], sv[:r], vh[:r]

    # Barrier phi = tau t - sum_g log f_g, f_g = t^2 - |v_g|^2, v = y0 + U s,
    # from s = 0 and t above the start level; tau first zeroes d phi / dt.
    s, t, v, tau, uw = np.zeros(r, dtype=complex), 1.5 * base_level, y0, 0.0, np.empty_like(u)
    best_s, upper, lower, steps = s, base_level, 0.0, 0
    while True:
        vn = _row_norms(v)
        f, inv = (t - vn) * (t + vn), 1.0 / ((t - vn) * (t + vn))
        if vn.max() < upper:
            best_s, upper = s, float(vn.max())
        # Gradient and Hessian of -sum log f_g in x = (Re s_1, Im s_1, ...,
        # t), scaled by d: rows of uw are U_g* / f_g, then q_g = U_g* v_g / f_g.
        np.conjugate(u, out=uw)
        uw *= np.repeat(inv, m)[:, None]
        amat = 2.0 * (uw.T @ u)
        uw *= v.reshape(-1, 1)
        q = uw.reshape(gsize, m, r)
        for k in range(1, m):
            q[:, 0] += q[:, k]
        pq, e = q[:, 0].view(float), -t * inv
        grad, ep = 2.0 * np.append(pq.sum(axis=0), e.sum()), e @ pq
        hess = 4.0 * np.block([[pq.T @ pq, ep[:, None]], [ep, e @ e - 0.5 * inv.sum()]])
        hess[:-1, :-1] += np.kron(amat.real, np.eye(2)) + np.kron(amat.imag, [[0, -1], [1, 0]])
        d = 1.0 / np.sqrt(np.diag(hess))
        hess *= np.outer(d, d)
        barrier_t, tau = grad[-1], tau or -grad[-1]
        for growth in (1.0, _TAU_GROWTH):
            tau *= growth
            grad[-1] = barrier_t + tau
            dx = -np.linalg.solve(hess, grad * d) * d
            decrement = -float(grad @ dx)
            if decrement >= _CENTRED:
                break
        ds, dt = dx[:-1].view(complex), dx[-1]
        du = (u @ ds).reshape(gsize, m)
        if (level := float(_row_norms(v + du).max())) < upper:
            best_s, upper = s + ds, level
        # Dual estimate: w_g = v_g / f_g linearised along the Newton step, so
        # that U* w vanishes up to the solve's rounding; projected exactly.
        b = t * dt - np.sum((v.conj() * du).real, axis=1)
        w = (v + du - v * (2.0 * b * inv)[:, None]) * inv[:, None]
        w -= (u @ (w.reshape(-1).conj() @ u).conj()).reshape(gsize, m)
        lower = max(lower, float(np.vdot(w, y0).real) / max(_row_norms(w).sum(), 1e-300))
        if upper - lower <= tol * max(1.0, upper) or steps == max_rounds:
            break
        # Backtracking (Armijo 1/4) along the step, where f_g becomes
        # f_g + a (2 b_g + a c_g), from the longest step keeping f_g >= _KEEP f_g.
        c = dt * dt - np.sum(np.abs(du) ** 2, axis=1)
        root = np.sqrt(np.maximum(b * b - (1.0 - _KEEP) * f * c, 0.0)) - b
        alpha = float(np.min((1.0 - _KEEP) * f[root > 0.0] / root[root > 0.0], initial=1.0))
        while alpha > 1e-12 and -0.25 * alpha * decrement < tau * alpha * dt \
                - np.sum(np.log1p(alpha * (2.0 * b + alpha * c) * inv)):
            alpha *= 0.5
        if not alpha > 1e-12:
            break
        s, t, v, steps = s + alpha * ds, t + alpha * dt, v + alpha * du, steps + 1

    return vh.conj().T @ (best_s / sv), lower, steps
