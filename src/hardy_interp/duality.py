"""Finite-dimensional laboratory for the operator-distance formula.

Computes the distance from a matrix A to a subspace S of matrices two ways:
directly, by minimizing the operator norm of A + S over the subspace, and
dually, by maximizing |<(A (x) I) h1, h2>| over unit vectors with h2
orthogonal to (S (x) I) h1.  In finite dimensions the two agree; the tensor
factor of rank r = n1 already saturates the dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistanceSolution",
    "TruncatedDistanceProblem",
    "distance_primal",
    "distance_dual",
    "solve_distance",
]


@dataclass
class TruncatedDistanceProblem:
    """Distance data: target A (n2 x n1), subspace basis, tensor rank r.

    Every matrix must have a finite squared Frobenius norm (so non-finite
    entries, and entries whose squares overflow, are rejected), the basis
    matrices must be linearly independent (Gram of the vectorizations, each
    scaled to unit length, nonsingular within 1e-10, so the test does not
    depend on the scale of any basis matrix), and r >= n1, which makes the
    dual formula exact at this truncation.
    """

    target: np.ndarray
    basis: tuple
    rank: int = 0

    def __post_init__(self):
        self.target = np.atleast_2d(np.asarray(self.target, dtype=complex))
        self.basis = tuple(np.asarray(b, dtype=complex) for b in self.basis)
        n2, n1 = self.target.shape
        for k, m in enumerate((self.target,) + self.basis):
            if m.shape != (n2, n1):
                raise ValueError("basis matrices must match the target shape")
            if not np.isfinite(np.vdot(m, m).real):
                name = f"basis matrix {k}" if k else "target"
                raise ValueError(f"{name} overflows: its squared Frobenius norm is not finite")
        if self.rank == 0:
            self.rank = n1
        if self.rank < n1:
            raise ValueError(f"tensor rank {self.rank} below n1 = {n1}")
        if self.basis:
            # Scale each vectorization by its largest entry (so tiny entries
            # do not underflow when squared), then to unit length; a zero
            # matrix stays zero and makes the Gram singular.
            vecs = np.stack([b.reshape(-1) for b in self.basis])
            vecs /= np.maximum(np.abs(vecs).max(axis=1, keepdims=True), np.finfo(float).tiny)
            vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1.0)
            lam = float(np.linalg.eigvalsh(vecs @ vecs.conj().T)[0])
            if lam <= 1e-10:
                raise ValueError(
                    f"basis matrices are not independent (normalised Gram min eig {lam:.3e})"
                )


@dataclass
class DistanceSolution:
    """Both sides of the distance formula and the Newton steps they took.

    ``primal`` is an upper bound of the distance (an exact operator norm),
    ``dual`` a lower bound (the cyclic-vector formula at a concrete h1, or a
    weak-duality bound), and ``rounds`` counts the barrier's Newton steps.
    """

    primal: float
    dual: float
    rounds: int


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _normalised(problem: TruncatedDistanceProblem):
    """The problem with its target scaled by 2^-e, e the binary exponent of
    ||A||, so that ||A|| lies in [1/2, 1), and e; (None, 0) for a zero target.

    The barrier's stopping gap is set at this scale, so it scales with ||A||
    and, below ||A|| / 2, with the distance.  A power of two scales exactly,
    also for subnormal entries, so the distance scales back exactly by 2^e.
    """
    norm = _opnorm(problem.target)
    if norm == 0.0:
        return None, 0
    e = math.frexp(norm)[1]
    target = np.ldexp(np.ascontiguousarray(problem.target).view(float), -e).view(complex)
    return TruncatedDistanceProblem(target, problem.basis, problem.rank), e


# The barrier's settings, at the normalised scale ||A|| in [1/2, 1): tau grows
# by _TAU_GROWTH once the squared Newton decrement is below _CENTRED; the
# solve stops once upper - lower <= _GAP * min(1, 2 upper), relative to the
# distance itself below ||A|| / 2, once upper <= _GAP (which a target in the
# subspace needs), or after _MAX_STEPS Newton steps.
_TAU_GROWTH = 30.0
_CENTRED = 0.5
_GAP = 1e-10
_MAX_STEPS = 200

# A multiplier whose trace norm after projection onto tr(W S_k) = 0 is below
# this share of its norm before is rounding residue (A in span S), not a bound:
# for A = S_1 = 0.75 diag(1, -1) it gave a lower bound of 0.75 against an
# upper bound of 0.11.
_KEPT = 1e-8


def _barrier(problem: TruncatedDistanceProblem):
    """Minimize t subject to X(theta, t) = [[t I, M], [M*, t I]] > 0, with
    M = A + sum theta_k S_k, by a primal log-barrier Newton method (Boyd and
    Vandenberghe, Convex Optimization, ch. 11) on the 2s + 1 real variables
    x = (Re theta_1, Im theta_1, ..., t); X = X0 + sum_j x_j B_j is affine.

    Returns (upper, lower, w, steps).  upper is the exact operator norm of M
    at the best iterate; theta = 0 is the first, so upper <= ||A||.  lower is
    a weak-duality bound: for every W (n1 x n2) with tr(W S_k) = 0 and every
    theta, Re tr(W A) = Re tr(W M) <= ||W||_1 ||M||.  Its W is the off-diagonal
    block of the barrier's multiplier X^-1, linearised along the Newton step,
    projected exactly onto tr(W S_k) = 0; w is the W of the best bound, or
    None.  A LAPACK failure (such as a Cholesky that finds X not positive
    definite) or the step cap ends the solve with the best bracket so far,
    which holds at every iterate.
    """
    a = problem.target
    n2, n1 = a.shape
    size = n1 + n2
    s = len(problem.basis)
    # Newton steps do not depend on the scale of theta_k, so each S_k is
    # scaled to largest entry 1: tiny or huge bases give no tiny or huge
    # Hessian entries.
    basis = [b / np.abs(b).max() for b in problem.basis]
    x0 = np.zeros((size, size), dtype=complex)
    x0[:n2, n2:], x0[n2:, :n2] = a, a.conj().T
    blocks = np.zeros((2 * s + 1, size, size), dtype=complex)
    for k, b in enumerate(basis):
        for j, c in ((2 * k, 1.0), (2 * k + 1, 1j)):
            blocks[j, :n2, n2:], blocks[j, n2:, :n2] = c * b, np.conj(c) * b.conj().T
    blocks[-1] = np.eye(size)
    flat = blocks.reshape(2 * s + 1, -1)
    # tr(W S_k) = <vec(S_k*), vec(W)>: an orthonormal basis of those vectors.
    span = np.linalg.qr(np.array([b.conj().T.reshape(-1) for b in basis])
                        .reshape(s, n1 * n2).T)[0]

    top = _opnorm(a)
    x = np.zeros(2 * s + 1)
    x[-1] = 2.0 * top
    upper, lower, best_w, tau, steps = top, 0.0, None, 0.0, 0
    try:
        while True:
            xm = x0 + (x @ flat).reshape(size, size)
            linv = np.linalg.inv(np.linalg.cholesky(xm))
            upper = min(upper, _opnorm(xm[:n2, n2:]))
            y = linv.conj().T @ linv
            yb = y @ blocks
            # Gradient and Hessian of -log det X: -tr(Y B_j), tr(Y B_j Y B_l).
            grad = -np.einsum("jaa->j", yb).real
            hess = np.einsum("jab,lba->jl", yb, yb).real
            barrier_t, tau = grad[-1], tau or -grad[-1]
            for growth in (1.0, _TAU_GROWTH):
                tau *= growth
                grad[-1] = barrier_t + tau
                dx = -np.linalg.solve(hess, grad)
                decrement = -float(grad @ dx)
                if decrement >= _CENTRED:
                    break
            dxm = (dx @ flat).reshape(size, size)
            # Multiplier Y - Y dX Y along the step; W is minus its (2, 1) block.
            w = y[n2:] @ dxm @ y[:, :n2] - y[n2:, :n2]
            before = np.linalg.norm(w)
            w -= (span @ (span.conj().T @ w.reshape(-1))).reshape(n1, n2)
            trace_norm = float(np.linalg.svd(w, compute_uv=False).sum())
            if trace_norm > _KEPT * before:
                bound = float(np.sum(w * a.T).real) / trace_norm
                if bound > lower:
                    lower, best_w = bound, w
            if upper - lower <= _GAP * min(1.0, 2.0 * upper) or upper <= _GAP \
                    or steps == _MAX_STEPS:
                break
            # Exact line search: with X = L L*, -log det (X + a dX) changes by
            # -sum log(1 + a lam), lam the eigenvalues of L^-1 dX L^-*.
            lam = np.linalg.eigvalsh(linv @ dxm @ linv.conj().T)
            x += _line_minimum(tau * dx[-1], lam) * dx
            steps += 1
    except np.linalg.LinAlgError:
        pass
    return upper, lower, best_w, steps


def _line_minimum(slope: float, lam: np.ndarray) -> float:
    """The minimizer of slope a - sum log(1 + a lam) over a > 0 with every
    1 + a lam > 0, by Newton's method safeguarded by bisection; the slope at
    a = 0 is negative along a descent direction."""
    lo, hi = 0.0, -1.0 / lam[0] if lam[0] < 0.0 else math.inf
    step = min(1.0, 0.5 * hi)
    for _ in range(60):
        q = lam / (1.0 + step * lam)
        slope_here = slope - float(q.sum())
        if slope_here < 0.0:
            lo = step
        else:
            hi = step
        curvature = float(q @ q)
        nxt = step - slope_here / curvature if curvature > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * step
        if abs(nxt - step) <= 1e-6 * step:
            return nxt
        step = nxt
    return step


def _phi(problem: TruncatedDistanceProblem, h: np.ndarray) -> float:
    """phi(h1) = || P_perp (A (x) I) h1 ||, P_perp the projection onto the
    orthocomplement of span{(S_k (x) I) h1}, for h1 = vec(H) with H = h
    (n1 x k, k <= r columns; padding to r columns changes nothing).  So
    (M (x) I) h1 = vec(M H), and no Kronecker matrix is formed."""
    y = (problem.target @ h).reshape(-1)
    if problem.basis:
        cols = (np.array(problem.basis) @ h).reshape(len(problem.basis), -1).T
        beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
        y = y - cols @ beta
    return float(np.linalg.norm(y))


def solve_distance(problem: TruncatedDistanceProblem) -> DistanceSolution:
    """Both sides of the distance formula from one barrier solve.

    The primal is the exact operator norm at the barrier's best iterate, so
    it is always an upper bound of the true distance and never exceeds
    ||A||.  The dual is read off the barrier's multiplier W (n1 x n2, with
    tr(W S_k) = 0): its purification h1 = sum_i sqrt(sigma_i / ||W||_1)
    p_i (x) e_i, from W = sum_i sigma_i p_i q_i*, is a unit vector with
    <(A (x) I) h1, h2> = tr(W A) / ||W||_1 for the unit
    h2 = sum_i sqrt(sigma_i / ||W||_1) q_i (x) e_i, orthogonal to
    (S (x) I) h1.  The dual printed is phi(h1) at that concrete h1 (phi is
    the supremum over such h2), combined by max with the weak-duality bound
    Re tr(W A) / ||W||_1; it is 0 if no multiplier survived projection.

    Both are computed with A scaled into operator norm [1/2, 1) and scaled
    back, so the distance of c A is c times that of A exactly when c is a
    power of two.  A zero target gives (0, 0) in no steps.
    """
    unit, e = _normalised(problem)
    if unit is None:
        return DistanceSolution(0.0, 0.0, 0)
    upper, lower, w, steps = _barrier(unit)
    if w is not None:
        p, sigma, _ = np.linalg.svd(w, full_matrices=False)
        lower = max(lower, _phi(unit, p * np.sqrt(sigma / sigma.sum())))
    return DistanceSolution(math.ldexp(upper, e), math.ldexp(lower, e), steps)


def distance_primal(problem: TruncatedDistanceProblem) -> float:
    """The primal (upper bound) of ``solve_distance``."""
    return solve_distance(problem).primal


def distance_dual(problem: TruncatedDistanceProblem) -> float:
    """The dual (lower bound) of ``solve_distance``."""
    return solve_distance(problem).dual
