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
    "TruncatedDistanceProblem",
    "distance",
    "distance_primal",
    "distance_dual",
]


@dataclass
class TruncatedDistanceProblem:
    """Distance data: target A (n2 x n1), subspace basis, tensor rank r.

    Every matrix must have a finite squared Frobenius norm (so non-finite
    entries, and entries whose squares overflow, are rejected), the basis
    matrices must be linearly independent (Gram of vectorizations
    nonsingular within 1e-10), and r >= n1, which makes the dual formula
    exact at this truncation.
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
            vecs = np.stack([b.reshape(-1) for b in self.basis])
            gram = vecs @ vecs.conj().T
            lam = float(np.linalg.eigvalsh(gram)[0])
            if lam <= 1e-10 * max(1.0, float(np.abs(gram).max())):
                raise ValueError(
                    f"basis matrices are not independent (Gram min eig {lam:.3e})"
                )

    @property
    def dims(self):
        return self.target.shape


def _combine(problem: TruncatedDistanceProblem, theta: np.ndarray) -> np.ndarray:
    m = problem.target.astype(complex).copy()
    for k, b in enumerate(problem.basis):
        m = m + (theta[2 * k] + 1j * theta[2 * k + 1]) * b
    return m


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


# Smoothing levels of the soft-max continuation; the last one sets both the
# primal's accuracy (error of order mu * log n) and the dual's seed weights.
_MUS = (1e-2, 1e-4, 1e-6, 1e-8)

# Share of the dual seed spread evenly over all right singular vectors, so
# the seed has full Schmidt rank.  A rank-one seed (pure top singular
# vector) can sit where the span of (S_k (x) I) h1 degenerates and phi is
# discontinuous: on 8 of the 100 criterion-6 instances such seeds returned
# duals between 3e-7 and 2e-4 instead of the distance (e.g. n2 = 3, n1 = 2,
# three basis matrices: 2.7e-7 against 0.709).
_SEED_MIX = 1e-3


def _softmax(problem: TruncatedDistanceProblem, theta: np.ndarray, mu: float):
    """Soft-max mu * log sum exp(sigma_i / mu) of the singular values of
    A + sum theta_k S_k, its gradient in theta, the soft-max weights and the
    right singular vectors (rows of vh)."""
    u, sv, vh = np.linalg.svd(_combine(problem, theta))
    weights = np.exp((sv - sv[0]) / mu)
    total = float(weights.sum())
    weights /= total
    grad = np.empty(2 * len(problem.basis))
    for k, b in enumerate(problem.basis):
        inner = np.einsum("ij,ij->j", u[:, :sv.size].conj(), b @ vh[:sv.size].conj().T)
        grad[2 * k] = float(weights @ inner.real)
        grad[2 * k + 1] = float(weights @ -inner.imag)
    return sv[0] + mu * np.log(total), grad, weights, vh


def _minimiser(problem: TruncatedDistanceProblem) -> np.ndarray:
    """Coefficients theta minimizing the operator norm of A + sum theta_k S_k.

    L-BFGS descent on the soft-max of the singular values, started at
    theta = 0 and continued through the smoothing levels in _MUS.  The
    soft-max is convex and differentiable, so one start suffices and the
    nonsmooth ties of the top singular value cause no stalls.
    """
    import scipy.optimize

    theta = np.zeros(2 * len(problem.basis))
    if not problem.basis:
        return theta
    for mu in _MUS:
        theta = scipy.optimize.minimize(
            lambda t: _softmax(problem, t, mu)[:2], theta, jac=True, method="L-BFGS-B",
            options=dict(maxiter=500, ftol=1e-18, gtol=1e-14),
        ).x
    return theta


def _normalised(problem: TruncatedDistanceProblem):
    """The problem with its target scaled by 2^-e, e the binary exponent of
    ||A||, so that ||A|| lies in [1/2, 1), and e; (None, 0) for a zero target.

    _MUS and the L-BFGS tolerances are absolute, so they are only relative
    to ||A|| at this scale.  A power of two scales exactly, also for
    subnormal entries, so the distance scales back exactly by 2^e.
    """
    norm = _opnorm(problem.target)
    if norm == 0.0:
        return None, 0
    e = math.frexp(norm)[1]
    target = np.ldexp(np.ascontiguousarray(problem.target).view(float), -e).view(complex)
    return TruncatedDistanceProblem(target, problem.basis, problem.rank), e


def _primal(problem: TruncatedDistanceProblem, theta: np.ndarray) -> float:
    return min(_opnorm(problem.target), _opnorm(_combine(problem, theta)))


def distance(problem: TruncatedDistanceProblem) -> tuple:
    """(primal, dual): both sides of the distance formula from one minimiser.

    The primal is the exact operator norm at the smoothed-descent minimiser
    theta*, or ||A|| (theta = 0) if that is lower, so it is always an upper
    bound of the true distance and never exceeds ||A||.

    The dual maximizes phi(h1) = || P_perp (A (x) I) h1 || over unit h1,
    where P_perp projects onto the orthocomplement of span{(S_k (x) I) h1};
    the optimal h2 is the normalized residual, so the value returned is phi
    at a concrete h1 and a lower bound of the distance.  Its seed comes from
    theta*: there the soft-max weights w_i on the right singular vectors v_i
    of A + sum theta_k S_k form an optimality density,
    tr(diag(w) U* S_k V) = 0, and its purification
    h1 = sum_i sqrt(w_i) v_i (x) e_i attains the top singular value.  The
    seed is mixed with a little of the uniform density (_SEED_MIX) and
    polished once by quasi-Newton ascent of phi(h)/||h||.

    Both are computed with A scaled into operator norm [1/2, 1) and scaled
    back, so distance(c A, S) is c distance(A, S) exactly when c is a power
    of two.  A zero target gives (0, 0).
    """
    unit, e = _normalised(problem)
    if unit is None:
        return 0.0, 0.0
    theta = _minimiser(unit)
    return math.ldexp(_primal(unit, theta), e), math.ldexp(_dual(unit, theta), e)


def distance_primal(problem: TruncatedDistanceProblem) -> float:
    """The primal of ``distance``, without the dual's polish."""
    unit, e = _normalised(problem)
    return 0.0 if unit is None else math.ldexp(_primal(unit, _minimiser(unit)), e)


def distance_dual(problem: TruncatedDistanceProblem) -> float:
    """The dual of ``distance``."""
    return distance(problem)[1]


def _dual(problem: TruncatedDistanceProblem, theta: np.ndarray) -> float:
    import scipy.optimize

    _, n1 = problem.dims
    r = problem.rank
    s = len(problem.basis)
    stack = np.array(problem.basis)
    dim = n1 * r

    # h is H = h.reshape(n1, r) row by row, so (M (x) I_r) h = vec(M H) and
    # (M (x) I_r)* y = vec(M* Y): no Kronecker matrix, memory linear in r.
    # The residual of (A (x) I) h against the span of (S_k (x) I) h is
    # (M (x) I) h with M = A - sum beta_k S_k, and its gradient is M* Y.
    def phi_grad(h):
        hm = h.reshape(n1, r)
        m = problem.target
        if s:
            w = (stack @ hm).reshape(s, -1).T
            beta, *_ = np.linalg.lstsq(w, (m @ hm).reshape(-1), rcond=None)
            m = m - np.tensordot(beta, stack, 1)
        y = m @ hm
        phi = float(np.linalg.norm(y))
        if phi < 1e-300:
            return 0.0, np.zeros(dim, dtype=complex)
        return phi, (m.conj().T @ y).reshape(-1) / phi

    def neg_quotient(x):
        hh = x[:dim] + 1j * x[dim:]
        nh = float(np.linalg.norm(hh))
        phi, g = phi_grad(hh)
        if nh < 1e-300 or phi == 0.0:
            return 0.0, np.zeros_like(x)
        gq = g / nh - (phi / nh ** 3) * hh
        return -phi / nh, -np.concatenate([gq.real, gq.imag])

    _, _, weights, vh = _softmax(problem, theta, _MUS[-1])
    density = np.zeros(n1)
    density[:weights.size] = weights
    density = (1.0 - _SEED_MIX) * density + _SEED_MIX / n1
    seed = np.zeros((n1, r), dtype=complex)
    seed[:, :n1] = vh.conj().T * np.sqrt(density)
    h1 = seed.reshape(-1)
    res = scipy.optimize.minimize(
        neg_quotient, np.concatenate([h1.real, h1.imag]), jac=True, method="L-BFGS-B",
        options=dict(maxiter=300, ftol=1e-18, gtol=1e-14),
    )
    return max(phi_grad(h1)[0], float(-res.fun))
