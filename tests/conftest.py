"""Shared independent oracles for the test suite.

Everything here is deliberately implemented without the library's own
eigenanalysis or recursion code paths, so tests compare two routes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

# Property tests draw the same examples on every run, so a run's result does
# not depend on the run; 100 is hypothesis's own default example count, which
# the tests that set no count keep, and no example has a time limit.
settings.register_profile("deterministic", derandomize=True, max_examples=100,
                          deadline=None)
settings.load_profile("deterministic")


def charpoly_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - M), descending, by Faddeev-LeVerrier."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ mk) / k
    return coeffs


def charpoly_min_eig_oracle(matrix: np.ndarray, tol: float = 1e-12) -> float:
    """Smallest eigenvalue of a Hermitian matrix via characteristic-polynomial
    bisection from the Gershgorin lower bound (simple spectra assumed)."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    coeffs = charpoly_coefficients(a).real  # Hermitian -> real char poly

    def p(lam):
        return np.polyval(coeffs, lam)

    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    lo = float(np.min(np.diag(a).real - radii)) - 1.0
    hi = float(np.max(np.diag(a).real + radii)) + 1.0
    # scan for the first sign change from below
    sign_lo = np.sign(p(lo))
    grid = np.linspace(lo, hi, 4001)
    upper = None
    for x in grid[1:]:
        if np.sign(p(x)) != sign_lo and np.sign(p(x)) != 0:
            upper = x
            break
        lo = x
    if upper is None:
        raise AssertionError("oracle failed to bracket the smallest eigenvalue")
    hi = upper
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sign(p(mid)) == sign_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def pseudo_hyperbolic(a: complex, b: complex) -> float:
    """Pseudo-hyperbolic distance |(a - b) / (1 - conj(b) a)|."""
    return abs((a - b) / (1.0 - np.conj(b) * a))


def two_node_feasible_oracle(x1, x2, w1, w2) -> bool:
    """Classical two-node scalar criterion at bound 1, |w_j| < 1:
    feasible iff rho(w1, w2) <= rho(x1, x2)."""
    return pseudo_hyperbolic(w1, w2) <= pseudo_hyperbolic(x1, x2)


def two_node_optimal_alpha(x1, x2, w1, w2, iters: int = 300) -> float:
    """Minimal alpha with a solution: the smallest a >= max|w_j| at which
    rho(w1/a, w2/a) <= rho(x1, x2), located by bisection."""
    rho_x = pseudo_hyperbolic(x1, x2)

    def rho_w(a):
        return abs(w1 - w2) / abs(a - np.conj(w2) * w1 / a)

    lo = max(abs(w1), abs(w2))
    hi = max(1.0, 4.0 * lo + 1.0)
    while rho_w(hi) > rho_x:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if rho_w(mid) <= rho_x:
            hi = mid
        else:
            lo = mid
    return hi


def schur_reduction_feasible(points, values, bound: float = 1.0,
                             slack: float = 1e-12) -> bool:
    """Feasibility by the Schur reduction itself: the problem is solvable at
    the bound iff every reduced datum stays inside the closed unit disk."""
    pts = np.asarray(points, dtype=complex)
    u = np.asarray(values, dtype=complex) / bound
    while u.size > 1:
        if abs(u[0]) > 1.0 + slack:
            return False
        if abs(u[0]) >= 1.0 - slack:
            return bool(np.all(np.abs(u - u[0]) <= 1e-10))
        mob = (u[1:] - u[0]) / (1.0 - np.conj(u[0]) * u[1:])
        bl = (pts[1:] - pts[0]) / (1.0 - np.conj(pts[0]) * pts[1:])
        u = mob / bl
        pts = pts[1:]
    return bool(abs(u[0]) <= 1.0 + slack)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_disk_points(rng: np.random.Generator, n: int, radius: float = 0.85,
                       min_sep: float = 0.05) -> np.ndarray:
    """n distinct points with moduli <= radius and pairwise separation."""
    pts = []
    while len(pts) < n:
        z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - p) > min_sep for p in pts):
            pts.append(z)
    return np.array(pts)
