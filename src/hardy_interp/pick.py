"""Pick-type matrices and feasibility verdicts.

Assembles the matrices [(alpha^2 <v_j, v_i> - w_i conj(w_j)) K(x_i, x_j)]
for tangential interpolation data and decides feasibility by the test of
the algebra: the Szego kernel for H-infinity, and a swept-and-refined
cyclic-kernel family for C + B*H-infinity, which no single kernel decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InconsistentNodes, KernelMismatch
from .numerics import hermitian_eigenvalues, hermitian_min_eig
from .rkhs import (
    BlaschkeProduct,
    CyclicKernel,
    ModelVector,
    SzegoKernel,
    _sphere_rows,
    check_in_disk,
    cyclic_grams,
    tm_basis,
)

__all__ = [
    "FullHinf",
    "CplusB",
    "TangentialProblem",
    "PickMatrix",
    "Verdict",
    "FeasibilityReport",
    "default_kernel",
    "unit_constant_projection",
    "build_pick_matrix",
    "feasible_single",
    "feasible_family",
    "family_minimum",
    "kernel_minimum",
]


@dataclass(frozen=True)
class FullHinf:
    """The full multiplier algebra H-infinity of the disk."""

    def describe(self) -> str:
        return "H-infinity"


@dataclass(frozen=True)
class CplusB:
    """The subalgebra C + B*H-infinity for a finite Blaschke product B."""

    product: BlaschkeProduct

    def describe(self) -> str:
        return f"C+B*H-infinity (B degree {self.product.degree})"


@dataclass
class TangentialProblem:
    """Tangential interpolation data.

    points x_j in the open disk, direction vectors v_j in C^m (rows of
    ``directions``), scalar targets w_j, norm bound alpha > 0, and the
    algebra the solution must live in.  The constraint solved downstream is
    sum_k F_k(x_j) conj(v_{j,k}) = w_j with grid norm at most alpha.
    """

    points: np.ndarray
    directions: np.ndarray
    targets: np.ndarray
    bound: float
    algebra: object

    def __post_init__(self):
        self.points = check_in_disk(self.points, "interpolation node")
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=complex))
        self.targets = np.atleast_1d(np.asarray(self.targets, dtype=complex))
        n = self.points.size
        if self.directions.shape[0] != n or self.targets.size != n:
            raise ValueError("points, directions and targets must have equal length")
        if n < 1 or self.directions.shape[1] < 1:
            raise ValueError("need at least one node and one component")
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("every direction vector must be nonzero")
        if not (0.0 < self.bound < np.sqrt(np.finfo(float).max)):
            raise ValueError("norm bound must be positive, with a finite square")
        if not isinstance(self.algebra, (FullHinf, CplusB)):
            raise ValueError("algebra must be FullHinf or CplusB")

    @property
    def node_count(self) -> int:
        return self.points.size

    @property
    def component_count(self) -> int:
        return self.directions.shape[1]


@dataclass
class PickMatrix:
    """Hermitian Pick matrix together with the kernel that built it."""

    matrix: np.ndarray
    kernel_tag: str


class Verdict(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass
class FeasibilityReport:
    """Feasibility outcome with its numeric evidence.

    worst_min_eig is the smallest eigenvalue seen over all kernels tested;
    worst_parameter is the model vector achieving it (family sweeps only).
    """

    verdict: Verdict
    worst_min_eig: float
    worst_parameter: Optional[ModelVector]
    samples_tested: int


def default_kernel(algebra):
    """The canonical single kernel of an algebra: Szego for H-infinity, the
    cyclic kernel of the normalized projection of 1 for C + B*H-infinity."""
    if isinstance(algebra, FullHinf):
        return SzegoKernel()
    return CyclicKernel(algebra.product, unit_constant_projection(algebra.product))


def unit_constant_projection(product: BlaschkeProduct) -> ModelVector:
    """Normalized model-space projection of the constant function 1.

    The projection is 1 - conj(B(0)) B with norm sqrt(1 - |B(0)|^2), never
    zero for zeros inside the open disk; its coefficients in the orthonormal
    basis are conj(e_k(0)).
    """
    basis = tm_basis(product)
    coeffs = np.conj(basis.eval_matrix(np.array([0.0 + 0.0j]))[0])
    nrm = np.linalg.norm(coeffs)
    return ModelVector(basis, coeffs / nrm)


def _check_duplicate_consistency(problem: TangentialProblem) -> None:
    """Reject duplicate nodes whose (v, w) data cannot be met by one value."""
    pts = problem.points
    n = pts.size
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        group = [j for j in range(n) if abs(pts[j] - pts[i]) <= 1e-14]
        for j in group:
            seen[j] = True
        if len(group) == 1:
            continue
        vmat = np.conj(problem.directions[group])
        w = problem.targets[group]
        sol, *_ = np.linalg.lstsq(vmat, w, rcond=None)
        resid = float(np.linalg.norm(vmat @ sol - w))
        if resid > 1e-8 * max(1.0, float(np.linalg.norm(w))):
            raise InconsistentNodes(
                f"duplicate node {pts[i]} carries contradictory data "
                f"(residual {resid:.3e})"
            )


def _kernel_matches(problem: TangentialProblem, kernel) -> bool:
    if isinstance(problem.algebra, FullHinf):
        return isinstance(kernel, SzegoKernel)
    if isinstance(kernel, CyclicKernel):
        return kernel.product == problem.algebra.product
    return False


def _coefficient_matrix(problem: TangentialProblem) -> np.ndarray:
    v = problem.directions
    gram = np.conj(v) @ v.T  # entry (i, j) = <v_j, v_i>, linear first slot
    w = problem.targets
    c = (problem.bound ** 2) * gram - np.outer(w, np.conj(w))
    return 0.5 * (c + c.conj().T)


def build_pick_matrix(problem: TangentialProblem, kernel) -> PickMatrix:
    """Entrywise product of the data coefficients with the kernel Gramian:

        Q[i, j] = (alpha^2 <v_j, v_i> - w_i conj(w_j)) K(x_i, x_j).

    The kernel must match the problem's algebra (Szego for H-infinity,
    a cyclic kernel of the same Blaschke product for C + B*H-infinity).
    """
    if not _kernel_matches(problem, kernel):
        raise KernelMismatch(
            f"kernel {getattr(kernel, 'tag', type(kernel).__name__)!r} does not "
            f"match algebra {problem.algebra.describe()}"
        )
    _check_duplicate_consistency(problem)
    q = _coefficient_matrix(problem) * kernel.gram(problem.points)
    return PickMatrix(0.5 * (q + q.conj().T), kernel.tag)


def feasible_single(problem: TangentialProblem, tol: float = 1e-8) -> FeasibilityReport:
    """Szego-kernel feasibility for H-infinity: PSD test of one Pick matrix.

    The verdict is exact (Nevanlinna-Pick).  No single kernel decides
    C + B*H-infinity; its data raise KernelMismatch (use feasible_family).
    """
    if not isinstance(problem.algebra, FullHinf):
        raise KernelMismatch("the Szego test applies to H-infinity; "
                             "use feasible_family for C+B*H-infinity")
    return _report(problem, tol, None)


# The refine starts from this many of the worst sweep samples, for at most
# this many rounds.
_REFINE_STARTS = 8
_REFINE_ROUNDS = 200


def _newton_steps(emat: np.ndarray, cmat: np.ndarray, c: np.ndarray,
                  lam: np.ndarray, vecs: np.ndarray, fallback: np.ndarray):
    """One Newton step of lambda_min(Q(c)) on the unit sphere per row of c.

    The step c -> (c + T t) / |c + T t|, T an orthonormal basis of the
    complement of c, is taken in real coordinates r of t.  Second-order
    perturbation of the simple bottom eigenvalue (eigenpairs lam, vecs of
    Q(c)) gives lambda(r) = lambda_0 + g.r + r^T M r + O(r^3) with

        g_j = Re m_0j,   M = Re X - s I + Re sum_{k>0} m_k^* m_k / (lambda_0 - lambda_k),
        m_kj = u_k* (C o (a phi_j* + phi_j a*)) u_0,   X_jl = u_0* (C o phi_j phi_l*) u_0,
        s = u_0* (C o a a*) u_0,   a = E c,   phi_j = E T tau_j,

    tau the real basis (e_1, ..., i e_1, ...) of C^(d-1).  The step solves
    2 M r = -g on the positive eigenvalues of M.  Rows where the bottom
    eigenvalue is multiple, so that M is not finite, take ``fallback``.
    """
    d = c.shape[1]
    u = vecs[:, :, 0]
    a = c @ emat.T
    tangent = np.linalg.eigh(np.eye(d) - c[:, :, None] * np.conj(c)[:, None, :])[1][:, :, 1:]
    phi = emat @ tangent
    phi = np.concatenate([phi, 1j * phi], axis=2)
    w = cmat @ (u * np.conj(a))[:, :, None]
    m = np.conj(np.swapaxes(vecs, 1, 2)) @ (
        (a[:, :, None] * cmat * u[:, None, :]) @ np.conj(phi) + w * phi)
    x = np.swapaxes(np.conj(u)[:, :, None] * phi, 1, 2) @ cmat @ (u[:, :, None] * np.conj(phi))
    s = np.einsum("ki,ij,kj->k", np.conj(u) * a, cmat, u * np.conj(a)).real
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = m[:, 1:, :] / (lam[:, :1] - lam[:, 1:])[:, :, None]
        hess = (x + np.conj(np.swapaxes(m[:, 1:, :], 1, 2)) @ tail).real
        hess -= s[:, None, None] * np.eye(hess.shape[1])
        finite = np.all(np.isfinite(hess), axis=(1, 2))
        hess[~finite] = np.eye(hess.shape[1])
        curv, basis = np.linalg.eigh(0.5 * (hess + np.swapaxes(hess, 1, 2)))
        inv = np.where(curv > 1e-12 * np.abs(curv).max(axis=1, keepdims=True), 0.5 / curv, 0.0)
    r = -(basis * inv[:, None, :]) @ (np.swapaxes(basis, 1, 2) @ m[:, 0, :, None].real)
    step = c + (tangent @ (r[:, : d - 1] + 1j * r[:, d - 1:]))[:, :, 0]
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    return np.where(finite[:, None], step, fallback)


def _refine_minimum(product: BlaschkeProduct, points: np.ndarray,
                    cmat: np.ndarray, starts: np.ndarray):
    """Lower the minimum Pick eigenvalue over unit model vectors c, for
    every start row at once.

    With Q(c) = C o (E c c* E* + G), each round offers every row two
    successors and moves it to the lower one.  The alternating step takes u
    as the bottom eigenvector of Q(c), then c as the bottom eigenvector of
    the d x d form H(u) = (A^T C B)^T, A = diag(conj u) E,
    B = diag(u) conj(E), since u* Q(c) u - u* (C o G) u = c* H(u) c; it
    cannot raise the minimum eigenvalue, so no round does, but it converges
    only linearly, and slowly where the minimum is flat.  The Newton step
    (_newton_steps) converges quadratically near a minimum.  A round that
    fails to lower the minimum by more than the rounding error of the
    eigenvalues (n eps max|Q|) ends the refine.  Returns the lowest
    eigenvalue seen and its unit vector c.
    """
    emat = tm_basis(product).eval_matrix(points)
    rows = starts.shape[0]
    best_eig, best_c = np.inf, None
    c = starts
    for _ in range(_REFINE_ROUNDS):
        q = cmat * cyclic_grams(product, points, c)
        lam, vecs = np.linalg.eigh(q)
        if c.shape[0] > rows:
            keep = np.arange(rows) + rows * (lam[rows:, 0] < lam[:rows, 0])
            c, lam, vecs = c[keep], lam[keep], vecs[keep]
        k = int(np.argmin(lam[:, 0]))
        lowered = best_eig - lam[k, 0]
        if lowered > 0.0:
            best_eig, best_c = float(lam[k, 0]), c[k]
        if not lowered > points.size * np.finfo(float).eps * np.abs(q).max():
            break
        u = vecs[:, :, 0]
        a = np.conj(u)[:, :, None] * emat
        b = u[:, :, None] * np.conj(emat)
        h = np.swapaxes(np.swapaxes(a, 1, 2) @ cmat @ b, 1, 2)
        alternated = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, 1, 2))))[1][:, :, 0]
        c = alternated if c.shape[1] == 1 else np.concatenate(
            [alternated, _newton_steps(emat, cmat, c, lam, vecs, alternated)])
    return best_eig, best_c


def family_minimum(product: BlaschkeProduct, points: np.ndarray, cmat: np.ndarray,
                   sweep: np.ndarray):
    """Lowest eigenvalue of C o K_c over unit model vectors c, and that c.

    C is the Hermitian coefficient matrix of a positivity condition at
    ``points`` (Pick: alpha^2 V V* - w w*; corona: F F* - delta^2) and K_c
    the cyclic kernel of c: one batched sweep over ``sweep``, unit
    coefficient rows of shape (count, d) (as from rkhs._sphere_rows), then
    _refine_minimum from the worst of them.
    """
    eigs = hermitian_eigenvalues(cmat * cyclic_grams(product, points, sweep))[:, 0]
    order = np.argsort(eigs, kind="stable")
    worst_eig, worst_c = float(eigs[order[0]]), sweep[order[0]]
    eig, c = _refine_minimum(product, points, cmat, sweep[order[:_REFINE_STARTS]])
    if eig < worst_eig:
        worst_eig, worst_c = eig, c
    return worst_eig, worst_c


def kernel_minimum(algebra, points: np.ndarray, cmat: np.ndarray, sweep):
    """Smallest eigenvalue of C o K over the kernels that decide ``algebra``
    at ``points`` (C as in family_minimum), and the unit ModelVector of the K
    reaching it.  They are indexed by the algebra's cyclic subspaces: the
    Szego kernel alone for H-infinity (vector None, ``sweep`` unused), and
    for C + B*H-infinity the cyclic kernels of the unit model vectors,
    searched by family_minimum from the rows of ``sweep``."""
    if isinstance(algebra, FullHinf):
        return hermitian_min_eig(cmat * SzegoKernel().gram(points)), None
    eig, c = family_minimum(algebra.product, points, cmat, sweep)
    return eig, ModelVector(tm_basis(algebra.product), c)


def feasible_family(problem: TangentialProblem, samples: int = 512,
                    tol: float = 1e-8, seed: int = 0) -> FeasibilityReport:
    """Kernel-family feasibility test for C + B*H-infinity.

    family_minimum of the Pick coefficients: a batched sweep of ``samples``
    unit model-space vectors, then an exact minimisation of the minimum
    eigenvalue from the worst samples (alternating and Newton steps, see
    _refine_minimum).  Feasible means no violation was found at
    the stated sweep size; Infeasible carries the witness vector.
    """
    if isinstance(problem.algebra, FullHinf):
        raise KernelMismatch("family sweep applies to C+B*H-infinity; "
                             "use feasible_single with the Szego kernel")
    return _report(problem, tol, _sphere_rows(problem.algebra.product, samples, seed))


def _report(problem: TangentialProblem, tol: float, sweep) -> FeasibilityReport:
    """The verdict of kernel_minimum against ``tol``: feasible when the
    minimum is >= -tol; an infeasible one carries the witness vector."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    _check_duplicate_consistency(problem)
    eig, witness = kernel_minimum(problem.algebra, problem.points,
                                  _coefficient_matrix(problem), sweep)
    feasible = eig >= -tol
    return FeasibilityReport(
        verdict=Verdict.FEASIBLE if feasible else Verdict.INFEASIBLE,
        worst_min_eig=eig,
        worst_parameter=None if feasible else witness,
        samples_tested=1 if sweep is None else len(sweep),
    )
