"""Disk-analytic primitives.

Finite Blaschke products, the Szego and model-space kernels, the cyclic
subspace kernel family attached to C + B*H-infinity (with Gram matrices
batched over many kernels of the family at once), Takenaka-Malmquist
orthonormal bases, exact outer factors of trigonometric-polynomial
boundary moduli, and a deterministic sweep of unit model-space vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotLogIntegrable, NotNormalized
from .numerics import QuadratureRule

__all__ = [
    "check_in_disk",
    "BlaschkeProduct",
    "ModelSpaceBasis",
    "tm_basis",
    "ModelVector",
    "cyclic_grams",
    "SzegoKernel",
    "ModelSpaceKernel",
    "CyclicKernel",
    "OuterFunction",
    "outer_from_modulus",
    "sample_model_sphere",
]


def check_in_disk(points, name: str = "point") -> np.ndarray:
    """Validate that every value has modulus strictly below 1 (NaN fails)."""
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    if not np.all(np.abs(z) < 1.0):
        worst = float(np.abs(z).max())
        raise ValueError(f"{name} must lie in the open unit disk, got modulus {worst}")
    return z


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: unimodular constant times factors
    (z - a) / (1 - conj(a) z) over a nonempty zero list with multiplicity."""

    zeros: tuple
    constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        if len(zs) == 0:
            raise ValueError("a Blaschke product needs at least one zero")
        if not all(abs(a) < 1.0 for a in zs):
            raise ValueError("Blaschke zeros must lie in the open unit disk")
        c = complex(self.constant)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise ValueError(f"constant must be unimodular, got |c| = {abs(c)}")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "constant", c)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """Evaluate for |z| <= 1 (scalar or array input)."""
        zz = np.asarray(z, dtype=complex)
        out = np.full(zz.shape, self.constant, dtype=complex)
        for a in self.zeros:
            out = out * (zz - a) / (1.0 - np.conj(a) * zz)
        return out if zz.shape else complex(out)


class ModelSpaceBasis:
    """Takenaka-Malmquist orthonormal basis of the model space of a finite
    Blaschke product.

    For the zero sequence a_1..a_d the k-th function is

        e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{l<k} (z - a_l)/(1 - conj(a_l) z)

    which is orthonormal in H^2 and spans H^2 minus B*H^2.
    """

    def __init__(self, product: BlaschkeProduct):
        self.product = product
        self.dimension = product.degree

    def eval_matrix(self, points) -> np.ndarray:
        """Basis values at points, shape (len(points), dimension)."""
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        d = self.dimension
        out = np.empty((z.size, d), dtype=complex)
        prefix = np.ones(z.size, dtype=complex)
        for k, a in enumerate(self.product.zeros):
            out[:, k] = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) * prefix
            prefix = prefix * (z - a) / (1.0 - np.conj(a) * z)
        return out


def tm_basis(product: BlaschkeProduct) -> ModelSpaceBasis:
    """Orthonormal model-space basis for a finite Blaschke product."""
    return ModelSpaceBasis(product)


@dataclass
class ModelVector:
    """Coefficient vector in a ModelSpaceBasis; the kernel parameter.

    Used as a cyclic-kernel parameter only at unit norm (within 1e-10).
    """

    basis: ModelSpaceBasis
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.size != self.basis.dimension:
            raise ValueError(
                f"expected {self.basis.dimension} coefficients, got {c.size}"
            )
        self.coefficients = c

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def require_unit(self, tol: float = 1e-10) -> None:
        if not abs(self.norm - 1.0) <= tol:  # a NaN norm fails too
            raise NotNormalized(f"model vector norm {self.norm} is not 1 within {tol}")

    def evaluate(self, points):
        z = np.asarray(points, dtype=complex)
        vals = self.basis.eval_matrix(z.reshape(-1)) @ self.coefficients
        return vals.reshape(z.shape) if z.shape else complex(vals[0])


class _Kernel:
    """A kernel given once, by the broadcasting formula ``cross(z, w)`` of
    each subclass.

    Calling it validates both arguments and evaluates elementwise (a
    complex number for scalar z); ``gram(points)`` is the Hermitian matrix
    [K(z_i, z_j)].
    """

    def __call__(self, z, w):
        val = self.cross(check_in_disk(z, "z"), check_in_disk(w, "w"))
        return complex(val[0]) if val.size == 1 and np.isscalar(z) else np.squeeze(val)[()]

    def gram(self, points) -> np.ndarray:
        z = check_in_disk(points, "points")
        g = self.cross(z[:, None], z[None, :])
        return 0.5 * (g + g.conj().T)


class SzegoKernel(_Kernel):
    """Szego kernel of H^2: 1 / (1 - z conj(w))."""

    tag = "szego"

    def cross(self, z, w):
        return 1.0 / (1.0 - z * np.conj(w))


class ModelSpaceKernel(_Kernel):
    """Kernel of the model space H^2 minus B*H^2 of a finite Blaschke product:
    (1 - B(z) conj(B(w))) / (1 - z conj(w))."""

    def __init__(self, product: BlaschkeProduct):
        self.product = product
        self.tag = f"model-space(deg {product.degree})"

    def cross(self, z, w):
        return (1.0 - self.product(z) * np.conj(self.product(w))) / (1.0 - z * np.conj(w))


class CyclicKernel(_Kernel):
    """Kernel of the cyclic subspace span{v} + B*H^2 of a unit model vector v
    (the kernel family of C + B*H-infinity; formula in _cyclic_cross)."""

    def __init__(self, product: BlaschkeProduct, vector: ModelVector):
        vector.require_unit()
        if vector.basis.product != product:
            raise ValueError("model vector belongs to a different Blaschke product")
        self.product = product
        self.vector = vector
        self.tag = f"cyclic(deg {product.degree})"

    def cross(self, z, w):
        return _cyclic_cross(self.product, z, w, self.vector.evaluate(z),
                             self.vector.evaluate(w))


def _cyclic_cross(product: BlaschkeProduct, z, w, vz, vw):
    """v(z) conj(v(w)) + B(z) conj(B(w)) / (1 - z conj(w)), broadcasting,
    from the model-vector values vz = v(z) and vw = v(w)."""
    return vz * np.conj(vw) + product(z) * np.conj(product(w)) / (1.0 - z * np.conj(w))


def cyclic_grams(product: BlaschkeProduct, points, coeffs) -> np.ndarray:
    """Gram matrices of the cyclic kernels of K model vectors at once.

    Row k of ``coeffs`` (shape (K, d), or (d,) for K = 1) holds the basis
    coefficients of v_k; the result has shape (K, n, n), G[k] the Gram of
    the cyclic kernel of v_k (CyclicKernel), each exactly Hermitian.  The
    caller is responsible for unit rows.
    """
    z = check_in_disk(points, "points")
    values = np.atleast_2d(coeffs) @ tm_basis(product).eval_matrix(z).T  # (K, n)
    g = _cyclic_cross(product, z[:, None], z[None, :], values[:, :, None], values[:, None, :])
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


# A Fourier coefficient below this fraction of the largest counts as zero
# when deciding that a boundary modulus is a trigonometric polynomial.
_POLYNOMIAL_TOL = 1e-13
# Factoring degree D means the eigenvalues of a 2D-by-2D companion matrix;
# outer_from_modulus refuses a modulus of higher degree.
_MAX_FACTOR_DEGREE = 256
# Roots of the modulus within this distance of the circle, and of each other,
# are taken as one multiple boundary zero.
_CLUSTER_TOL = 1e-2
# The factor must reproduce the samples to this fraction of their maximum.
_FACTOR_RESIDUAL_TOL = 1e-10


def _merge_boundary_clusters(roots: np.ndarray, degree: int):
    """The zeros of the outer factor, with boundary zeros merged.

    A boundary zero of multiplicity m is a root of multiplicity 2m of the
    modulus; rounding splits it into a cluster of 2m roots near the circle.
    Each cluster becomes m copies of its mean projected onto the circle.
    Returns None when a cluster has odd size.
    """
    logmod = np.log(np.abs(roots))
    zeros = [roots[logmod > _CLUSTER_TOL]]
    near = roots[np.abs(logmod) <= _CLUSTER_TOL]
    if near.size:
        near = near[np.argsort(np.angle(near))]
        gaps = np.diff(np.angle(near), append=np.angle(near[0]) + 2.0 * np.pi)
        # start after the widest gap so no cluster straddles the cut at -pi
        shift = -(int(np.argmax(gaps)) + 1)
        near, gaps = np.roll(near, shift), np.roll(gaps, shift)
        for cluster in np.split(near, np.flatnonzero(gaps[:-1] > _CLUSTER_TOL) + 1):
            if cluster.size % 2:
                return None
            centre = cluster.mean()
            zeros.append(np.full(cluster.size // 2, centre / abs(centre)))
    zeros = np.concatenate(zeros)
    return zeros if zeros.size == degree else None


def _fejer_riesz(p: np.ndarray, nodes: np.ndarray):
    """Exact outer factor of a nonnegative trigonometric polynomial.

    p holds finite samples at the N uniform boundary points `nodes`.  When its
    Fourier coefficients vanish above some degree D < N/2, p(t) = |g|^2
    with g(z) = scale * prod(1 - z / r) over the D roots r of z^D p(z) with
    |r| >= 1 (Fejer-Riesz).  Returns (scale, zeros), scale = g(0) > 0, or
    None when p is not such a polynomial or no factor reproduces it.
    """
    n = p.size
    coeffs = np.fft.fft(p) / n
    mags = np.abs(coeffs[:n // 2 + 1])
    if mags.max() == 0.0:
        return None
    degree = int(np.flatnonzero(mags > _POLYNOMIAL_TOL * mags.max())[-1])
    if degree >= n // 2 or degree > _MAX_FACTOR_DEGREE:
        return None
    c = coeffs[:degree + 1]
    roots = np.roots(np.concatenate([c[::-1], np.conj(c[1:])]))
    plain = roots[np.argsort(-np.abs(roots))[:degree]]
    for zeros in (_merge_boundary_clusters(roots, degree), plain):
        if zeros is None:
            continue
        q = np.prod(np.abs(1.0 - nodes[:, None] / zeros[None, :]) ** 2, axis=1)
        scale = float(np.sqrt(np.dot(p, q) / np.dot(q, q)))
        if np.abs(scale ** 2 * q - p).max() <= _FACTOR_RESIDUAL_TOL * p.max():
            return scale, zeros
    return None


@dataclass(eq=False)
class OuterFunction:
    """Outer function g(z) = scale * prod(1 - z / r) over ``zeros`` r, all
    on or outside the unit circle, with scale = g(0) > 0.

    Built by outer_from_modulus as the exact Fejer-Riesz factor of a
    nonnegative trigonometric polynomial sampled at the nodes of ``rule``.
    """

    rule: QuadratureRule
    scale: float
    zeros: np.ndarray

    def _values(self, flat: np.ndarray) -> np.ndarray:
        return self.scale * np.prod(1.0 - flat[:, None] / self.zeros[None, :], axis=1)

    def __call__(self, z):
        zz = check_in_disk(z, "z")
        out = self._values(zz.reshape(-1)).reshape(zz.shape)
        return out if np.asarray(z).shape else complex(out[0])

    def boundary_values(self) -> np.ndarray:
        """g at the rule's nodes."""
        return self._values(self.rule.boundary_points)


def outer_from_modulus(samples, rule: QuadratureRule) -> OuterFunction:
    """Outer function g with |g|^2 = p from boundary samples p(t_k) >= 0.

    p must be a trigonometric polynomial of degree D < N/2 (N the rule's
    node count) and D <= 256; it is factored exactly (_fejer_riesz) and may
    vanish at nodes.  Raises NotLogIntegrable when a sample is negative or
    not finite, or when p is not such a polynomial.
    """
    p = np.asarray(samples, dtype=float)
    if p.shape != rule.nodes.shape:
        raise ValueError(f"expected {rule.node_count} samples, got {p.size}")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise NotLogIntegrable("boundary modulus samples must be finite and nonnegative")
    factor = _fejer_riesz(p, rule.boundary_points)
    if factor is None:
        limit = min(rule.node_count // 2 - 1, _MAX_FACTOR_DEGREE)
        raise NotLogIntegrable(
            "boundary modulus is not a nonzero trigonometric polynomial of degree "
            f"at most {limit} with an exact outer factor"
        )
    return OuterFunction(rule, *factor)


def sample_model_sphere(product: BlaschkeProduct, count: int, seed: int):
    """Deterministic pseudo-random unit vectors in the model space.

    Rows of independent complex Gaussians from ``numpy.random.default_rng(seed)``,
    normalized, are uniformly distributed on the unit sphere parameterizing
    the cyclic kernel family; the same seed gives the same vectors.
    """
    basis = tm_basis(product)
    return [ModelVector(basis, row) for row in _sphere_rows(product, count, seed)]


def _sphere_rows(product: BlaschkeProduct, count: int, seed: int) -> np.ndarray:
    """The coefficient rows of sample_model_sphere, as one (count, d) array."""
    if count < 1:
        raise ValueError("count must be at least 1")
    d = tm_basis(product).dimension
    rng = np.random.default_rng(int(seed))
    rows = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows
