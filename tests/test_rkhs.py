"""Tests for the disk-analytic primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_disk_points
from hardy_interp import (
    BlaschkeProduct,
    CyclicKernel,
    ModelSpaceKernel,
    ModelVector,
    NotLogIntegrable,
    NotNormalized,
    SzegoKernel,
    cyclic_grams,
    is_psd,
    outer_from_modulus,
    sample_model_sphere,
    tm_basis,
    uniform_rule,
)


class TestBlaschke:
    def test_single_zero_at_origin(self):
        b = BlaschkeProduct((0.0,))
        assert b(0.3) == pytest.approx(0.3)

    def test_single_zero_half(self):
        b = BlaschkeProduct((0.5,), constant=1.0)
        assert b(0.0) == pytest.approx(-0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2 * np.pi),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_unimodular_on_circle(self, angle, seed):
        rng = np.random.default_rng(seed)
        zeros = tuple(0.8 * (rng.normal(size=2) + 1j * rng.normal(size=2)) / 4)
        b = BlaschkeProduct(zeros, constant=np.exp(0.7j))
        assert abs(b(np.exp(1j * angle))) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(())
        with pytest.raises(ValueError):
            BlaschkeProduct((1.0,))
        with pytest.raises(ValueError):
            BlaschkeProduct((0.5,), constant=2.0)
        with pytest.raises(ValueError):
            BlaschkeProduct((complex(np.nan, 0.0),))
        with pytest.raises(ValueError):
            BlaschkeProduct((0.5,), constant=complex(np.nan, 0.0))


class TestKernels:
    def test_szego_at_origin(self):
        for z in (0.0, 0.5, -0.3 + 0.4j):
            assert SzegoKernel()(z, 0.0) == pytest.approx(1.0)

    def test_szego_values(self):
        assert SzegoKernel()(0.5, 0.5) == pytest.approx(4.0 / 3.0)
        assert SzegoKernel()(0.5j, -0.5j) == pytest.approx(4.0 / 5.0)

    def test_szego_rejects_boundary(self):
        with pytest.raises(ValueError):
            SzegoKernel()(1.0, 0.0)
        with pytest.raises(ValueError):
            SzegoKernel()(complex(np.nan, 0.0), 0.0)

    def test_model_kernel_b_equals_z(self):
        b = BlaschkeProduct((0.0,))
        for z, w in ((0.1, 0.2), (0.5j, -0.3), (0.7, 0.7)):
            assert ModelSpaceKernel(b)(z, w) == pytest.approx(1.0)

    def test_model_kernel_b_equals_z_squared(self):
        b = BlaschkeProduct((0.0, 0.0))
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        assert ModelSpaceKernel(b)(z, w) == pytest.approx(1 + z * np.conj(w))

    def test_model_kernel_diagonal_nonnegative(self):
        b = BlaschkeProduct((0.3, -0.2 + 0.1j))
        for z in (0.0, 0.5, 0.8j, -0.6 + 0.3j):
            val = ModelSpaceKernel(b)(z, z)
            assert val.imag == pytest.approx(0.0, abs=1e-12)
            assert val.real >= 0.0

    def test_cyclic_b_z_equals_szego(self):
        # the algebraic identity 1 + z conj(w)/(1 - z conj(w)) = 1/(1 - z conj(w))
        # checked on a 1024-point grid pair sample
        from hardy_interp import disk_grid

        b = BlaschkeProduct((0.0,))
        v = ModelVector(tm_basis(b), [1.0])
        grid = disk_grid(16, 64, 0.97)
        rng = np.random.default_rng(5)
        zs = grid.points
        ws = np.array(rng.permutation(grid.points))
        vz = v.evaluate(zs)
        vw = v.evaluate(ws)
        cyc = vz * np.conj(vw) + b(zs) * np.conj(b(ws)) / (1 - zs * np.conj(ws))
        sz = 1.0 / (1 - zs * np.conj(ws))
        assert np.abs(cyc - sz).max() < 1e-12

    def test_cyclic_b_z2_first_basis_vector(self):
        b = BlaschkeProduct((0.0, 0.0))
        v = ModelVector(tm_basis(b), [1.0, 0.0])
        z, w = 0.3 + 0.0j, 0.2 + 0.0j
        expected = 1 + z ** 2 * np.conj(w) ** 2 / (1 - z * np.conj(w))
        assert CyclicKernel(b, v)(z, w) == pytest.approx(expected)

    def test_cyclic_hermitian_symmetry(self):
        b = BlaschkeProduct((0.2, -0.4j))
        basis = tm_basis(b)
        c = np.array([0.6, 0.8j])
        v = ModelVector(basis, c / np.linalg.norm(c))
        rng = np.random.default_rng(9)
        for _ in range(10):
            z, w = random_disk_points(rng, 2, radius=0.9, min_sep=0.0)
            assert CyclicKernel(b, v)(z, w) == pytest.approx(
                np.conj(CyclicKernel(b, v)(w, z)), abs=1e-12)

    def test_cyclic_requires_unit_vector(self):
        b = BlaschkeProduct((0.0,))
        for c in (2.0, complex(np.nan, 0.0)):
            v = ModelVector(tm_basis(b), [c])
            with pytest.raises(NotNormalized):
                CyclicKernel(b, v)(0.1, 0.2)

    def test_every_kernel_positive_on_random_point_sets(self):
        rng = np.random.default_rng(13)
        b = BlaschkeProduct((0.3, -0.1 + 0.2j))
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = ModelVector(tm_basis(b), coeffs / np.linalg.norm(coeffs))
        kernels = [SzegoKernel(), ModelSpaceKernel(b), CyclicKernel(b, v)]
        for _ in range(100):
            n = int(rng.integers(1, 7))
            pts = random_disk_points(rng, n, radius=0.9)
            for kern in kernels:
                assert is_psd(kern.gram(pts), 1e-8).is_psd

    def test_multiplier_scaling_preserves_psd(self):
        # columns scaled by f(x_i) conj(f(x_j)) leave Gramians PSD
        rng = np.random.default_rng(17)
        b = BlaschkeProduct((0.0, 0.0))
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = ModelVector(tm_basis(b), coeffs / np.linalg.norm(coeffs))
        kern = CyclicKernel(b, v)
        for _ in range(20):
            pts = random_disk_points(rng, 5, radius=0.85)
            qcoef = rng.normal(size=3) + 1j * rng.normal(size=3)
            fvals = qcoef[0] + b(pts) * (qcoef[1] + qcoef[2] * pts)
            gram = kern.gram(pts)
            assert is_psd(gram, 1e-8).is_psd
            scaled = np.outer(fvals, np.conj(fvals)) * gram
            assert is_psd(0.5 * (scaled + scaled.conj().T), 1e-8).is_psd


class TestCyclicGrams:
    def test_stack_matches_per_vector_gram_and_pairwise_kernel(self):
        rng = np.random.default_rng(23)
        b = BlaschkeProduct((0.3 + 0.3j, -0.5, 0.0))
        basis = tm_basis(b)
        pts = random_disk_points(rng, 6, radius=0.9)
        coeffs = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        stack = cyclic_grams(b, pts, coeffs)
        assert stack.shape == (20, 6, 6)
        for c, g in zip(coeffs, stack):
            v = ModelVector(basis, c)
            assert np.abs(g - CyclicKernel(b, v).gram(pts)).max() < 1e-13
            pairwise = np.array([[CyclicKernel(b, v)(z, w) for w in pts] for z in pts])
            assert np.abs(g - pairwise).max() < 1e-12
            assert np.array_equal(g, g.conj().T)

    def test_szego_and_model_gram_match_pairwise_kernel(self):
        rng = np.random.default_rng(29)
        b = BlaschkeProduct((0.3 + 0.3j, -0.5, 0.0))
        pts = random_disk_points(rng, 6, radius=0.9)
        for kern in (SzegoKernel(), ModelSpaceKernel(b)):
            g = kern.gram(pts)
            pairwise = np.array([[kern(z, w) for w in pts] for z in pts])
            assert np.abs(g - pairwise).max() < 1e-12
            assert np.array_equal(g, g.conj().T)

    def test_elementwise_array_call(self):
        rng = np.random.default_rng(31)
        zs = random_disk_points(rng, 7, radius=0.9, min_sep=0.0)
        ws = random_disk_points(rng, 7, radius=0.9, min_sep=0.0)
        vals = SzegoKernel()(zs, ws)
        assert vals.shape == (7,)
        assert np.abs(vals - 1.0 / (1.0 - zs * np.conj(ws))).max() < 1e-15

    def test_single_vector_gives_stack_of_one(self):
        b = BlaschkeProduct((0.0, 0.0))
        pts = np.array([0.1, -0.2j, 0.5])
        assert cyclic_grams(b, pts, [1.0, 0.0]).shape == (1, 3, 3)

    def test_rejects_points_outside_the_disk(self):
        b = BlaschkeProduct((0.0,))
        for bad in (1.0, np.nan):
            with pytest.raises(ValueError):
                cyclic_grams(b, [0.1, bad], [[1.0]])


class TestTakenakaMalmquist:
    def test_repeated_zero_gives_monomials(self):
        basis = tm_basis(BlaschkeProduct((0.0, 0.0)))
        z = np.array([0.3 + 0.1j, -0.5j, 0.7])
        mat = basis.eval_matrix(z)
        assert np.allclose(mat[:, 0], 1.0)
        assert np.allclose(mat[:, 1], z)

    def test_single_zero(self):
        basis = tm_basis(BlaschkeProduct((0.0,)))
        assert basis.dimension == 1
        assert np.allclose(basis.eval_matrix(np.array([0.4])), 1.0)

    def test_orthonormal_generic_zeros(self):
        basis = tm_basis(BlaschkeProduct((0.2 + 0.3j, -0.5, 0.1j)))
        rule = uniform_rule(4096)
        bnd = rule.boundary_points
        mat = basis.eval_matrix(bnd)
        gram = (mat.conj().T @ mat) / rule.node_count
        assert np.abs(gram - np.eye(3)).max() < 1e-8


class TestOuterFunction:
    def test_constant_one(self):
        rule = uniform_rule(256)
        g = outer_from_modulus(np.ones(rule.node_count), rule)
        zs = np.array([0.0, 0.3, -0.5j, 0.2 + 0.4j])
        assert np.abs(g(zs) - 1.0).max() < 1e-12
        assert np.abs(g.boundary_values() - 1.0).max() < 1e-14

    def test_constant_square(self):
        rule = uniform_rule(256)
        g = outer_from_modulus(np.full(rule.node_count, 2.25), rule)
        assert g(0.1 + 0.2j) == pytest.approx(1.5, abs=1e-12)
        assert g(0.0) == pytest.approx(1.5)

    def test_smooth_polynomial_modulus(self):
        # p = |1 + 0.9 e^{it}|^2 is a trigonometric polynomial of degree 1,
        # factored exactly as 1 + 0.9 z
        rule = uniform_rule(512)
        p = np.abs(1.0 + 0.9 * rule.boundary_points) ** 2
        g = outer_from_modulus(p, rule)
        rng = np.random.default_rng(23)
        zs = random_disk_points(rng, 20, radius=0.9, min_sep=0.0)
        assert np.abs(g(zs) - (1.0 + 0.9 * zs)).max() < 1e-10

    def test_boundary_values_reproduce_modulus(self):
        rule = uniform_rule(512)
        p = np.abs(1.0 + 0.6 * rule.boundary_points) ** 2 + 0.2
        g = outer_from_modulus(p, rule)
        assert np.abs(np.abs(g.boundary_values()) ** 2 - p).max() < 1e-6

    def test_origin_value_matches_quadrature(self):
        rule = uniform_rule(256)
        p = 1.5 + np.cos(rule.nodes)
        g = outer_from_modulus(p, rule)
        expected = np.exp(0.5 * np.mean(np.log(p)))
        assert abs(g(0.0) - expected) < 1e-8
        assert g.scale > 0

    def test_boundary_zero_off_nodes(self):
        # p = |z - e^{0.123i}|^2 |2 + z|^2 vanishes between nodes; its outer
        # factor normalized by g(0) > 0 is (1 - z e^{-0.123i})(2 + z)
        rule = uniform_rule(1024)
        e = np.exp(0.123j)
        z = rule.boundary_points
        p = np.abs(z - e) ** 2 * np.abs(2.0 + z) ** 2
        g = outer_from_modulus(p, rule)
        rng = np.random.default_rng(29)
        zs = random_disk_points(rng, 20, radius=0.9, min_sep=0.0)
        assert np.abs(g(zs) - (1.0 - zs * np.conj(e)) * (2.0 + zs)).max() < 1e-12

    def test_double_boundary_zero(self):
        # p = |1 - z|^4 vanishes to fourth order at the node t = 0
        rule = uniform_rule(1024)
        p = np.abs(1.0 - rule.boundary_points) ** 4
        g = outer_from_modulus(p, rule)
        rng = np.random.default_rng(31)
        zs = random_disk_points(rng, 20, radius=0.9, min_sep=0.0)
        assert np.abs(g(zs) - (1.0 - zs) ** 2).max() < 1e-12

    def test_zero_just_outside_circle_not_merged(self):
        # p = |z - 1.001|^2 is positive; its root pair 1.001, 1/1.001 must not
        # be merged into a boundary zero at 1
        rule = uniform_rule(512)
        p = np.abs(rule.boundary_points - 1.001) ** 2
        g = outer_from_modulus(p, rule)
        zs = np.array([0.0, 0.5, 0.9, -0.7j])
        assert np.abs(g(zs) - (1.001 - zs)).max() < 1e-10

    def test_exact_zero_sample_of_polynomial_modulus(self):
        # 2 + 2cos t = |1 + e^{it}|^2 is exactly 0 at the node t = pi
        rule = uniform_rule(256)
        p = 2.0 + 2.0 * np.cos(rule.nodes)
        assert p[128] == 0.0
        g = outer_from_modulus(p, rule)
        zs = np.array([0.0, 0.5, -0.9, 0.3 - 0.6j])
        assert np.abs(g(zs) - (1.0 + zs)).max() < 1e-12

    def test_boundary_values_of_polynomial_factor(self):
        rule = uniform_rule(4096)
        z = rule.boundary_points
        g = outer_from_modulus(np.abs(1.0 + z) ** 2, rule)
        assert np.abs(g.boundary_values() - (1.0 + z)).max() < 1e-12

    def test_origin_value_is_g_at_origin(self):
        rule = uniform_rule(4096)
        g = outer_from_modulus(np.abs(1.0 + rule.boundary_points) ** 2, rule)
        assert g.scale == g(0.0)
        assert g.scale == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_sample_rejected(self):
        rule = uniform_rule(64)
        p = np.ones(64)
        p[3] = 0.0
        with pytest.raises(NotLogIntegrable):
            outer_from_modulus(p, rule)
        p[3] = -1.0
        with pytest.raises(NotLogIntegrable):
            outer_from_modulus(p, rule)
        # positive, but not a trigonometric polynomial of degree below N/2
        rule = uniform_rule(256)
        with pytest.raises(NotLogIntegrable, match="degree at most 127"):
            outer_from_modulus(2.0 + np.abs(np.cos(rule.nodes)), rule)

    def test_radius_cap(self):
        rule = uniform_rule(64)
        g = outer_from_modulus(np.ones(64), rule)
        g(0.9999)
        with pytest.raises(ValueError):
            g(1.0)


class TestModelSphereSampling:
    def test_one_dimensional_sphere(self):
        b = BlaschkeProduct((0.0,))
        vecs = sample_model_sphere(b, 16, seed=4)
        # every sample is a unimodular multiple of the basis vector, so all
        # induced kernels coincide
        z, w = 0.3, -0.2 + 0.1j
        vals = [CyclicKernel(b, v)(z, w) for v in vecs]
        assert np.abs(np.diff(vals)).max() < 1e-14
        for v in vecs:
            assert abs(abs(v.coefficients[0]) - 1.0) < 1e-12

    def test_seed_determinism(self):
        b = BlaschkeProduct((0.2, 0.4j))
        a = sample_model_sphere(b, 50, seed=11)
        c = sample_model_sphere(b, 50, seed=11)
        for x, y in zip(a, c):
            assert np.array_equal(x.coefficients, y.coefficients)

    def test_unit_norm_and_spread(self):
        b = BlaschkeProduct((0.0, 0.0))
        vecs = sample_model_sphere(b, 1000, seed=0)
        coeffs = np.stack([v.coefficients for v in vecs])
        assert np.abs(np.linalg.norm(coeffs, axis=1) - 1.0).max() < 1e-12
        # minimum pairwise chordal distance strictly positive
        gram = np.abs(coeffs @ coeffs.conj().T)
        np.fill_diagonal(gram, 0.0)
        min_chordal = np.sqrt(2.0 - 2.0 * np.clip(gram.max(), 0.0, 1.0))
        assert min_chordal > 0.0
