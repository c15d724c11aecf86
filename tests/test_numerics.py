"""Tests for the shared numerical kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    charpoly_min_eig_oracle,
    random_hermitian,
    schur_reduction_feasible,
    two_node_optimal_alpha,
)
from hardy_interp import (
    InfeasibleConstraints,
    InvalidMatrix,
    InvalidRadius,
    disk_grid,
    hermitian_eigenvalues,
    hermitian_min_eig,
    minimax_affine,
    uniform_rule,
)


class TestHermitianMinEig:
    def test_identity(self):
        assert hermitian_min_eig(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        assert hermitian_min_eig([[1, 2], [2, 1]]) == pytest.approx(-1.0, abs=1e-12)

    def test_random_against_charpoly_bisection(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            h = random_hermitian(rng, 4)
            expected = charpoly_min_eig_oracle(h)
            assert hermitian_min_eig(h) == pytest.approx(expected, abs=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidMatrix):
            hermitian_min_eig([[1, 2], [3, 1]])
        with pytest.raises(InvalidMatrix):
            hermitian_min_eig(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidMatrix):
                hermitian_min_eig([[bad, 1.0], [1.0, 2.0]])
            with pytest.raises(InvalidMatrix):
                hermitian_eigenvalues(np.stack([np.eye(2), [[1.0, bad], [bad, 1.0]]]))

    def test_stack_matches_per_matrix_and_charpoly(self):
        rng = np.random.default_rng(17)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(12)])
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (12, 5)
        for h, row in zip(stack, eigs):
            assert np.abs(row - hermitian_eigenvalues(h)).max() < 1e-12
            assert row[0] == pytest.approx(charpoly_min_eig_oracle(h), abs=1e-9)

    def test_stack_rejects_one_non_hermitian_member(self):
        stack = np.stack([np.eye(2), [[1.0, 2.0], [3.0, 1.0]]])
        with pytest.raises(InvalidMatrix):
            hermitian_eigenvalues(stack)

    def test_full_spectrum_sorted(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 6)
        eigs = hermitian_eigenvalues(h)
        assert np.all(np.diff(eigs) >= 0)
        assert np.trace(h).real == pytest.approx(eigs.sum(), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_shift_equivariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        base = hermitian_min_eig(h)
        shifted = hermitian_min_eig(h + shift * np.eye(4))
        assert shifted == pytest.approx(base + shift, abs=1e-9)


class TestIsPsd:
    # PSD at tolerance tol means hermitian_min_eig >= -tol
    def test_zero_matrix(self):
        assert hermitian_min_eig(np.zeros((3, 3))) == 0.0

    def test_indefinite(self):
        lam = hermitian_min_eig([[1, 2], [2, 1]])
        assert not lam >= -1e-8
        assert lam == pytest.approx(-1.0, abs=1e-10)

    def test_feasible_three_node_pick_matrix(self):
        # build the Pick matrix of a random scalar problem whose feasibility
        # the independent Schur reduction oracle confirms first
        rng = np.random.default_rng(3)
        pts = np.array([0.0, 0.4, -0.3 + 0.2j])
        vals = 0.5 * np.array([0.1, 0.3 - 0.1j, -0.2j])
        assert schur_reduction_feasible(pts, vals, 1.0)
        szego = 1.0 / (1.0 - pts[:, None] * np.conj(pts)[None, :])
        q = (1.0 - np.outer(vals, np.conj(vals))) * szego
        assert hermitian_min_eig(q) >= -1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_monotone_under_nonnegative_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 4)
        m = m @ m.conj().T  # PSD
        d = np.diag(rng.uniform(0.0, 2.0, size=4))
        assert hermitian_min_eig(m) >= -1e-10
        assert hermitian_min_eig(m + d) >= -1e-10


class TestQuadrature:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            uniform_rule(12)
        with pytest.raises(ValueError):
            uniform_rule(0)
        rule = uniform_rule(8)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] == 0.0 and rule.nodes[-1] < 2 * np.pi

    def test_constant(self):
        z = uniform_rule(64).boundary_points
        assert np.mean(np.ones_like(z)) == pytest.approx(1.0)

    def test_character_mean_vanishes(self):
        z = uniform_rule(64).boundary_points
        assert abs(np.mean(z)) < 1e-14

    def test_parseval_on_one_plus_z(self):
        z = uniform_rule(128).boundary_points
        assert np.mean(np.abs(1 + z) ** 2) == pytest.approx(2.0, abs=1e-12)

    def test_powers_vanish_below_aliasing(self):
        # the mean of z^k over the N boundary points is 0 for 0 < |k| < N:
        # exact for trigonometric polynomials of degree < N
        z = uniform_rule(32).boundary_points
        for k in (1, 2, 5, 15, 31):
            assert abs(np.mean(z ** k)) < 1e-12
            assert abs(np.mean(z ** (-k))) < 1e-12


class TestDiskGrid:
    def test_small_grid(self):
        g = disk_grid(2, 4, 0.9)
        assert len(g) == 8
        assert np.abs(g.points).max() <= 0.9 + 1e-15

    def test_single_point(self):
        g = disk_grid(1, 1, 0.5)
        assert len(g) == 1
        assert abs(g.points[0]) == pytest.approx(0.5)

    def test_large_grid(self):
        g = disk_grid(16, 64, 0.995)
        assert len(g) == 1024
        assert np.abs(g.points).max() <= 0.995 + 1e-15

    def test_deterministic(self):
        a = disk_grid(5, 7, 0.8)
        b = disk_grid(5, 7, 0.8)
        assert np.array_equal(a.points, b.points)

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadius):
            disk_grid(2, 2, 1.0)
        with pytest.raises(InvalidRadius):
            disk_grid(2, 2, 0.0)


class TestMinimaxAffine:
    def test_unconstrained_is_zero(self):
        grid = disk_grid(4, 8, 0.9)
        basis = np.ones((len(grid), 1), dtype=complex)
        sol = minimax_affine(basis, None, grid)
        assert sol.achieved_level == 0.0
        assert np.allclose(sol.coefficients, 0.0)
        assert sol.converged

    def test_pinned_coefficient(self):
        grid = disk_grid(4, 8, 0.9)
        basis = np.ones((len(grid), 1), dtype=complex)
        lmat = np.array([[1.0]], dtype=complex)
        sol = minimax_affine(basis, (lmat, np.array([1.0])), grid)
        assert sol.achieved_level == pytest.approx(1.0, abs=1e-12)

    def test_two_node_matches_schur_oracle(self):
        x1, x2 = 0.2 + 0.0j, -0.4 + 0.3j
        w1, w2 = 0.3 + 0.1j, -0.2 + 0.0j
        alpha_star = two_node_optimal_alpha(x1, x2, w1, w2)
        degree = 24
        grid = disk_grid(6, 256, 0.99999)
        basis = grid.points[:, None] ** np.arange(degree + 1)[None, :]
        lmat = np.array([x1, x2])[:, None] ** np.arange(degree + 1)[None, :]
        sol = minimax_affine(basis, (lmat, np.array([w1, w2])), grid, tol=1e-7)
        assert sol.achieved_level == pytest.approx(alpha_star, abs=1e-4)

    def test_level_nonincreasing_in_basis_size(self):
        grid = disk_grid(6, 48, 0.97)
        x = np.array([0.1, 0.5j])
        w = np.array([0.2, 0.4 - 0.1j])
        levels = []
        for degree in (2, 4, 8):
            basis = grid.points[:, None] ** np.arange(degree + 1)[None, :]
            lmat = x[:, None] ** np.arange(degree + 1)[None, :]
            sol = minimax_affine(basis, (lmat, w), grid, tol=1e-6)
            levels.append(sol.achieved_level)
        assert levels[1] <= levels[0] + 1e-6
        assert levels[2] <= levels[1] + 1e-6

    def test_constraint_residual_bound(self):
        grid = disk_grid(5, 32, 0.95)
        degree = 6
        x = np.array([0.3, -0.2 + 0.4j, 0.1j])
        w = np.array([0.1, 0.2, -0.3j])
        basis = grid.points[:, None] ** np.arange(degree + 1)[None, :]
        lmat = x[:, None] ** np.arange(degree + 1)[None, :]
        sol = minimax_affine(basis, (lmat, w), grid, tol=1e-6)
        resid = np.linalg.norm(lmat @ sol.coefficients[0] - w)
        assert resid <= 1e-7
        # achieved level is the exact grid maximum at the coefficients
        vals = np.abs(basis @ sol.coefficients[0])
        assert sol.achieved_level == pytest.approx(vals.max(), abs=1e-9)

    def test_inconsistent_constraints(self):
        grid = disk_grid(2, 4, 0.5)
        basis = np.ones((len(grid), 1), dtype=complex)
        lmat = np.array([[1.0], [1.0]], dtype=complex)
        with pytest.raises(InfeasibleConstraints):
            minimax_affine(basis, (lmat, np.array([0.0, 1.0])), grid)

    def test_exhausted_bisection_raises_with_best(self):
        from hardy_interp import NotConverged

        grid = disk_grid(4, 16, 0.9)
        degree = 3
        basis = grid.points[:, None] ** np.arange(degree + 1)[None, :]
        lmat = np.array([0.2, -0.4j])[:, None] ** np.arange(degree + 1)[None, :]
        with pytest.raises(NotConverged) as err:
            minimax_affine(basis, (lmat, np.array([0.3, 0.1])), grid,
                           tol=1e-6, max_rounds=1)
        assert err.value.best is not None
        assert err.value.best.achieved_level > 0
        assert not err.value.best.converged

    def test_multi_component(self):
        grid = disk_grid(4, 16, 0.9)
        basis = np.ones((len(grid), 1), dtype=complex)
        # two components, each pinned: F = (3/5, 4/5) constant, norm 1
        lmat = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        sol = minimax_affine(basis, (lmat, np.array([0.6, 0.8])), grid)
        assert sol.achieved_level == pytest.approx(1.0, abs=1e-10)

    def test_inner_radius_peak_is_added_and_solved(self):
        # columns [1, 1/|z|]: the largest values lie on the inner radius, so
        # the outer circle does not bind and the whole-grid check must add
        # the inner points; with c_0 = 1, min max |1 + c x| over x in
        # [1/r_max, 1/r_min] is (x2 - x1)/(x2 + x1), at a real c
        grid = disk_grid(4, 16, 0.9)
        radius = np.abs(grid.points)
        basis = np.stack([np.ones(len(grid)), 1.0 / radius], axis=1).astype(complex)
        lmat = np.array([[1.0, 0.0]], dtype=complex)
        tol = 1e-6
        sol = minimax_affine(basis, (lmat, np.array([1.0])), grid, tol=tol)
        x1, x2 = 1.0 / radius.max(), 1.0 / radius.min()
        optimum = (x2 - x1) / (x2 + x1)
        assert sol.lower_bound <= optimum <= sol.achieved_level
        assert sol.achieved_level <= sol.lower_bound + tol * max(1.0, sol.achieved_level)
        assert sol.achieved_level == pytest.approx(np.abs(basis @ sol.coefficients[0]).max(),
                                                  rel=1e-12)
