"""Tests for the operator-distance duality laboratory."""

import numpy as np
import pytest

from hardy_interp import (
    TruncatedDistanceProblem,
    distance_dual,
    distance_primal,
    solve_distance,
)
from hardy_interp import duality


def bracket(problem):
    solution = solve_distance(problem)
    return solution.primal, solution.dual


def random_instance(rng, max_dim=6, max_basis=3):
    n1 = int(rng.integers(2, max_dim + 1))
    n2 = int(rng.integers(2, max_dim + 1))
    s = int(rng.integers(1, max_basis + 1))
    target = rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
    basis = [rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
             for _ in range(s)]
    return TruncatedDistanceProblem(target, basis)


def criterion_6_instance(index):
    """Instance number index (from 0) of the criterion-6 acceptance set."""
    rng = np.random.default_rng(606)
    for _ in range(index + 1):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 7))
        s = int(rng.integers(1, 4))
        target = rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
        basis = [rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
                 for _ in range(s)]
    return TruncatedDistanceProblem(target, basis, rank=n1)


class TestValidation:
    def test_dependent_basis_rejected(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            TruncatedDistanceProblem(a, [a, 2.0 * a])

    def test_rank_below_n1_rejected(self):
        a = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError):
            TruncatedDistanceProblem(a, [], rank=2)

    def test_small_independent_basis_accepted(self):
        # independence does not depend on the scale of the basis matrices
        basis = [1e-6 * np.diag([1.0, 0.0]), 1e-6 * np.diag([0.0, 1.0])]
        p = TruncatedDistanceProblem(np.eye(2), basis)
        assert len(p.basis) == 2
        with pytest.raises(ValueError):
            TruncatedDistanceProblem(np.eye(2), [basis[0], 1e-3 * basis[0]])

    def test_default_rank_is_n1(self):
        a = np.ones((2, 3), dtype=complex)
        p = TruncatedDistanceProblem(a, [])
        assert p.rank == 3


class TestPrimal:
    def test_target_in_span_gives_zero(self):
        rng = np.random.default_rng(2)
        b1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        target = (0.3 - 0.2j) * b1 + 1.1j * b2
        p = TruncatedDistanceProblem(target, [b1, b2])
        assert distance_primal(p) < 1e-8

    def test_empty_subspace_gives_operator_norm(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        p = TruncatedDistanceProblem(a, [])
        assert distance_primal(p) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0])

    def test_diagonal_versus_scalars(self):
        # dense scan over the scalar coefficient confirms the optimum is at 0
        a = np.diag([1.0, -1.0]).astype(complex)
        p = TruncatedDistanceProblem(a, [np.eye(2, dtype=complex)])
        scan = min(
            np.linalg.svd(a + (x + 1j * y) * np.eye(2), compute_uv=False)[0]
            for x in np.linspace(-1, 1, 41) for y in np.linspace(-1, 1, 41)
        )
        assert scan == pytest.approx(1.0)
        assert distance_primal(p) == pytest.approx(1.0, abs=1e-8)
        # theta = 0 is optimal, and the primal never exceeds ||A||
        assert distance_primal(p) <= np.linalg.svd(a, compute_uv=False)[0]


class TestDual:
    def test_target_in_span_gives_zero(self):
        rng = np.random.default_rng(5)
        b1 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        target = (2.0 - 0.5j) * b1
        p = TruncatedDistanceProblem(target, [b1])
        assert distance_dual(p) < 1e-10

    def test_empty_subspace_gives_operator_norm(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        p = TruncatedDistanceProblem(a, [])
        assert distance_dual(p) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], abs=1e-9)

    def test_diagonal_versus_scalars(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        p = TruncatedDistanceProblem(a, [np.eye(2, dtype=complex)])
        assert distance_dual(p) == pytest.approx(1.0, abs=1e-6)


class TestDuality:
    def test_weak_duality_never_violated(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            p = random_instance(rng)
            assert distance_dual(p) <= distance_primal(p) + 1e-10

    def test_strong_duality_sample(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_instance(rng)
            gap = distance_primal(p) - distance_dual(p)
            assert abs(gap) <= 1e-6

    def test_gap_relative_to_distance_near_subspace(self):
        # targets at distance about eps ||R|| from the subspace, eps down to
        # 1e-6: the bracket must be tight relative to the distance, not ||A||
        rng = np.random.default_rng(0)

        def cmat():
            return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

        for eps in np.logspace(-2, -6, 50):
            s1, s2, r = cmat(), cmat(), cmat()
            primal, dual = bracket(TruncatedDistanceProblem(s1 + 0.5 * s2 + eps * r, [s1, s2]))
            assert abs(primal - dual) <= 1e-8 * primal

    def test_seed_with_degenerate_rank_one_optimum(self):
        # Here the span of (S_k (x) I) h1 degenerates at the rank-one optimal
        # h1, so a dual seeded with the top singular vector alone returns
        # 2.7e-7 instead of the distance 0.709.
        p = criterion_6_instance(5)
        assert p.target.shape == (3, 2) and len(p.basis) == 3
        assert abs(distance_primal(p) - distance_dual(p)) <= 1e-6

    def test_tensor_rank_stability(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n1, n2, s = 3, 4, 2
            target = rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
            basis = [rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
                     for _ in range(s)]
            base = distance_dual(TruncatedDistanceProblem(target, basis, rank=n1))
            bigger = distance_dual(TruncatedDistanceProblem(target, basis,
                                                            rank=n1 + 2))
            assert abs(base - bigger) <= 1e-8

    def test_high_tensor_rank_matches_rank_n1(self):
        # the dual is formed without Kronecker matrices, so rank 1000 costs
        # memory linear in the rank and changes nothing
        rng = np.random.default_rng(19)
        target = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        basis = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
        base = distance_dual(TruncatedDistanceProblem(target, basis))
        bigger = distance_dual(TruncatedDistanceProblem(target, basis, rank=1000))
        assert abs(base - bigger) <= 1e-8


class TestDistance:
    def test_matches_primal_and_dual(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = random_instance(rng)
            assert bracket(p) == (distance_primal(p), distance_dual(p))

    def test_scale_covariance(self):
        rng = np.random.default_rng(29)
        for _ in range(4):
            p = random_instance(rng)
            primal, dual = bracket(p)
            for c in (2.0 ** -30, 2.0 ** 20):
                scaled = TruncatedDistanceProblem(c * p.target, p.basis)
                assert bracket(scaled) == (c * primal, c * dual)
            c = 1e-9
            scaled = bracket(TruncatedDistanceProblem(c * p.target, p.basis))
            assert scaled == pytest.approx((c * primal, c * dual), rel=1e-8)

    def test_tiny_target(self):
        # distance from I to span{diag(1, 2)} is 1/3, at theta = -2/3
        basis = [np.diag([1.0, 2.0]).astype(complex)]
        primal, dual = bracket(TruncatedDistanceProblem(1e-200 * np.eye(2), basis))
        assert primal == pytest.approx(1e-200 / 3, rel=1e-7)
        assert dual == pytest.approx(1e-200 / 3, rel=1e-7)
        assert bracket(TruncatedDistanceProblem(np.zeros((2, 2)), basis)) == (0.0, 0.0)

    def test_basis_scale_does_not_change_distance(self):
        p = criterion_6_instance(3)
        for c in (1e-6, 1e-200):
            scaled = TruncatedDistanceProblem(p.target, [c * b for b in p.basis], p.rank)
            assert bracket(scaled) == pytest.approx(bracket(p), rel=1e-9)

    def test_target_equal_to_basis(self):
        # A = S_1: the multiplier projects to rounding residue, which must not
        # be taken as a lower bound (it gave 0.75 above the upper bound)
        a = 0.75 * np.diag([1.0, -1.0])
        primal, dual = bracket(TruncatedDistanceProblem(a, [a]))
        assert primal <= 1e-9 * 0.75
        assert 0.0 <= dual <= primal

    def test_target_in_span_stops_early(self):
        # distance 0: the relative stop cannot close a bracket [0, upper], so
        # the solve ran on until Cholesky failed (23-33 Newton steps, once
        # the 200-step cap); the absolute floor on upper ends it
        rng = np.random.default_rng(0)
        for _ in range(30):
            basis = random_instance(rng, max_dim=5).basis
            a = sum((rng.normal() + 1j * rng.normal()) * b for b in basis)
            solution = solve_distance(TruncatedDistanceProblem(a, basis))
            assert solution.rounds <= 20
            assert 0.0 <= solution.dual <= solution.primal <= 2e-10 * np.linalg.norm(a, 2)

    def test_step_cap_returns_valid_bracket(self, monkeypatch):
        # every iterate brackets the distance, so a capped solve still does
        p = criterion_6_instance(7)
        exact = solve_distance(p)
        monkeypatch.setattr(duality, "_MAX_STEPS", 3)
        capped = solve_distance(p)
        assert capped.rounds == 3
        assert exact.dual - 1e-12 <= capped.primal <= np.linalg.norm(p.target, 2)
        assert 0.0 <= capped.dual <= exact.primal + 1e-12
        assert capped.primal - capped.dual > exact.primal - exact.dual
