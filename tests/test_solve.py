"""Tests for interpolant construction and verification."""

import numpy as np
import pytest

from conftest import (
    pseudo_hyperbolic,
    random_disk_points,
    two_node_optimal_alpha,
)
from hardy_interp import (
    AnalyticBasis,
    BlaschkeProduct,
    CplusB,
    DegenerateBoundaryData,
    DuplicateNodes,
    FullHinf,
    InfeasibleConstraints,
    InfeasibleProblem,
    NotConverged,
    TangentialProblem,
    VectorAnalyticFunction,
    disk_grid,
    minimax_affine,
    schur_interpolate,
    tangential_solve,
    verify_solution,
)

GRID = disk_grid(8, 512, 0.995)


def scalar_problem(points, targets, bound=1.0, algebra=None):
    points = np.asarray(points, dtype=complex)
    return TangentialProblem(
        points=points,
        directions=np.ones((points.size, 1), dtype=complex),
        targets=np.asarray(targets, dtype=complex),
        bound=bound,
        algebra=algebra if algebra is not None else FullHinf(),
    )


def random_feasible_scalar(rng, n, bound=1.0, margin=0.55):
    """Random nodes plus values of a mild polynomial, strictly feasible."""
    pts = random_disk_points(rng, n)
    coeffs = margin * (rng.normal(size=3) + 1j * rng.normal(size=3)) / 3.0
    vals = np.polynomial.polynomial.polyval(pts, coeffs)
    return pts, vals


class TestSchurInterpolate:
    def test_single_zero_node(self):
        f = schur_interpolate([0.0], [0.0], 1.0)
        assert f(0.0) == 0.0
        assert f.grid_norm(GRID.points) < 1e-15

    def test_identity_data(self):
        f = schur_interpolate([0.0, 0.5], [0.0, 0.5], 1.0)
        assert abs(f(0.0)) < 1e-12
        assert f(0.5) == pytest.approx(0.5, abs=1e-12)
        assert f.grid_norm(GRID.points) <= 1.0 + 1e-6

    def test_strictly_feasible_two_node(self):
        f = schur_interpolate([0.0, 0.5], [0.0, 0.25], 1.0)
        assert abs(f(0.0)) < 1e-12
        assert f(0.5) == pytest.approx(0.25, abs=1e-8)
        assert f.grid_norm(GRID.points) <= 1.0 + 1e-6

    def test_random_problems_meet_contract(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            pts, vals = random_feasible_scalar(rng, n)
            f = schur_interpolate(pts, vals, 1.0)
            residual = max(abs(f(z) - w) for z, w in zip(pts, vals))
            assert residual <= 1e-8
            assert f.grid_norm(GRID.points) <= 1.0 + 1e-6

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleProblem):
            schur_interpolate([0.0, 0.5], [0.0, 0.6], 1.0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodes):
            schur_interpolate([0.3, 0.3], [0.1, 0.1], 1.0)

    def test_boundary_constant_data(self):
        f = schur_interpolate([0.0, 0.5], [1.0, 1.0], 1.0)
        assert f(0.2) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_nonconstant_rejected(self):
        with pytest.raises((DegenerateBoundaryData, InfeasibleProblem)):
            schur_interpolate([0.0, 0.5], [1.0, 0.5], 1.0)

    def test_minimal_alpha_matches_quadratic_oracle(self):
        # bisection over recursion feasibility against the closed-form
        # two-node optimum
        rng = np.random.default_rng(57)
        for _ in range(6):
            (x1, x2) = random_disk_points(rng, 2, radius=0.8)
            (w1, w2) = 0.7 * random_disk_points(rng, 2, radius=0.9, min_sep=0.0)
            expected = two_node_optimal_alpha(x1, x2, w1, w2)
            lo, hi = max(abs(w1), abs(w2)) * (1 - 1e-12), 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                try:
                    schur_interpolate([x1, x2], [w1, w2], mid)
                    hi = mid
                except InfeasibleProblem:
                    lo = mid
            assert hi == pytest.approx(expected, abs=1e-6)

    def test_minimal_alpha_ratio_form_when_first_target_zero(self):
        # with w1 = 0 the optimum reduces to the pseudo-hyperbolic ratio
        x1, x2 = 0.1 + 0.2j, -0.4
        w2 = 0.3 - 0.2j
        expected = pseudo_hyperbolic(0.0, w2) / pseudo_hyperbolic(x1, x2)
        assert two_node_optimal_alpha(x1, x2, 0.0, w2) == pytest.approx(
            expected, abs=1e-9)


class TestWitnessInterpolant:
    """Whether tangential data can be met at all, before any norm is minimised."""

    def test_rank_one_gram_off_range(self):
        # every element of C + B H-infinity with B(0) = B(1/2) = 0 takes one value
        # at 0 and 1/2, so targets 0 and 1 in the same direction are met at no degree
        b = BlaschkeProduct((0.0, 0.5))
        p = TangentialProblem(
            points=[0.0, 0.5],
            directions=[[1.0, 0.0], [1.0, 0.0]],
            targets=[0.0, 1.0],
            bound=1.0,
            algebra=CplusB(b),
        )
        with pytest.raises(InfeasibleConstraints):
            tangential_solve(p, degree=3, grid=disk_grid(8, 64, 0.995))

    def test_consistent_duplicate_points(self):
        # one node given twice, in directions e_1 and e_2: the data fix both
        # components of f(0.2)
        p = TangentialProblem(
            points=[0.2, 0.2],
            directions=[[1.0, 0.0], [0.0, 1.0]],
            targets=[0.4, -0.1j],
            bound=1.0,
            algebra=FullHinf(),
        )
        res = tangential_solve(p, degree=2, grid=disk_grid(8, 64, 0.995))
        vals = res.function.values(p.points)
        attained = np.sum(vals * np.conj(p.directions), axis=1)
        assert np.abs(attained - p.targets).max() <= 1e-10


class TestTangentialSolve:
    def test_single_node_unit_target(self):
        p = TangentialProblem([0.0], [[1.0, 0.0]], [1.0], 1.0, FullHinf())
        grid = disk_grid(8, 64, 0.995)
        res = tangential_solve(p, degree=4, grid=grid)
        assert res.grid_norm == pytest.approx(1.0, abs=1e-8)
        val = res.function(0.0)
        assert np.abs(val - np.array([1.0, 0.0])).max() < 1e-8

    def test_scalar_reduction_matches_schur(self):
        x1, x2 = 0.15, -0.3 + 0.2j
        w1, w2 = 0.25, 0.1 - 0.3j
        alpha_star = two_node_optimal_alpha(x1, x2, w1, w2)
        p = TangentialProblem([x1, x2], [[1.0], [1.0]], [w1, w2], 1.0, FullHinf())
        grid = disk_grid(6, 256, 0.99999)
        res = tangential_solve(p, degree=22, grid=grid, tol=1e-6)
        assert res.grid_norm == pytest.approx(alpha_star, abs=1e-3)

    def test_norm_nonincreasing_in_degree_and_grid(self):
        p = TangentialProblem([0.1, 0.4j], [[1.0], [1.0]], [0.3, -0.2], 1.0,
                              FullHinf())
        coarse = disk_grid(4, 32, 0.97)
        fine = disk_grid(8, 64, 0.97)
        n_d4 = tangential_solve(p, degree=4, grid=coarse, tol=1e-7).grid_norm
        n_d8 = tangential_solve(p, degree=8, grid=coarse, tol=1e-7).grid_norm
        n_d8_fine = tangential_solve(p, degree=8, grid=fine, tol=1e-7).grid_norm
        assert n_d8 <= n_d4 + 1e-5
        assert n_d8_fine >= n_d8 - 1e-5  # finer grid sees at least as much

    def test_degree_one_meets_linear_data_on_three_nodes(self):
        # f = z meets f(0) = 0, f(+-1/2) = +-1/2 at degree 1, although
        # degree 1 cannot separate three classes of nodes
        p = scalar_problem([0.0, 0.5, -0.5], [0.0, 0.5, -0.5])
        res = tangential_solve(p, degree=1, grid=disk_grid(8, 64, 0.995))
        assert np.abs(res.function.coefficients[0] - [0.0, 1.0]).max() < 1e-8
        assert res.grid_norm == pytest.approx(0.995, abs=1e-8)

    def test_data_no_degree_one_function_meets_raise(self):
        p = scalar_problem([0.0, 0.5, -0.5], [0.0, 0.5, 0.0])
        with pytest.raises(InfeasibleConstraints):
            tangential_solve(p, degree=1, grid=disk_grid(8, 64, 0.995))

    def test_infeasible_cplusb_instance_norm_floor(self):
        b = BlaschkeProduct((0.0, 0.0))
        p = TangentialProblem([0.0, 0.5], [[1.0], [1.0]], [0.0, 0.5], 1.0,
                              CplusB(b))
        grid = disk_grid(8, 128, 0.995)
        res = tangential_solve(p, degree=6, grid=grid, tol=1e-4)
        assert res.grid_norm >= 1.9
        assert res.meets_level is None


    @pytest.mark.parametrize("tol", [1e-4, 1e-7])
    @pytest.mark.parametrize("degree", [2, 5, 10, 20])
    def test_criterion_4_bracket_contains_grid_optimum(self, degree, tol):
        # f(0) = 0, f(1/2) = 1/2 in C + z^2 H-infinity: f = 2 z^2 meets the data
        # with grid norm 0.995^2 * 2 = 1.98005 on the 8 x 128 grid of radius
        # 0.995, so the bracket must reach down to it
        problem = TangentialProblem(np.array([0.0, 0.5]), np.ones((2, 1)),
                                    np.array([0.0, 0.5]), 1.0,
                                    CplusB(BlaschkeProduct((0.0, 0.0))))
        res = tangential_solve(problem, degree, disk_grid(8, 128, 0.995), tol=tol)
        lower = res.minimax.lower_bound
        assert lower <= 0.995 ** 2 * 2 <= res.grid_norm
        assert res.grid_norm - lower <= tol * max(1.0, res.grid_norm)

    @pytest.mark.parametrize("degree", [4, 12])
    def test_criterion_4_certificate_over_whole_grid(self, degree):
        # the minimax runs on the outer circle of the grid; grid_norm and
        # lower_bound must still bracket the grid norm of the optimal 2 z^2,
        # with grid_norm the maximum over all 1,024 points
        problem = TangentialProblem(np.array([0.0, 0.5]), np.ones((2, 1)),
                                    np.array([0.0, 0.5]), 1.0,
                                    CplusB(BlaschkeProduct((0.0, 0.0))))
        grid = disk_grid(8, 128, 0.995)
        res = tangential_solve(problem, degree, grid, tol=1e-4)
        assert res.minimax.lower_bound <= 0.995 ** 2 * 0.5 / 0.5 ** 2 <= res.grid_norm
        basis = AnalyticBasis(problem.algebra, degree)
        grid_eval = basis.eval_matrix(grid.points)
        assert len(grid) == 1024
        assert res.grid_norm == pytest.approx(
            np.abs(grid_eval @ res.minimax.coefficients[0]).max(), rel=1e-12)
        with pytest.raises(NotConverged) as err:
            minimax_affine(grid_eval, (basis.eval_matrix(problem.points), problem.targets),
                           grid, tol=1e-4, max_rounds=1)
        assert not err.value.best.converged


class TestVerifySolution:
    def test_constant_against_own_problem(self):
        basis = AnalyticBasis(FullHinf(), 0)
        func = VectorAnalyticFunction(basis, [[1.0], [0.0]])
        p = TangentialProblem([0.0], [[1.0, 0.0]], [1.0], 1.0, FullHinf())
        grid = disk_grid(4, 16, 0.9)
        rep = verify_solution(func, p, grid)
        assert rep.max_residual < 1e-14
        assert rep.grid_norm == pytest.approx(1.0)
        assert rep.pick_psd

    def test_schur_solution_end_to_end(self):
        rng = np.random.default_rng(71)
        grid = disk_grid(8, 256, 0.995)
        for _ in range(5):
            pts, vals = random_feasible_scalar(rng, 3)
            f = schur_interpolate(pts, vals, 1.0)
            p = scalar_problem(pts, vals)
            rep = verify_solution(f, p, grid)
            assert rep.max_residual <= 1e-8
            assert rep.pick_min_eig >= -1e-6

    def test_corrupted_solution_reports_residual(self):
        basis = AnalyticBasis(FullHinf(), 1)
        func = VectorAnalyticFunction(basis, [[0.9, 0.0]])
        p = TangentialProblem([0.0], [[1.0]], [1.0], 1.0, FullHinf())
        grid = disk_grid(4, 16, 0.9)
        rep = verify_solution(func, p, grid)
        assert rep.max_residual == pytest.approx(0.1, abs=1e-12)
