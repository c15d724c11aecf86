"""Tests for the Toeplitz-corona checks and solutions."""

import numpy as np
import pytest

from conftest import random_disk_points
from hardy_interp import (
    AnalyticBasis,
    BlaschkeProduct,
    CoronaProblem,
    CplusB,
    FullHinf,
    HypothesisInsufficientAtScale,
    VectorAnalyticFunction,
    corona_check,
    corona_solve,
    disk_grid,
)

NODES = np.array([0.0, 0.5, -0.5, 0.5j, -0.5j])
GRID = disk_grid(8, 64, 0.995)


def hinf_function(rows, degree):
    return VectorAnalyticFunction(AnalyticBasis(FullHinf(), degree), rows)


def pair_z_half():
    # F = (z, 1/2)
    return hinf_function([[0.0, 1.0], [0.5, 0.0]], 1)


class TestCoronaCheck:
    def test_delta_must_be_positive_and_finite(self):
        for delta in (0.0, -1.0, np.inf, np.nan, 1e300):
            with pytest.raises(ValueError):
                CoronaProblem(pair_z_half(), delta)

    def test_unit_row_passes_everything(self):
        func = hinf_function([[1.0], [0.0]], 0)
        problem = CoronaProblem(func, 1.0)
        rng = np.random.default_rng(5)
        sets = [random_disk_points(rng, int(rng.integers(1, 5))) for _ in range(10)]
        report = corona_check(problem, sets)
        assert report.passed
        assert abs(report.min_eig) < 1e-12

    def test_fails_at_origin_for_large_delta(self):
        problem = CoronaProblem(pair_z_half(), 0.6)
        report = corona_check(problem, [np.array([0.0])])
        assert not report.passed
        assert report.min_eig == pytest.approx(-0.11, abs=1e-12)
        assert report.worst_point_set is not None

    def test_passes_at_matching_delta(self):
        problem = CoronaProblem(pair_z_half(), 0.5)
        rng = np.random.default_rng(7)
        sets = [random_disk_points(rng, int(rng.integers(1, 6))) for _ in range(50)]
        report = corona_check(problem, sets)
        assert report.passed

    def test_negative_tol_rejected(self):
        problem = CoronaProblem(hinf_function([[1.0, 0.0]], 1), 0.5)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            corona_check(problem, [NODES], tol=-1.0)

    def test_cplusb_family_sweep(self):
        b = BlaschkeProduct((0.0, 0.0))
        basis = AnalyticBasis(CplusB(b), 1)
        # F = (1, z^2) in C + z^2 H-infinity; |F|^2 = 1 + |z|^4 >= 1
        func = VectorAnalyticFunction(basis, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        problem = CoronaProblem(func, 0.9)
        rng = np.random.default_rng(9)
        sets = [random_disk_points(rng, 3) for _ in range(5)]
        report = corona_check(problem, sets, samples=64)
        assert report.passed
        assert report.kernels_tested == 5 * 64

    def test_cplusb_sweep_drawn_once_per_check(self, monkeypatch):
        import hardy_interp.corona as corona_module
        from hardy_interp import family_minimum
        from hardy_interp.rkhs import _sphere_rows

        draws = []

        def counting(product, count, seed):
            draws.append((count, seed))
            return _sphere_rows(product, count, seed)

        monkeypatch.setattr(corona_module, "_sphere_rows", counting)
        b = BlaschkeProduct((0.0, 0.0))
        func = VectorAnalyticFunction(AnalyticBasis(CplusB(b), 1),
                                      [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        problem = CoronaProblem(func, 0.9)
        sets = [np.array([0.1, 0.5j]), np.array([-0.3, 0.2 + 0.2j, 0.6]), np.array([0.0])]
        report = corona_check(problem, sets, samples=32, seed=3)
        assert draws == [(32, 3)]
        assert report.passed and report.sets_tested == 3
        # the same minimum as a fresh draw of the seeded sweep for every set
        sweep = _sphere_rows(b, 32, 3)
        lams = []
        for pts in sets:
            fv = func.values(pts)
            inner = fv @ fv.conj().T - 0.81
            lams.append(family_minimum(b, pts, 0.5 * (inner + inner.conj().T), sweep)[0])
        assert report.min_eig == min(lams)

    def test_cplusb_refine_finds_violation_the_sweep_misses(self):
        # the 200-vector sweep alone gives min eig +7.2e-5 on this set; the
        # refine from its worst samples reaches a negative eigenvalue
        b = BlaschkeProduct((0.0, 0.0))
        basis = AnalyticBasis(CplusB(b), 1)
        func = VectorAnalyticFunction(basis, [[-0.5, -0.75, -0.75], [-0.75, -0.5, 1.25]])
        delta = 0.513
        pts = np.array([0.0, 0.5, -0.5j])
        report = corona_check(CoronaProblem(func, delta), [pts])
        assert not report.passed
        assert report.min_eig < -1e-8
        assert report.kernels_tested == 200
        c = report.worst_parameter.coefficients
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        fv = func.values(pts)
        v = c[0] + c[1] * pts   # the model space of z^2 has basis 1, z
        gram = np.outer(v, np.conj(v)) + np.outer(pts ** 2, np.conj(pts ** 2)) / (
            1.0 - np.outer(pts, np.conj(pts)))
        q = (fv @ fv.conj().T - delta ** 2) * gram
        own = np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0]
        assert abs(own - report.min_eig) <= 1e-10


class TestCoronaSolve:
    def test_scalar_unit(self):
        func = hinf_function([[1.0]], 0)
        problem = CoronaProblem(func, 1.0)
        solution, report = corona_solve(problem, np.array([0.0, 0.3]), 2, GRID)
        assert report.node_residual <= 1e-10
        assert report.solution_norm == pytest.approx(1.0, abs=1e-6)

    def test_pair_z_half(self):
        problem = CoronaProblem(pair_z_half(), 0.5)
        solution, report = corona_solve(problem, NODES, 6, GRID, tol=1e-6)
        assert report.node_residual <= 1e-8
        assert report.solution_norm <= 2.0 + 1e-3
        # G = (0, 2) is the exact optimum here
        vals = solution.values(np.array([0.1j, -0.2]))
        assert np.abs(vals[:, 0]).max() < 1e-6
        assert np.abs(vals[:, 1] - 2.0).max() < 1e-6

    def test_grid_minimum_delta_oracle(self):
        # F = (z, 1 - z^2) scaled to unit grid sup; delta is the grid
        # minimum of ||F||.  The pointwise lower bound is weaker than the
        # operator hypothesis, so the node set must be one on which the
        # matrix condition holds.
        basis = AnalyticBasis(FullHinf(), 2)
        raw = VectorAnalyticFunction(basis, [[0.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
        sup = raw.grid_norm(GRID.points)
        func = raw.scaled(1.0 / sup)
        delta = float(np.sqrt(np.sum(np.abs(func.values(GRID.points)) ** 2, axis=1)).min())
        nodes = np.array([0.43 - 0.224j, 0.073 + 0.656j, 0.203 - 0.601j])
        problem = CoronaProblem(func, delta)
        assert corona_check(problem, [nodes]).passed
        solution, report = corona_solve(problem, nodes, 8, GRID, tol=1e-5)
        assert report.node_residual <= 1e-6
        assert report.grid_residual is not None

    def test_scaling_covariance(self):
        lam = 1.7
        base = CoronaProblem(pair_z_half(), 0.5)
        scaled = CoronaProblem(pair_z_half().scaled(lam), lam * 0.5)
        g1, r1 = corona_solve(base, NODES, 5, GRID, tol=1e-7)
        g2, r2 = corona_solve(scaled, NODES, 5, GRID, tol=1e-7)
        v1 = g1.values(NODES)
        v2 = g2.values(NODES)
        assert np.abs(v2 - v1 / lam).max() < 1e-6
        assert abs(r1.node_residual - r2.node_residual) < 1e-8

    def test_node_set_monotonicity(self):
        problem = CoronaProblem(pair_z_half(), 0.5)
        chains = [NODES[:1], NODES[:3], NODES]
        norms = [corona_solve(problem, c, 5, GRID, tol=1e-7)[1].solution_norm
                 for c in chains]
        assert norms[0] <= norms[1] + 1e-6
        assert norms[1] <= norms[2] + 1e-6

    def test_necessity_loop(self):
        problem = CoronaProblem(pair_z_half(), 0.5)
        solution, report = corona_solve(problem, NODES, 6, GRID, tol=1e-6)
        loop = corona_check(
            CoronaProblem(pair_z_half(), 1.0 / report.solution_norm),
            [NODES], tol=1e-6)
        assert loop.passed

    def test_hypothesis_failure_raises(self):
        problem = CoronaProblem(pair_z_half(), 0.6)
        with pytest.raises(HypothesisInsufficientAtScale):
            corona_solve(problem, NODES, 6, GRID)

    def test_constant_row_at_degree_one(self):
        # F = (1, 0): G = (1, 0) meets F.G = 1 at three nodes at degree 1,
        # although degree 1 cannot separate three classes of nodes
        problem = CoronaProblem(hinf_function([[1.0], [0.0]], 0), 0.9)
        solution, report = corona_solve(problem, NODES[:3], 1, GRID)
        assert report.passed and report.node_residual <= 1e-10
        assert np.abs(solution.coefficients - [[1.0, 0.0], [0.0, 0.0]]).max() < 1e-8

    def test_no_degree_one_solution_fails(self):
        # F = 1 + z^2/2 is 1, 9/8, 9/8 at 0, +-1/2: G = 1/F there is even and
        # not constant, so no degree-1 G meets the nodes
        problem = CoronaProblem(hinf_function([[1.0, 0.0, 0.5]], 2), 0.4)
        assert corona_check(problem, [NODES[:3]]).passed
        with pytest.raises(HypothesisInsufficientAtScale, match="tangential step"):
            corona_solve(problem, NODES[:3], 1, GRID)

    def test_constrained_algebra_end_to_end(self):
        # F = (1, z^2) in C + z^2 H-infinity; ||F(z)||^2 = 1 + |z|^4 >= 1,
        # and G = (1, 0) solves F.G = 1 with norm 1, so delta = 0.9 works
        b = BlaschkeProduct((0.0, 0.0))
        basis = AnalyticBasis(CplusB(b), 0)
        func = VectorAnalyticFunction(basis, [[1.0, 0.0], [0.0, 1.0]])
        problem = CoronaProblem(func, 0.9)
        nodes = np.array([0.0, 0.3, -0.2 + 0.4j])
        solution, report = corona_solve(problem, nodes, degree=4, grid=GRID,
                                        tol=1e-6, samples=64)
        assert solution.algebra == CplusB(b)
        assert report.node_residual <= 1e-8
        assert report.solution_norm <= (1.0 / 0.9) * (1.0 + 1e-3)
