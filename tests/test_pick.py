"""Tests for Pick matrices and feasibility verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_min_eig_oracle, random_disk_points, two_node_feasible_oracle
from hardy_interp import (
    BlaschkeProduct,
    CplusB,
    CyclicKernel,
    FullHinf,
    InconsistentNodes,
    KernelMismatch,
    ModelSpaceKernel,
    ModelVector,
    SzegoKernel,
    TangentialProblem,
    Verdict,
    build_pick_matrix,
    feasible_family,
    feasible_single,
    hermitian_min_eig,
    is_psd,
    sample_model_sphere,
    tm_basis,
    unit_constant_projection,
)


def scalar_problem(points, targets, bound=1.0, algebra=None):
    points = np.asarray(points, dtype=complex)
    return TangentialProblem(
        points=points,
        directions=np.ones((points.size, 1), dtype=complex),
        targets=np.asarray(targets, dtype=complex),
        bound=bound,
        algebra=algebra if algebra is not None else FullHinf(),
    )


class TestBuildPickMatrix:
    def test_bound_must_be_positive_and_finite(self):
        for bound in (0.0, -1.0, np.inf, np.nan, 1e300):
            with pytest.raises(ValueError):
                scalar_problem([0.0, 0.5], [0.0, 0.4], bound=bound)

    def test_boundary_one_node(self):
        p = TangentialProblem(points=[0.0], directions=[[1.0, 0.0]],
                              targets=[1.0], bound=1.0, algebra=FullHinf())
        pm = build_pick_matrix(p, SzegoKernel())
        assert pm.matrix.shape == (1, 1)
        assert abs(pm.matrix[0, 0]) < 1e-15

    def test_two_node_schwarz_matrix(self):
        w2 = 0.4
        p = scalar_problem([0.0, 0.5], [0.0, w2])
        pm = build_pick_matrix(p, SzegoKernel())
        expected = np.array([[1.0, 1.0], [1.0, (1 - w2 ** 2) * 4.0 / 3.0]])
        assert np.abs(pm.matrix - expected).max() < 1e-12

    def test_schwarz_psd_threshold_brute_force(self):
        # Schwarz bound: over polynomials with f(0) = 0 and sup norm <= 1,
        # |f(1/2)| cannot exceed 1/2 and f = z attains it
        rng = np.random.default_rng(31)
        circle = np.exp(2j * np.pi * np.arange(512) / 512)
        best = 0.0
        for _ in range(200):
            coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
            vals_bnd = np.polynomial.polynomial.polyval(circle, np.r_[0.0, coeffs])
            scale = np.abs(vals_bnd).max()
            val_half = np.polynomial.polynomial.polyval(0.5, np.r_[0.0, coeffs])
            best = max(best, abs(val_half) / scale)
        assert best <= 0.5 + 1e-12
        assert abs(np.polynomial.polynomial.polyval(0.5, [0.0, 1.0])) == 0.5
        # and the matrix verdict flips exactly across |w2| = 1/2
        for w2, feasible in ((0.4, True), (0.49, True), (0.51, False), (0.6, False)):
            pm = build_pick_matrix(scalar_problem([0.0, 0.5], [0.0, w2]), SzegoKernel())
            assert is_psd(pm.matrix, 1e-10).is_psd == feasible

    def test_homogeneity_in_alpha_and_targets(self):
        p1 = scalar_problem([0.1, -0.3j], [0.2, 0.1 + 0.1j], bound=1.0)
        p2 = scalar_problem([0.1, -0.3j], [0.4, 0.2 + 0.2j], bound=2.0)
        m1 = build_pick_matrix(p1, SzegoKernel()).matrix
        m2 = build_pick_matrix(p2, SzegoKernel()).matrix
        assert np.abs(m2 - 4.0 * m1).max() < 1e-12

    def test_kernel_mismatch(self):
        p = scalar_problem([0.0], [0.5])
        b = BlaschkeProduct((0.0,))
        with pytest.raises(KernelMismatch):
            build_pick_matrix(p, ModelSpaceKernel(b))
        pc = scalar_problem([0.0], [0.5], algebra=CplusB(b))
        with pytest.raises(KernelMismatch):
            build_pick_matrix(pc, SzegoKernel())
        with pytest.raises(KernelMismatch):
            feasible_single(pc)  # no single kernel decides C + B*H-infinity

    def test_duplicate_nodes_contradictory(self):
        p = TangentialProblem(
            points=[0.2, 0.2],
            directions=[[1.0], [1.0]],
            targets=[0.1, 0.3],
            bound=1.0,
            algebra=FullHinf(),
        )
        with pytest.raises(InconsistentNodes):
            build_pick_matrix(p, SzegoKernel())

    def test_duplicate_nodes_consistent(self):
        p = TangentialProblem(
            points=[0.2, 0.2],
            directions=[[1.0, 0.0], [0.0, 1.0]],
            targets=[0.1, 0.3],
            bound=1.0,
            algebra=FullHinf(),
        )
        pm = build_pick_matrix(p, SzegoKernel())
        assert pm.matrix.shape == (2, 2)


class TestFeasibleSingle:
    def test_schwarz_instances(self):
        rep = feasible_single(scalar_problem([0.0, 0.5], [0.0, 0.4]))
        assert rep.verdict is Verdict.FEASIBLE
        rep = feasible_single(scalar_problem([0.0, 0.5], [0.0, 0.6]))
        assert rep.verdict is Verdict.INFEASIBLE
        assert rep.worst_min_eig < 0

    def test_zero_targets_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            pts = random_disk_points(rng, n)
            dirs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            p = TangentialProblem(points=pts, directions=dirs,
                                  targets=np.zeros(n), bound=1.0,
                                  algebra=FullHinf())
            assert feasible_single(p).verdict is Verdict.FEASIBLE

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_two_node_agrees_with_pseudo_hyperbolic(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_disk_points(rng, 2, radius=0.9)
        w1, w2 = random_disk_points(rng, 2, radius=0.95, min_sep=0.0)
        rep = feasible_single(scalar_problem([x1, x2], [w1, w2]))
        oracle = two_node_feasible_oracle(x1, x2, w1, w2)
        if abs(rep.worst_min_eig) > 1e-9:
            assert (rep.verdict is Verdict.FEASIBLE) == oracle


class TestFeasibleFamily:
    def test_degree_one_matches_szego(self):
        b = BlaschkeProduct((0.0,))
        rng = np.random.default_rng(7)
        for _ in range(5):
            pts = random_disk_points(rng, 3)
            w = 0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)) / 2
            single = feasible_single(scalar_problem(pts, w))
            family = feasible_family(scalar_problem(pts, w, algebra=CplusB(b)),
                                     samples=32)
            assert family.verdict == single.verdict

    def test_strictness_against_single_kernel(self):
        # f(0) = 0 forces f = B h in C + z^2 H-infinity, so |f(1/2)| <= 1/4
        # and the family test must reject what the Szego test accepts
        b = BlaschkeProduct((0.0, 0.0))
        single = feasible_single(scalar_problem([0.0, 0.5], [0.0, 0.5]))
        assert single.verdict is Verdict.FEASIBLE
        fam = feasible_family(scalar_problem([0.0, 0.5], [0.0, 0.5],
                                             algebra=CplusB(b)), samples=256)
        assert fam.verdict is Verdict.INFEASIBLE
        assert fam.worst_parameter is not None
        assert fam.worst_min_eig < -1e-3

    def test_zero_targets_feasible(self):
        b = BlaschkeProduct((0.0, 0.0))
        p = scalar_problem([0.0, 0.5], [0.0, 0.0], algebra=CplusB(b))
        assert feasible_family(p, samples=64).verdict is Verdict.FEASIBLE

    def test_requires_cplusb(self):
        with pytest.raises(KernelMismatch):
            feasible_family(scalar_problem([0.0], [0.1]), samples=4)

    def test_refinement_never_raises_minimum(self):
        b = BlaschkeProduct((0.0, 0.0))
        p = scalar_problem([0.0, 0.5], [0.0, 0.5], algebra=CplusB(b))
        # the plain sweep minimum over the vectors feasible_family draws
        coarse = min(hermitian_min_eig(build_pick_matrix(p, CyclicKernel(b, v)).matrix)
                     for v in sample_model_sphere(b, 64, seed=0))
        refined = feasible_family(p, samples=64, seed=0)
        assert refined.worst_min_eig <= coarse + 1e-12

    def test_refine_reaches_a_flat_minimum(self):
        # f(0) = 0, f(x) = w in C + z^3 H-infinity with alpha above
        # |w| / |x|^3: the family minimum is exactly 0, attained where
        # v(0) = 0, and alternating steps alone approach it only linearly
        b = BlaschkeProduct((0.0, 0.0, 0.0))
        x = 0.45 * np.exp(0.3j)
        p = scalar_problem([0.0, x], [0.0, 0.5 * abs(x) ** 3], bound=0.6,
                           algebra=CplusB(b))
        fam = feasible_family(p)
        assert fam.verdict is Verdict.FEASIBLE
        assert abs(fam.worst_min_eig) <= 1e-14


def independent_sweep_min(problem, count=4096, seed=99, confirm=8):
    """Smallest Pick eigenvalue over ``count`` random unit model vectors,
    each Pick matrix assembled through CyclicKernel.gram; numpy's eigvalsh
    picks the ``confirm`` lowest members and the char-poly oracle evaluates
    them."""
    product = problem.algebra.product
    basis = tm_basis(product)
    rng = np.random.default_rng(seed)
    d = basis.dimension
    vecs = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    mats = np.array([
        build_pick_matrix(problem, CyclicKernel(product, ModelVector(basis, c))).matrix
        for c in vecs
    ])
    lows = np.argsort(np.linalg.eigvalsh(mats)[:, 0])[:confirm]
    return min(charpoly_min_eig_oracle(mats[k]) for k in lows)


class TestFamilyAgainstIndependentSweep:
    def check(self, problem):
        family = feasible_family(problem)
        reference = independent_sweep_min(problem)
        assert family.verdict is Verdict.INFEASIBLE
        assert family.worst_min_eig <= reference + 1e-10
        witness = CyclicKernel(problem.algebra.product, family.worst_parameter)
        own = charpoly_min_eig_oracle(build_pick_matrix(problem, witness).matrix)
        assert family.worst_min_eig == pytest.approx(own, abs=1e-9)

    def test_criterion_four_data(self):
        b = BlaschkeProduct((0.0, 0.0))
        self.check(scalar_problem([0.0, 0.5], [0.0, 0.5], algebra=CplusB(b)))

    def test_six_nodes_degree_three(self):
        rng = np.random.default_rng(61)
        b3 = BlaschkeProduct((0.3 + 0.3j, -0.5, 0.0))
        pts = random_disk_points(rng, 6, radius=0.8, min_sep=0.2)
        dirs = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        w = 0.5 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        self.check(TangentialProblem(pts, dirs, w, 1.0, CplusB(b3)))


class TestScaledSingleKernel:
    def test_projection_of_one(self):
        b = BlaschkeProduct((0.3, -0.2j))
        v = unit_constant_projection(b)
        assert v.norm == pytest.approx(1.0, abs=1e-12)
        # the projection is (1 - conj(B(0)) B) / sqrt(1 - |B(0)|^2)
        b0 = b(0.0)
        z = np.array([0.1 + 0.4j, -0.5, 0.3j])
        expected = (1.0 - np.conj(b0) * b(z)) / np.sqrt(1.0 - abs(b0) ** 2)
        assert np.abs(v.evaluate(z) - expected).max() < 1e-12


class TestInvariances:
    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(11)
        pts = random_disk_points(rng, 4)
        dirs = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        eig_small = hermitian_min_eig(build_pick_matrix(
            TangentialProblem(pts, dirs, w, 1.0, FullHinf()), SzegoKernel()).matrix)
        eig_large = hermitian_min_eig(build_pick_matrix(
            TangentialProblem(pts, dirs, w, 2.0, FullHinf()), SzegoKernel()).matrix)
        assert eig_large >= eig_small - 1e-12

    def test_unitary_direction_invariance(self):
        rng = np.random.default_rng(29)
        pts = random_disk_points(rng, 3)
        dirs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        w = 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m1 = build_pick_matrix(
            TangentialProblem(pts, dirs, w, 1.0, FullHinf()), SzegoKernel()).matrix
        m2 = build_pick_matrix(
            TangentialProblem(pts, dirs @ q.T, w, 1.0, FullHinf()), SzegoKernel()).matrix
        assert np.abs(m1 - m2).max() < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_phase_invariance_of_targets(self, angle):
        rng = np.random.default_rng(37)
        pts = random_disk_points(rng, 3)
        dirs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        w = 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        theta = np.exp(1j * angle)
        m1 = build_pick_matrix(
            TangentialProblem(pts, dirs, w, 1.0, FullHinf()), SzegoKernel()).matrix
        m2 = build_pick_matrix(
            TangentialProblem(pts, dirs, theta * w, 1.0, FullHinf()), SzegoKernel()).matrix
        assert np.abs(m1 - m2).max() < 1e-12

    def test_necessity_small_scale(self):
        # functions built in the algebra with sup norm alpha never produce a
        # Pick matrix with a significantly negative eigenvalue
        rng = np.random.default_rng(41)
        b = BlaschkeProduct((0.0, 0.0))
        algebra = CplusB(b)
        from hardy_interp import AnalyticBasis, VectorAnalyticFunction, CyclicKernel
        from hardy_interp import sample_model_sphere

        circle = np.exp(2j * np.pi * np.arange(2048) / 2048)
        for _ in range(5):
            coeffs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
            func = VectorAnalyticFunction(AnalyticBasis(algebra, 3), coeffs)
            sup = np.sqrt(np.sum(np.abs(func.values(circle)) ** 2, axis=1)).max()
            alpha = float(sup) * (1.0 + 1e-4)
            pts = random_disk_points(rng, 4)
            dirs = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            fv = func.values(pts)
            w = np.sum(fv * np.conj(dirs), axis=1)
            problem = TangentialProblem(pts, dirs, w, alpha, algebra)
            for v in sample_model_sphere(b, 25, seed=1):
                from hardy_interp import build_pick_matrix as bpm

                pm = bpm(problem, CyclicKernel(b, v))
                assert hermitian_min_eig(pm.matrix) >= -1e-6
