import math
import tracemalloc

import numpy as np
import pytest

from feedback_lab import (MarkovChain, MartingaleDiffVector, MjlsSpec,
                          Regime, SolveStatus,
                          pseudoinverse, riccati_residual, riccati_rhs,
                          kernels, scalar_mjls_stabilizable,
                          solve_coupled_riccati)
from feedback_lab.riccati import SVD_RTOL


def scalar_two_mode(a1, a2, p12, b1=1.0, b2=1.0):
    chain = MarkovChain(np.array([[1 - p12, p12], [p12, 1 - p12]]))
    return MjlsSpec(chain=chain,
                    A=np.array([[[a1]], [[a2]]], dtype=float),
                    B=np.array([[[b1]], [[b2]]], dtype=float),
                    noise=MartingaleDiffVector(1.0, 1.0, 1))


def golden_spec():
    # the one-state spec of tests/test_golden.py; the solve settles in 90
    # iterations
    chain = MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))
    return MjlsSpec(chain=chain, A=np.array([[[0.5]], [[1.8]]]),
                    B=np.array([[[1.0]], [[0.6]]]),
                    noise=MartingaleDiffVector(1.0, 1.0, 1))


def single_mode(a, b=1.0):
    chain = MarkovChain(np.array([[1.0]]))
    return MjlsSpec(chain=chain, A=np.array([[[a]]], dtype=float),
                    B=np.array([[[b]]], dtype=float),
                    noise=MartingaleDiffVector(1.0, 1.0, 1))


class TestPseudoinverse:
    def test_identity(self):
        assert np.array_equal(pseudoinverse(np.eye(3)), np.eye(3))

    def test_zero_matrix(self):
        Z = np.zeros((2, 3))
        out = pseudoinverse(Z)
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_rank_deficient_diagonal(self):
        out = pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_penrose_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            r = int(rng.integers(1, min(rows, cols) + 1))
            A = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
            Ap = pseudoinverse(A)
            assert np.allclose(A @ Ap @ A, A, atol=1e-8)
            assert np.allclose(Ap @ A @ Ap, Ap, atol=1e-8)
            assert np.allclose((A @ Ap).T, A @ Ap, atol=1e-8)
            assert np.allclose((Ap @ A).T, Ap @ A, atol=1e-8)


    def test_non_finite_matrices_never_reach_lapack(self):
        # LAPACK's SVD can run forever on a matrix holding inf: both
        # routes give 0 for inf without NaN and raise for NaN, as the
        # one-input closed form does, without calling it
        for S in ([[np.inf, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, -np.inf]],
                  [[np.inf, -np.inf], [-np.inf, np.inf]]):
            assert kernels._svd_pinv(S, SVD_RTOL) == [[0.0, 0.0], [0.0, 0.0]]
            assert np.array_equal(pseudoinverse(S), np.zeros((2, 2)))
        assert np.array_equal(pseudoinverse([[1.0, np.inf, 0.0]]),
                              np.zeros((3, 1)))
        for S in ([[math.nan, 1.0], [1.0, 2.0]],
                  [[np.inf, 0.0], [0.0, math.nan]]):
            with pytest.raises(np.linalg.LinAlgError):
                kernels._svd_pinv(S, SVD_RTOL)
            with pytest.raises(np.linalg.LinAlgError):
                pseudoinverse(S)
        assert kernels._pinv1(np.inf, SVD_RTOL) == 0.0


class TestRiccatiRhs:
    def test_scalar_full_actuation_collapses_to_identity(self):
        spec = single_mode(a=3.0)
        for mu in (0.5, 1.0, 7.0):
            out = riccati_rhs(np.array([[[mu]]]), spec, 1)
            assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_dynamics(self):
        spec = scalar_two_mode(0.0, 0.0, 0.3)
        Ms = np.array([[[2.0]], [[5.0]]])
        for i in (1, 2):
            assert riccati_rhs(Ms, spec, i)[0, 0] == pytest.approx(1.0)

    def test_zero_actuation_keeps_full_quadratic(self):
        spec = scalar_two_mode(0.5, 1.5, 0.4, b1=0.0, b2=0.0)
        Ms = np.array([[[2.0]], [[3.0]]])
        P = spec.chain.P
        for i in (1, 2):
            expect = (P[i - 1, 0] * 2.0 * 0.25 + P[i - 1, 1] * 3.0 * 2.25) + 1.0
            assert riccati_rhs(Ms, spec, i)[0, 0] == pytest.approx(expect)

    def test_symmetry_and_psd_along_iteration(self):
        rng = np.random.default_rng(3)
        chain = MarkovChain(np.array([[0.7, 0.3], [0.2, 0.8]]))
        spec = MjlsSpec(chain=chain, A=rng.standard_normal((2, 2, 2)) * 0.6,
                        B=rng.standard_normal((2, 2, 1)),
                        noise=MartingaleDiffVector(1.0, 2.0, 2))
        Ms = np.stack([np.eye(2), np.eye(2)])
        for _ in range(30):
            Ms = np.stack([riccati_rhs(Ms, spec, 1), riccati_rhs(Ms, spec, 2)])
            for M in Ms:
                assert np.max(np.abs(M - M.T)) <= 1e-10
                assert np.min(np.linalg.eigvalsh(M)) >= -1e-10


class TestSolver:
    def test_single_mode_immediate_fixed_point(self):
        res = solve_coupled_riccati(single_mode(a=2.5))
        assert res.status is SolveStatus.SOLVED
        assert res.iterations == 1
        assert res.solution.Ms[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        # gain equals the mode dynamics under full actuation
        assert res.solution.Ks[0, 0, 0] == pytest.approx(2.5, abs=1e-9)
        assert res.solution.residual <= 1e-12

    def test_stabilizable_two_mode(self):
        res = solve_coupled_riccati(scalar_two_mode(0.0, 1.9, 0.5))
        assert res.status is SolveStatus.SOLVED
        assert res.solution.residual <= 10 * 1e-10
        for M in res.solution.Ms:
            assert np.min(np.linalg.eigvalsh(M)) > 0

    def test_unstabilizable_two_mode(self):
        res = solve_coupled_riccati(scalar_two_mode(0.0, 2.1, 0.5))
        assert res.status is SolveStatus.NO_SOLUTION
        assert res.solution is None

    def test_residual_grows_with_perturbation(self):
        spec = single_mode(a=1.0)
        prev = 0.0
        for delta in (1e-6, 1e-4, 1e-2, 1.0):
            r = riccati_residual(np.array([[[1.0 + delta]]]), spec)
            assert r > prev
            prev = r

    def test_small_grid_matches_closed_form(self):
        for delta in np.linspace(0.2, 2.8, 5):
            for p12 in np.linspace(0.15, 0.85, 5):
                cp = delta**2 * (1 - p12) * p12
                if abs(cp - 1.0) < 0.05:
                    continue
                res = solve_coupled_riccati(scalar_two_mode(0.0, delta, p12))
                verdict = scalar_mjls_stabilizable(0.0, delta, p12)
                if verdict.regime is Regime.STABILIZABLE:
                    assert res.status is SolveStatus.SOLVED, (delta, p12)
                else:
                    assert res.status is SolveStatus.NO_SOLUTION, (delta, p12)

    def test_memory_does_not_grow_with_the_cap(self):
        tracemalloc.start()
        try:
            res = solve_coupled_riccati(golden_spec(), max_iter=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status is SolveStatus.SOLVED and res.iterations == 90
        assert peak < 1_000_000

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
    def test_cap_before_convergence_is_indeterminate(self, max_iter):
        # the iterate's norm rises from M = I while its step shrinks
        res = solve_coupled_riccati(golden_spec(), max_iter=max_iter)
        assert res.status is SolveStatus.INDETERMINATE
        assert res.iterations == max_iter

    @pytest.mark.parametrize("cp, status", [
        (0.999, SolveStatus.INDETERMINATE),
        (1.001, SolveStatus.NO_SOLUTION),
    ])
    def test_cap_verdict_near_the_boundary(self, cp, status):
        # delta^2 (1 - p) p = cp at p = 1/2: stabilizable below 1, and the
        # iterate is still moving at the default cap on both sides
        delta = 2.0 * math.sqrt(cp)
        res = solve_coupled_riccati(scalar_two_mode(0.0, delta, 0.5))
        assert res.iterations == 10000
        assert res.status is status

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            solve_coupled_riccati(single_mode(1.0), tol=0.0)
        for tol in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                solve_coupled_riccati(single_mode(1.0), tol=tol)
        with pytest.raises(ValueError):
            solve_coupled_riccati(single_mode(1.0), max_iter=0)
