"""Coupled algebraic equations for jump-linear stabilizability.

A solution is N positive-definite matrices M_i satisfying, for each mode,

    sum_j A_j' p_ij M_j A_j
      - (sum_j A_j' p_ij M_j B_j)(sum_j B_j' p_ij M_j B_j)^+
        (sum_j B_j' p_ij M_j A_j)  - M_i = -I,

with (.)^+ the Moore-Penrose inverse.  The solver iterates the
fixed-point map from M_i = I; the loop lives in ``kernels``, on nested
lists of Python floats, each matrix entry one left-to-right dot in the
order of the expression above.  It reads the columns of p_ij M_j as
its rows, which keeps the bits because every iterate is exactly
symmetric (0.5 (X + X') from I, and IEEE addition commutes).  The
pseudo-inverse is in closed form at one input and by SVD beyond, and
the whole map is in closed scalar form at one state and one input.  The
kernel also returns the feedback gains K_i = S_bb^+ S_ab' of the
converged iterate, formed from the same dots, so from two states on the
gains do not go through BLAS products.
``riccati_rhs`` and ``riccati_residual`` re-evaluate the map with numpy
matrix products and ``pseudoinverse``, independent of the solve path,
so a claimed solution can always be checked against a second route: for
scalar systems the two give the same bits, for larger ones they agree
to rounding.  A solution computes its residual on the first read of
``RiccatiSolution.residual``, not in the solve: no verdict reads it.  A
NaN defect (the map's inf - inf) counts as infinite, as a NaN iterate
does in the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import kernels
from .models import MjlsSpec

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
DIVERGENCE_GUARD = 1e12
SVD_RTOL = 1e-10


class SolveStatus(Enum):
    SOLVED = "solved"
    NO_SOLUTION = "no-solution"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RiccatiSolution:
    """Fixed point M_1..M_N with the induced feedback gains K_1..K_N.

    ``residual``, the fixed point's ``riccati_residual`` against the spec
    it solves (inf where a defect is NaN), is computed on its first read:
    no verdict reads it.
    """

    Ms: np.ndarray  # (N, n, n)
    Ks: np.ndarray  # (N, m, n)
    iterations: int
    _spec: MjlsSpec = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        return riccati_residual(self.Ms, self._spec)


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    solution: RiccatiSolution | None
    iterations: int
    delta: float


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose inverse by SVD, truncating below 1e-10 * sigma_max.

    A matrix holding NaN raises ``LinAlgError``, as the SVD does; one
    holding inf (and no NaN) gives the zero matrix, as the SVD's NaN
    singular values truncate to.  Neither reaches LAPACK, which may never
    return on a non-finite matrix.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.isfinite(A).all():
        if np.isnan(A).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return np.zeros((A.shape[1], A.shape[0]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[1], A.shape[0]))
    keep = s > SVD_RTOL * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (Vt.T * inv) @ U.T


def _mode_sums(Ms, spec: MjlsSpec, i0: int):
    A, B, P = spec.A, spec.B, spec.chain.P
    n, m = spec.n_states, spec.n_inputs
    S_aa = np.zeros((n, n))
    S_ab = np.zeros((n, m))
    S_bb = np.zeros((m, m))
    for j in range(spec.n_modes):
        pm = P[i0, j] * Ms[j]
        S_aa += A[j].T @ pm @ A[j]
        S_ab += A[j].T @ pm @ B[j]
        S_bb += B[j].T @ pm @ B[j]
    return S_aa, S_ab, S_bb


def riccati_rhs(Ms, spec: MjlsSpec, mode: int) -> np.ndarray:
    """Fixed-point map T_i(M): the displayed expression plus the identity.

    ``mode`` is 1-based; the output is symmetrized.
    """
    if not 1 <= mode <= spec.n_modes:
        raise ValueError(f"mode {mode} outside 1..{spec.n_modes}")
    Ms = np.asarray(Ms, dtype=float)
    S_aa, S_ab, S_bb = _mode_sums(Ms, spec, mode - 1)
    X = S_aa - S_ab @ pseudoinverse(S_bb) @ S_ab.T + np.eye(spec.n_states)
    return 0.5 * (X + X.T)


def solve_coupled_riccati(spec: MjlsSpec, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate M_i <- T_i(M) from the identity until it settles or escapes.

    Convergence (max elementwise change below ``tol``) yields a solution
    with gains K_i = (sum_j B_j' p_ij M_j B_j)^+ (sum_j B_j' p_ij M_j A_j).
    Iterate norms beyond 1e12 or an iterate that overflows to NaN yield
    NO_SOLUTION.  At the iteration cap, so does a step (the max
    elementwise change) that grew on each of the last min(100,
    ``max_iter`` - 1) > 0 iterations; anything else there, such as a slow
    but shrinking step, is reported INDETERMINATE, never silently mapped
    to NO_SOLUTION.  So is a convergence whose sum_j B_j' p_ij M_j B_j
    overflows in some mode: its pseudo-inverse drops the overflowed
    inputs, so the iterate need not be the exact map's fixed point, and
    no gains are formed.  The solve keeps no per-iteration history.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tolerance must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    Ms, status_code, iters, delta, Ks = kernels.riccati_solve(
        spec.A, spec.B, spec.chain.P, tol, max_iter, DIVERGENCE_GUARD,
        SVD_RTOL)
    status = list(SolveStatus)[status_code]
    if status is not SolveStatus.SOLVED:
        return SolveResult(status, None, iters, float(delta))
    sol = RiccatiSolution(Ms=Ms, Ks=Ks, iterations=iters, _spec=spec)
    return SolveResult(status, sol, iters, float(delta))


def riccati_residual(sol, spec: MjlsSpec) -> float:
    """Max elementwise defect of the fixed point, solve-path independent.

    A NaN defect (the map's inf - inf at an iterate that overflows it)
    counts as infinite, as a NaN iterate does in the solve.
    """
    Ms = sol.Ms if isinstance(sol, RiccatiSolution) else np.asarray(sol, float)
    worst = 0.0
    for i in range(spec.n_modes):
        d = float(np.max(np.abs(riccati_rhs(Ms, spec, i + 1) - Ms[i])))
        worst = max(worst, d if d == d else math.inf)
    return worst
