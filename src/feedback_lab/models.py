"""System classes and exact one-step dynamics.

Every step operation is a pure function of its arguments; randomness
enters only through caller-owned generators.  A step returns the state
it computes, also one beyond the divergence guard, inf or NaN: the
kernels classify such a state as a blow-up, and replay stores it as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .adversary import RealizedPiecewiseLinear

#: Divergence guard on state magnitude.  Large enough to witness any
#: faster-than-exponential escape.  One more power step from inside the
#: guard can still leave double precision: |y|^5 does above |y| = 4e61,
#: where most b = 5 RLS blow-ups take their last step from.  The power
#: then reads inf (``kernels.power_eval``) and the guard classifies the
#: inf or NaN state that follows.
GUARD = 1e150

#: The largest noise scale a system takes, a factor 1e50 below GUARD: a
#: noise step sqrt(variance), and the greedy opponent's first-step budget
#: ``adversary.OFFSET_BUDGET * w_bar``, stay at or under it, so a blow-up
#: verdict reads the loop's growth and not one noise draw.
NOISE_CAP = 1e100


class ConfigurationError(ValueError):
    """System, controller and adversary pieces do not fit together."""


# ---------------------------------------------------------------------------
# system descriptions


@dataclass(frozen=True)
class PowerGrowthFn:
    """Odd power nonlinearity x -> M*sign(x)*|x|^b with asymptotic gain M."""

    M: float
    b: float

    def __post_init__(self):
        if not 0 < self.M < math.inf:
            raise ValueError("asymptotic gain M must be positive and finite")
        if not 0 <= self.b < math.inf:
            raise ValueError("growth exponent b must be nonnegative and finite")


@dataclass(frozen=True)
class GaussianIID:
    variance: float = 1.0

    def __post_init__(self):
        if not 0 < self.variance < math.inf:
            raise ValueError(
                f"variance must be finite and positive, got {self.variance}")
        if not math.sqrt(self.variance) <= NOISE_CAP:
            raise ConfigurationError(
                f"variance must keep the noise step sqrt(variance) at most "
                f"{NOISE_CAP:g}, got {self.variance}")


@dataclass(frozen=True)
class MartingaleDiffVector:
    """Vector noise with sigma_lo*I <= E[w w'] and E[w'w] <= sigma_hi."""

    sigma_lo: float
    sigma_hi: float
    dim: int

    def __post_init__(self):
        if not (self.sigma_lo > 0 and self.sigma_hi > 0):
            raise ValueError("noise bounds must be positive")
        if self.sigma_lo * self.dim > self.sigma_hi:
            raise ValueError("sigma_lo * dim must not exceed sigma_hi")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")


def _power_positive(adj: np.ndarray, k: int) -> bool:
    """Whether the 0/1 matrix ``adj`` raised to the first power of two at
    or past ``k`` is positive.  Each square is thresholded back to 0/1, so
    its entries are integers at most n, exact in any summation order."""
    m, power = adj.astype(float), 1
    while power < k:
        m, power = np.minimum(m @ m, 1.0), 2 * power
    return bool((m > 0).all())


@dataclass(frozen=True)
class MarkovChain:
    """Finite chain over modes 1..N with row-stochastic transition matrix.

    Irreducibility and aperiodicity are established at construction from
    the positivity pattern A = (P > 0) and recorded as flags; callers
    that require an ergodic chain check them (``MjlsSpec`` does).  Both
    flags are one positivity test on powers of the pattern: the chain is
    irreducible when (I + A)^(N-1) is positive, and irreducible and
    aperiodic (primitive) when A^((N-1)^2 + 1) is, Wielandt's bound on
    the first positive power of a primitive matrix (Horn & Johnson,
    *Matrix Analysis*, section 8.5).  Since no row of A is zero, a
    positive power stays positive at every later power, so squaring past
    the bound decides it.
    """

    P: np.ndarray
    is_irreducible: bool = field(init=False)
    is_aperiodic: bool = field(init=False)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.isfinite(P).all():
            raise ValueError("transition probabilities must be finite")
        if (P < 0).any():
            raise ValueError("transition probabilities must be nonnegative")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("rows must sum to 1 within 1e-12")
        object.__setattr__(self, "P", P)
        adj, n = P > 0, P.shape[0]
        irr = _power_positive(adj | np.eye(n, dtype=bool), n - 1)
        object.__setattr__(self, "is_irreducible", irr)
        object.__setattr__(self, "is_aperiodic",
                           irr and _power_positive(adj, (n - 1) ** 2 + 1))

    @property
    def n_states(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class MjlsSpec:
    """Jump-linear system x' = A(mode) x + B(mode) u + w with hidden mode."""

    chain: MarkovChain
    A: np.ndarray  # (N, n, n)
    B: np.ndarray  # (N, n, m)
    noise: MartingaleDiffVector

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        N = self.chain.n_states
        if A.ndim != 3 or A.shape[0] != N or A.shape[1] != A.shape[2]:
            raise ValueError("A must be (N, n, n)")
        if B.ndim != 3 or B.shape[0] != N or B.shape[1] != A.shape[1]:
            raise ValueError("B must be (N, n, m)")
        if B.shape[2] == 0:
            raise ValueError("B must have at least one input (m >= 1)")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("A and B must be finite")
        if not (self.chain.is_irreducible and self.chain.is_aperiodic):
            raise ConfigurationError(
                "mode chain must be irreducible and aperiodic")
        if self.noise.dim != A.shape[1]:
            raise ValueError("noise dimension must match the state dimension")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n_modes(self) -> int:
        return self.A.shape[0]

    @property
    def n_states(self) -> int:
        return self.A.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[2]


@dataclass(frozen=True)
class SampledSpec:
    """Sampling period and the uncertainty class parameters (slope bound
    L, offset c) for the continuous-time loop."""

    L: float
    c: float
    h: float

    def __post_init__(self):
        if not (self.L > 0 and self.c > 0 and self.h > 0):
            raise ValueError("L, c and h must be positive")
        if not math.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h}")
        # members draw slopes on [-L, L] and offsets on [-c, c]
        for name in ("L", "c"):
            value = getattr(self, name)
            if not math.isfinite(2.0 * value):
                raise ValueError(
                    f"{name} must have a finite span 2{name}, got {value}")


# ---------------------------------------------------------------------------
# step operations


def eval_power(f: PowerGrowthFn, x: float) -> float:
    """Odd extension M*sign(x)*|x|^b; zero at the origin for every b."""
    return kernels.power_eval(f.M, f.b, float(x))


def step_parametric(y: float, theta: float, u: float, w: float,
                    f: PowerGrowthFn) -> float:
    """One step of y' = theta*f(y) + u + w."""
    phi = kernels.power_eval(f.M, f.b, float(y))
    return theta * phi + u + w


def step_nonparametric(y: float, f, u: float, w: float) -> float:
    """One step of y' = f(y) + u + w for a realized f, evaluated as
    ``kernels.nonparam_fixed`` evaluates it (``kernels.mcshane_eval``)."""
    fy = f(float(y))
    return fy + u + w


def require_sampled_member(f, spec: SampledSpec) -> None:
    """Reject an ``f`` outside the sampled class |f(x)| <= L|x| + c.

    A realization's slopes are at most ``f.L``, so once ``f.L <= L`` the
    bound holds at every x exactly when |f(0)| <= c does.
    """
    if not isinstance(f, RealizedPiecewiseLinear):
        raise ValueError(
            f"f must be a RealizedPiecewiseLinear, got {type(f).__name__}")
    if not f.L <= spec.L:
        raise ValueError(f"f.L = {f.L} exceeds the class's L = {spec.L}")
    f0 = f(0.0)
    if not abs(f0) <= spec.c + 1e-9 * max(1.0, spec.c):
        raise ValueError(
            f"|f(0)| = {abs(f0)} exceeds the class's offset c = {spec.c}")


def integrate_sampled(x0: float, f: RealizedPiecewiseLinear, u_const: float,
                      spec: SampledSpec) -> float:
    """State after one sampling period of dx/dt = f(x) + u, zero-order hold.

    The exact flow, in closed form on each linear piece of f
    (``kernels.zoh_flow``, the one the sampled kernels take), through
    each interval's envelope (``f.modes``, upper or lower):
    x* + (x - x*) e^{a t} on a piece of slope a = +-L with equilibrium
    x*.  A state beyond double precision reads +-inf.  ``f`` must
    be realized and inside the declared class
    (:func:`require_sampled_member`).
    """
    require_sampled_member(f, spec)
    return kernels.zoh_flow(*f.table, f.L, float(x0), float(u_const),
                            spec.h)


def step_mjls(x, mode: int, u, w, spec: MjlsSpec):
    """One step x' = A(mode) x + B(mode) u + w; ``mode`` is 1-based."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if not 1 <= mode <= spec.n_modes:
        raise ConfigurationError(f"mode {mode} outside 1..{spec.n_modes}")
    if x.shape != (spec.n_states,) or u.shape != (spec.n_inputs,) \
            or w.shape != (spec.n_states,):
        raise ConfigurationError("state, input or noise dimension mismatch")
    return kernels.mjls_step(spec.A[mode - 1], spec.B[mode - 1], x, u, w)


def markov_next(mode: int, chain: MarkovChain, rng: np.random.Generator) -> int:
    """Sample the successor of ``mode`` (1-based) from its transition row."""
    N = chain.n_states
    if not 1 <= mode <= N:
        raise ValueError(f"mode {mode} outside 1..{N}")
    r = rng.random()
    acc = 0.0
    row = chain.P[mode - 1]
    for j in range(N):
        acc += row[j]
        if r < acc:
            return j + 1
    return N
