"""Feedback laws.  Each consumes only observations available at decision
time; histories are append-only so causality is structural."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MjlsSpec, SampledSpec

#: Information start of the least-squares estimate: the prior-matched
#: variant, s0 = 1 with theta0 at the prior mean.
RLS_S0 = 1.0

#: Input cap multiplier for the sampled-data certainty-equivalence law.
SAMPLED_CLIP_KAPPA = 4.0


@dataclass(frozen=True)
class RlsState:
    """Scalar least-squares estimate with accumulated information s."""

    theta_hat: float
    s: float
    t: int = 0

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("information s must stay positive")


def make_rls(theta0: float, s0: float = RLS_S0) -> RlsState:
    if not 0 < s0 < np.inf:
        raise ValueError("information start s0 must be finite and positive")
    return RlsState(theta_hat=float(theta0), s=float(s0), t=0)


def rls_update(state: RlsState, phi: float, z: float) -> RlsState:
    """Fold in one regression pair z = theta*phi + noise.

    s' = s + phi^2 and theta' = theta + phi (z - theta phi) / s'.  A zero
    regressor carries no information and only advances the clock.
    """
    s1 = state.s + phi * phi
    th1 = state.theta_hat + phi * (z - state.theta_hat * phi) / s1
    return RlsState(theta_hat=th1, s=s1, t=state.t + 1)


def adaptive_mv_control(state: RlsState, fy: float) -> float:
    """Minimum-variance input -theta_hat * f(y)."""
    return -state.theta_hat * fy


class NnHistory:
    """Append-only record of transitions (y_i, u_i, y_{i+1}) with running
    output extremes."""

    def __init__(self):
        self.ys: list[float] = []
        self.us: list[float] = []
        self.ynexts: list[float] = []
        self._bmin = np.inf
        self._bmax = -np.inf

    def __len__(self) -> int:
        return len(self.ys)

    def append(self, y: float, u: float, y_next: float) -> None:
        self.ys.append(float(y))
        self.us.append(float(u))
        self.ynexts.append(float(y_next))
        if y < self._bmin:
            self._bmin = y
        if y > self._bmax:
            self._bmax = y

    def bounds_including(self, y: float) -> tuple[float, float]:
        """Output extremes over stored y_i together with the current y."""
        return min(self._bmin, y), max(self._bmax, y)


def nn_estimate(hist: NnHistory, y: float) -> tuple[float, float]:
    """Nearest-neighbor estimate of the unknown map at y.

    Picks i* minimizing |y - y_i| (ties to the smallest index) and reads
    off fhat = y_{i*+1} - u_{i*}; also returns the gap |y - y_{i*}|.
    """
    if len(hist) == 0:
        raise ValueError("nearest-neighbor estimate needs a nonempty history")
    best = np.inf
    bi = 0
    for i, yi in enumerate(hist.ys):
        d = abs(y - yi)
        if d < best:
            best = d
            bi = i
    return hist.ynexts[bi] - hist.us[bi], best


def switching_control(hist: NnHistory, y: float, eps: float) -> float:
    """Switch between range-centering and tracking on the neighbor gap.

    Far from every recorded output (gap > eps) the input cancels the
    estimate and steers to the midpoint of the observed range; close to
    a recorded output it tracks the reference 0 instead.  An empty
    history is the bootstrap step and returns zero.
    """
    if eps <= 0:
        raise ValueError("switching threshold eps must be positive")
    if len(hist) == 0:
        return 0.0
    fhat, gap = nn_estimate(hist, y)
    bmin, bmax = hist.bounds_including(y)
    if gap > eps:
        return -fhat + 0.5 * (bmin + bmax)
    return 0.0 - fhat


def sampled_control(samples, x: float, spec: SampledSpec) -> float:
    """Certainty-equivalence law for the sampled loop.

    Estimates the drift at x by nearest neighbor over past sample points
    through the discrete surrogate (x_{k+1} - x_k)/h - u_k, commands
    u = -estimate - x/h, and clips to |u| <= kappa (L|x| + c) with
    kappa = ``SAMPLED_CLIP_KAPPA``.  Empty sample list is the bootstrap
    and returns zero.
    """
    samples = list(samples)
    if not samples:
        return 0.0
    best = np.inf
    bi = 0
    for i, (xk, _, _) in enumerate(samples):
        d = abs(x - xk)
        if d < best:
            best = d
            bi = i
    xk, uk, xk1 = samples[bi]
    ftilde = (xk1 - xk) / spec.h - uk
    u = -ftilde - x / spec.h
    cap = SAMPLED_CLIP_KAPPA * (spec.L * abs(x) + spec.c)
    if u > cap:
        return cap
    if u < -cap:
        return -cap
    return u


@dataclass
class MjlsControllerState:
    """Gain schedule plus the one-step mode posterior.

    ``posterior`` is the predicted distribution of the mode acting now,
    refreshed from the transition row of the latest residual-matching
    estimate.  Modes are 1-based at this interface.
    """

    Ks: np.ndarray  # (N, m, n)
    prev_x: np.ndarray | None = None
    prev_u: np.ndarray | None = None
    posterior: np.ndarray | None = None

    def __post_init__(self):
        N = self.Ks.shape[0]
        if self.posterior is None:
            self.posterior = np.full(N, 1.0 / N)
        if abs(float(np.sum(self.posterior)) - 1.0) > 1e-9:
            raise ValueError("posterior must sum to 1")

    def observe(self, x, u) -> None:
        self.prev_x = np.asarray(x, dtype=float)
        self.prev_u = np.asarray(u, dtype=float)


def mjls_estimate_mode(state: MjlsControllerState, x_now,
                       spec: MjlsSpec) -> int:
    """Residual-matching estimate of the mode that produced x_now.

    Returns the 1-based argmin of ||x_now - A_i prev_x - B_i prev_u||
    (ties to the smaller index) and advances the posterior by one
    transition step from the estimated mode.
    """
    if state.prev_x is None or state.prev_u is None:
        raise ValueError("previous state and input must be recorded first")
    x_now = np.asarray(x_now, dtype=float)
    best = np.inf
    bi = 0
    for i in range(spec.n_modes):
        r = x_now - spec.A[i] @ state.prev_x - spec.B[i] @ state.prev_u
        rss = float(r @ r)
        if rss < best:
            best = rss
            bi = i
    state.posterior = spec.chain.P[bi].copy()
    return bi + 1


def mjls_control(state: MjlsControllerState, x) -> np.ndarray:
    """Certainty-equivalence input -K_i x at the posterior mode (1-based
    argmax, ties to the smaller index)."""
    x = np.asarray(x, dtype=float)
    ihat = int(np.argmax(state.posterior))
    return -(state.Ks[ihat] @ x)
