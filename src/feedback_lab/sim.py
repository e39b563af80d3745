"""Episode execution, Monte Carlo aggregation and verdicts.

An episode is fully determined by (system, controller, adversary,
horizon, seed): the seed feeds a PCG64 generator whose draws happen in a
fixed documented order, and the hot loops run in ``kernels``.  Batch
runs derive per-episode seeds from a master seed with a published 64-bit
mix (splitmix64), so parallel or reordered execution cannot change a
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import controllers as ctl
from . import kernels, models
from .adversary import OFFSET_BUDGET, RealizedPiecewiseLinear
from .models import (GUARD, NOISE_CAP, ConfigurationError, GaussianIID,
                     MjlsSpec, PowerGrowthFn, SampledSpec)
from .riccati import RiccatiSolution

_MASK = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One splitmix64 step; the published seed-mixing primitive."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def episode_seed(master_seed: int, index: int) -> int:
    """Per-episode seed: splitmix64(master ^ splitmix64(index + 1))."""
    return splitmix64((master_seed & _MASK) ^ splitmix64(index + 1))


# ---------------------------------------------------------------------------
# system descriptions at episode level


@dataclass(frozen=True)
class RandomMember:
    """Recipe for a random Lipschitz-L member: anchor abscissas uniform on
    [-10, 10], values by a random walk with slopes uniform in [-L, L]
    from a start value uniform in [-2, 2]."""

    n_anchors: int = 16

    def __post_init__(self):
        if self.n_anchors < 1:
            raise ValueError(
                f"n_anchors must be at least 1, got {self.n_anchors}")


@dataclass(frozen=True)
class RandomEnvelopeMember:
    """Recipe for a random member of the class |f(x)| <= L|x| + c: a
    slope-bounded walk outward from an anchor at the origin through 8
    abscissas uniform on [0, 20] each side, clipped into the envelope."""


@dataclass(frozen=True)
class ParametricSystem:
    """Starts at y0 = 0, with theta drawn from N(theta_mean, 1)."""

    f: PowerGrowthFn
    noise: GaussianIID = GaussianIID()
    theta_mean: float = 1.0

    def __post_init__(self):
        _require_finite(self, "theta_mean")


def _require_finite(spec, *names):
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_f_or_member(system):
    # a given f is what the system runs on, so a member recipe beside it
    # would go unread
    if system.f is not None and system.member is not None:
        raise ValueError("member must be None when f is given")


@dataclass(frozen=True)
class NonparametricSystem:
    """Starts at y0 drawn from N(0, y0_std^2)."""

    L: float
    w_bar: float = 1.0
    f: RealizedPiecewiseLinear | None = None
    member: RandomMember | None = None
    y0_std: float = 0.0

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if not math.isfinite(2.0 * self.L):  # members draw slopes on [-L, L]
            raise ValueError(f"L must have a finite span 2L, got {self.L}")
        if not 0 < self.w_bar < math.inf:
            raise ValueError(
                f"w_bar must be finite and positive, got {self.w_bar}")
        if not OFFSET_BUDGET * self.w_bar <= NOISE_CAP:
            raise ConfigurationError(
                f"w_bar must keep the opponent's budget {OFFSET_BUDGET:g} * "
                f"w_bar at most {NOISE_CAP:g}, got {self.w_bar}")
        _require_finite(self, "y0_std")
        _require_f_or_member(self)
        if self.f is not None:
            models.require_realized(self.f, self.L)


@dataclass(frozen=True)
class SampledSystem:
    """Starts at x0 drawn from N(0, x0_std^2)."""

    spec: SampledSpec
    f: RealizedPiecewiseLinear | None = None
    member: RandomEnvelopeMember | None = None
    x0_std: float = 0.0

    def __post_init__(self):
        _require_finite(self, "x0_std")
        _require_f_or_member(self)
        if self.f is not None:
            models.require_sampled_member(self.f, self.spec)


@dataclass(frozen=True)
class MjlsSystem:
    """Starts at x0, one finite entry per state, in a mode drawn uniformly
    over 1..N."""

    spec: MjlsSpec
    x0: tuple[float, ...]

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.spec.n_states,) or not np.isfinite(x0).all():
            raise ConfigurationError(
                f"x0 must hold {self.spec.n_states} finite entries, "
                f"got {self.x0}")


SystemSpec = (ParametricSystem | NonparametricSystem | SampledSystem
              | MjlsSystem)


# controller and adversary selectors


@dataclass(frozen=True)
class ZeroControl:
    pass


@dataclass(frozen=True)
class MvRlsControl:
    """Least-squares based minimum-variance law u = -theta_hat f(y), the
    prior-matched variant: the estimate starts at the system's
    coefficient mean with information ``controllers.RLS_S0``."""


@dataclass(frozen=True)
class SwitchingControl:
    """Switching nearest-neighbour law tracking the reference 0."""

    eps: float | None = None  # None means 0.1 * w_bar

    def __post_init__(self):
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive: {self.eps}")

    def threshold(self, w_bar: float) -> float:
        """The switching threshold at noise bound ``w_bar``: the kernels
        and ``recompute_input`` both read it here."""
        return 0.1 * w_bar if self.eps is None else self.eps


@dataclass(frozen=True)
class SampledCeControl:
    """Certainty-equivalence law clipped at ``SAMPLED_CLIP_KAPPA``."""


@dataclass(frozen=True)
class MjlsGainControl:
    solution: RiccatiSolution


@dataclass(frozen=True)
class GreedyAdversary:
    """Greedy opponent; its first value is clipped to the working budget
    |v| <= L|y| + ``adversary.OFFSET_BUDGET`` * w_bar."""


@dataclass(frozen=True)
class SampledGreedyAdversary:
    pass


# ---------------------------------------------------------------------------
# trajectories and verdicts


class Outcome(Enum):
    BOUNDED = "bounded"
    BLOWUP = "blowup"


@dataclass
class Trajectory:
    """Time-indexed record of one episode.

    ``states[t]`` pairs with ``noises[t]`` (the noise that produced it;
    slot 0 is zero) and ``inputs[t]`` is the input applied at t.  Vector
    systems store 2-D arrays.  For adversarial episodes ``realized_f``
    is the single function consistent with the whole run and
    ``committed`` the values chosen at the visited states (None in other
    episodes).
    """

    states: np.ndarray
    inputs: np.ndarray
    noises: np.ndarray
    system: object = None
    seed: int | None = None
    theta: object = None
    realized_f: object = None
    modes: np.ndarray | None = None
    mode_estimates: np.ndarray | None = None
    committed: np.ndarray | None = None
    blow_step: int | None = None
    controller: object = None

    @cached_property
    def _regret(self) -> tuple[np.ndarray, float]:
        # the squared tracking errors |y_t - w_t|^2 of steps 1.. and their
        # sum, formed once per episode: the sum is the verdict's regret and
        # the running sums a Monte Carlo summary's checkpoint regrets.  A
        # term that is not finite counts 0; the mask runs only where the
        # sum is not finite, which in practice only a blow-up's last step
        # gives
        d = self.states - self.noises
        terms = d[1:] ** 2 if d.ndim == 1 else np.sum(d[1:] ** 2, axis=1)
        total = float(terms.sum())
        if not total < math.inf:
            terms = np.where(np.isfinite(terms), terms, 0.0)
            total = float(terms.sum())
        return terms, total


@dataclass(frozen=True)
class EpisodeVerdict:
    outcome: Outcome
    sup_abs_state: float
    regret: float
    horizon: int
    blow_step: int | None = None


@dataclass(frozen=True)
class EpisodeSummary:
    index: int
    seed: int
    outcome: Outcome
    sup_abs_state: float
    regret: float
    blow_step: int | None
    regret_at: tuple[float, ...] = ()


@dataclass
class McReport:
    """Aggregate over independent episodes.

    ``mean_sq_curve`` and the regret checkpoints average over the
    non-blowup episodes only; ``n_bounded`` reports how many that is.
    """

    seeds: int
    master_seed: int
    blowup_fraction: float
    n_bounded: int
    checkpoints: tuple[int, ...]
    regret_vs_logT: list[tuple[int, float]]
    mean_sq_curve: np.ndarray | None
    episodes: list[EpisodeSummary] = field(default_factory=list)


@dataclass(frozen=True)
class McConfig:
    system: SystemSpec
    controller: object = ZeroControl()
    adversary: object | None = None
    T: int = 1000
    master_seed: int = 0
    checkpoints: tuple[int, ...] = ()
    collect_curve: bool = False


def default_checkpoints(T: int) -> tuple[int, ...]:
    """Powers of two from 2**7 up to T, with T appended."""
    cps = [2**k for k in range(7, 64) if 2**k <= T]
    if not cps or cps[-1] != T:
        cps.append(T)
    return tuple(cps)


# ---------------------------------------------------------------------------
# episode runners


def _abs_states(states: np.ndarray) -> np.ndarray:
    if states.ndim == 1:
        return np.abs(states)
    return np.sqrt(np.sum(states * states, axis=1))


def _episode(system, controller, seed, T: int, states, inputs, noises,
             blow: int, **fields):
    """The epilogue of every runner: record the kernel's returns and judge
    the episode.

    ``states``, ``modes`` and ``mode_estimates`` hold one entry per step
    the episode reached, the start included, and ``inputs`` and
    ``committed`` one fewer: T + 1 and T, or blow + 1 and blow after a
    blow-up.  ``noises``, drawn for T + 1 steps, is cut to the states;
    ``fields``, ``modes``, ``mode_estimates`` and ``committed`` among
    them, go to the trajectory as they are.

    The sup is the largest finite |state| and the regret the sum that
    ``Trajectory._regret`` forms beside its terms, once per episode.  The
    masks that drop non-finite entries run only where the unmasked
    maximum or sum is not finite, so on blow-ups only: a bounded
    episode's states lie within the guard.  This runs under ``run_episode``'s errstate, the one for the whole
    episode.
    """
    traj = Trajectory(states=states, inputs=inputs,
                      noises=noises[:len(states)], system=system, seed=seed,
                      blow_step=blow if blow >= 0 else None,
                      controller=controller, **fields)
    a = _abs_states(states)
    sup = float(a.max())
    if not sup < math.inf:
        sup = float(a[np.isfinite(a)].max())
    regret = traj._regret[1]
    if blow >= 0:
        return traj, EpisodeVerdict(Outcome.BLOWUP, sup, regret, blow, blow)
    return traj, EpisodeVerdict(Outcome.BOUNDED, sup, regret, T, None)


def random_lipschitz_member(L: float, member: RandomMember,
                            rng: np.random.Generator) -> RealizedPiecewiseLinear:
    xs = np.sort(rng.uniform(-10.0, 10.0, member.n_anchors))
    vs = np.empty_like(xs)
    vs[0] = rng.uniform(-2.0, 2.0)
    for i in range(1, xs.shape[0]):
        vs[i] = vs[i - 1] + rng.uniform(-L, L) * (xs[i] - xs[i - 1])
    return RealizedPiecewiseLinear(xs, vs, L)


def random_envelope_member(L: float, c: float,
                           rng: np.random.Generator) -> RealizedPiecewiseLinear:
    xs_pos = np.sort(rng.uniform(0.0, 20.0, 8))
    xs_neg = -np.sort(rng.uniform(0.0, 20.0, 8))
    v0 = rng.uniform(-c, c)
    xs = [0.0]
    vs = [v0]
    for side in (xs_pos, xs_neg):  # each walk starts at the origin
        v, xp = v0, 0.0
        for xi in side:
            v = v + rng.uniform(-L, L) * abs(xi - xp)
            box = L * abs(xi) + c
            v = min(max(v, -box), box)
            xs.append(xi)
            vs.append(v)
            xp = xi
    order = np.argsort(xs)
    return RealizedPiecewiseLinear(np.asarray(xs)[order],
                                   np.asarray(vs)[order], L)


def _run_parametric(system: ParametricSystem, controller, adversary, T: int,
                    seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = system.theta_mean + rng.standard_normal()
    w = math.sqrt(system.noise.variance) * rng.standard_normal(T + 1)
    w[0] = 0.0
    ys, us, blow = kernels.parametric_episode(
        0.0, theta, w, system.f.M, system.f.b, ctl.RLS_S0, system.theta_mean,
        GUARD)
    return _episode(system, controller, seed, T, ys, us, w, blow, theta=theta)


def _run_nonparametric(system: NonparametricSystem, controller, adversary,
                       T: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    eps = controller.threshold(system.w_bar)
    if adversary is not None:
        # 0.0 + turns a -0.0 draw at y0_std 0 into the start 0.0
        y0 = 0.0 + system.y0_std * rng.standard_normal()
        ys, us, ws, vsc, axs, avs, _, blow = kernels.nonparam_duel(
            y0, system.L, system.w_bar, OFFSET_BUDGET * system.w_bar, eps,
            GUARD, T)
        return _episode(system, controller, seed, T, ys, us, ws, blow,
                        committed=vsc,
                        realized_f=RealizedPiecewiseLinear(axs, avs, system.L))

    # fixed or randomly drawn member; draws happen in the order
    # (member if needed, y0 perturbation, noise)
    f = system.f
    if f is None:
        f = random_lipschitz_member(system.L, system.member, rng)
    y0 = 0.0 + system.y0_std * rng.standard_normal()
    raw = rng.uniform(-1.0, 1.0, T + 1)
    raw[0] = 0.0
    ys, us, blow = kernels.nonparam_fixed(
        y0, *f.table, f.L, raw, system.w_bar, eps, GUARD)
    return _episode(system, controller, seed, T, ys, us, system.w_bar * raw,
                    blow, realized_f=f)


def _run_sampled(system: SampledSystem, controller, adversary, T: int,
                 seed: int):
    spec = system.spec
    rng = np.random.Generator(np.random.PCG64(seed))
    kappa = ctl.SAMPLED_CLIP_KAPPA
    use_ctl = int(isinstance(controller, SampledCeControl))
    if adversary is not None:
        x0 = 0.0 + system.x0_std * rng.standard_normal()
        xs, us, vsc, axs, avs, amodes, _, blow = kernels.sampled_duel(
            x0, spec.L, spec.c, spec.h, kappa, T, GUARD, use_ctl)
        return _episode(system, controller, seed, T, xs, us, np.zeros(T + 1),
                        blow, committed=vsc,
                        realized_f=RealizedPiecewiseLinear(
                            axs, avs, spec.L, modes=amodes))

    f = system.f
    if f is None:
        f = random_envelope_member(spec.L, spec.c, rng)
    x0 = 0.0 + system.x0_std * rng.standard_normal()
    xs, us, blow = kernels.sampled_fixed(
        x0, *f.table, f.L, spec.c, spec.h, kappa, T, GUARD, use_ctl)
    return _episode(system, controller, seed, T, xs, us, np.zeros(T + 1),
                    blow, realized_f=f)


def _run_mjls(system: MjlsSystem, controller, adversary, T: int, seed: int):
    spec = system.spec
    rng = np.random.Generator(np.random.PCG64(seed))
    N = spec.n_modes
    mode0 = int(rng.integers(1, N + 1))
    munif = rng.random(T)
    W = math.sqrt(spec.noise.sigma_lo) * rng.standard_normal((T, spec.n_states))
    Kg = (controller.solution.Ks if isinstance(controller, MjlsGainControl)
          else np.zeros((N, spec.n_inputs, spec.n_states)))
    X, U, modes, est, blow = kernels.mjls_episode(
        spec.A, spec.B, Kg, spec.chain.P, np.asarray(system.x0, dtype=float),
        mode0 - 1, munif, W, GUARD)
    noises = np.zeros((T + 1, spec.n_states))
    noises[1:] = W
    return _episode(system, controller, seed, T, X, U, noises, blow,
                    modes=modes + 1,
                    mode_estimates=np.where(est >= 0, est + 1, 0))


# Each class's replay step, one stored transition recomputed through the
# model step ops (``f`` is the replay's copy of the realization), and its
# input recompute from the trajectory prefix through the reference
# controller operations.


def _replay_parametric(traj, f, x, t):
    return models.step_parametric(x, traj.theta, traj.inputs[t],
                                  traj.noises[t + 1], traj.system.f)


def _replay_nonparametric(traj, f, x, t):
    return models.step_nonparametric(x, f, traj.inputs[t], traj.noises[t + 1])


def _replay_sampled(traj, f, x, t):
    return models.integrate_sampled(x, f, traj.inputs[t], traj.system.spec)


def _replay_mjls(traj, f, x, t):
    return models.step_mjls(x, int(traj.modes[t]), traj.inputs[t],
                            traj.noises[t + 1], traj.system.spec)


def _recompute_parametric(traj, t):
    f = traj.system.f
    state = ctl.make_rls(traj.system.theta_mean)
    for i in range(t):
        phi = models.eval_power(f, traj.states[i])
        z = traj.states[i + 1] - traj.inputs[i]
        state = ctl.rls_update(state, phi, z)
    return ctl.adaptive_mv_control(state, models.eval_power(f, traj.states[t]))


def _recompute_nonparametric(traj, t):
    hist = ctl.NnHistory()
    for i in range(t):
        hist.append(traj.states[i], traj.inputs[i], traj.states[i + 1])
    return ctl.switching_control(
        hist, traj.states[t], traj.controller.threshold(traj.system.w_bar))


def _recompute_sampled(traj, t):
    samples = [(traj.states[i], traj.inputs[i], traj.states[i + 1])
               for i in range(t)]
    return ctl.sampled_control(samples, traj.states[t], traj.system.spec)


def _recompute_mjls(traj, t):
    state = ctl.MjlsControllerState(Ks=traj.controller.solution.Ks)
    if t >= 1:
        state.observe(traj.states[t - 1], traj.inputs[t - 1])
        ctl.mjls_estimate_mode(state, traj.states[t], traj.system.spec)
    return ctl.mjls_control(state, traj.states[t])


# The admission policy, one row per system class: its runner, the
# controllers it runs under, the opponents it takes (none for the
# parametric and jump-linear classes), its replay step and its input
# recompute.  A class that takes an opponent is a Lipschitz class: its
# episode runs on a given f, on a member recipe or against the opponent,
# exactly one of them.
_ADMISSION = (
    (ParametricSystem, _run_parametric, (MvRlsControl,), (),
     _replay_parametric, _recompute_parametric),
    (NonparametricSystem, _run_nonparametric, (SwitchingControl,),
     (GreedyAdversary,), _replay_nonparametric, _recompute_nonparametric),
    (SampledSystem, _run_sampled, (SampledCeControl, ZeroControl),
     (SampledGreedyAdversary,), _replay_sampled, _recompute_sampled),
    (MjlsSystem, _run_mjls, (MjlsGainControl, ZeroControl), (),
     _replay_mjls, _recompute_mjls),
)


def _row(system):
    """The ``_ADMISSION`` row of the system's class, found by
    ``isinstance``, so a subclass takes its base's row; a system of no
    row's class raises ConfigurationError."""
    for row in _ADMISSION:
        if isinstance(system, row[0]):
            return row
    raise ConfigurationError(f"unknown system type {type(system).__name__}")


def run_episode(system: SystemSpec, controller=ZeroControl(),
                adversary=None, T: int = 1000, seed: int = 0):
    """Close the loop for one episode; deterministic per seed.

    Returns ``(Trajectory, EpisodeVerdict)``.  A combination of system,
    controller and adversary that ``_ADMISSION`` does not admit raises
    ConfigurationError before any draw.
    """
    if T < 1:
        raise ValueError("horizon must be at least 1")
    _, run, controllers, opponents, _, _ = _row(system)
    name = type(system).__name__
    if not isinstance(controller, controllers):
        raise ConfigurationError(
            f"{type(controller).__name__} cannot drive a {name}")
    if adversary is not None and not isinstance(adversary, opponents):
        raise ConfigurationError(
            f"{name} episodes take no {type(adversary).__name__}")
    if opponents:
        given = system.f is not None or system.member is not None
        if given and adversary is not None:
            raise ConfigurationError(
                "adversarial episodes leave f and the member unspecified")
        if not given and adversary is None:
            raise ConfigurationError(
                "either f, a member recipe, or an adversary is required")
    # blowup episodes legitimately touch inf on their final transition;
    # the guard logic classifies those, so the fp warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        return run(system, controller, adversary, T, seed)


# ---------------------------------------------------------------------------
# Monte Carlo


def _episode_summary(cfg: McConfig, index: int):
    seed = episode_seed(cfg.master_seed, index)
    traj, verdict = run_episode(cfg.system, cfg.controller, cfg.adversary,
                                cfg.T, seed)
    regret_at = ()
    if cfg.checkpoints:
        csum = np.cumsum(traj._regret[0])
        regret_at = tuple(float(csum[min(tc, csum.shape[0]) - 1])
                          for tc in cfg.checkpoints)
    curve = None
    if cfg.collect_curve and verdict.outcome is Outcome.BOUNDED:
        a = _abs_states(traj.states)
        curve = a * a
    summary = EpisodeSummary(index=index, seed=seed, outcome=verdict.outcome,
                             sup_abs_state=verdict.sup_abs_state,
                             regret=verdict.regret, blow_step=verdict.blow_step,
                             regret_at=regret_at)
    return summary, curve


def _aggregate(cfg: McConfig, n_seeds: int, summaries, curves) -> McReport:
    summaries = sorted(summaries, key=lambda s: s.index)
    good = [s for s in summaries if s.outcome is Outcome.BOUNDED]
    n_bounded = len(good)
    frac = (len(summaries) - n_bounded) / n_seeds
    regret_rows = [
        (tc, float(np.mean([s.regret_at[k] for s in good])) if good
         else float("nan"))
        for k, tc in enumerate(cfg.checkpoints)]
    curve = None
    if cfg.collect_curve and n_bounded > 0:
        acc = None
        for idx in sorted(curves):
            c = curves[idx]
            acc = c.copy() if acc is None else acc + c
        curve = acc / n_bounded
    return McReport(seeds=n_seeds, master_seed=cfg.master_seed,
                    blowup_fraction=frac, n_bounded=n_bounded, checkpoints=tuple(cfg.checkpoints),
                    regret_vs_logT=regret_rows, mean_sq_curve=curve,
                    episodes=summaries)


def monte_carlo(cfg: McConfig, n_seeds: int) -> McReport:
    """Run ``n_seeds`` independent episodes and aggregate.

    Episode seeds come from :func:`episode_seed`; aggregation folds the
    per-episode results in index order, so any execution order produces
    the same report.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    summaries = []
    curves = {}
    for idx in range(n_seeds):
        s, c = _episode_summary(cfg, idx)
        summaries.append(s)
        if c is not None:
            curves[idx] = c
    return _aggregate(cfg, n_seeds, summaries, curves)


def regret_logfit(report: McReport) -> tuple[float, float]:
    """Least-squares slope of mean regret against log horizon.

    Needs at least five finite checkpoints; returns (slope, r_squared).
    A mean regret that is the same at every checkpoint has no growth to
    fit: its slope is 0.0 and its r_squared NaN, not a perfect 1.0.
    The fit is the two-parameter normal equations about the means, each
    sum taken left to right over Python floats, so its bits do not
    depend on the linear-algebra build.
    """
    rows = [(math.log(tc), float(r)) for tc, r in report.regret_vs_logT
            if np.isfinite(r)]
    if len(rows) < 5:
        raise ValueError("at least five finite checkpoints are required")
    sx = sy = 0.0
    for x, y in rows:
        sx += x
        sy += y
    mx = sx / len(rows)
    my = sy / len(rows)
    sxx = sxy = 0.0
    for x, y in rows:
        dx = x - mx
        sxx += dx * dx
        sxy += dx * (y - my)
    slope = sxy / sxx
    ss_res = ss_tot = 0.0
    for x, y in rows:
        dy = y - my
        e = dy - slope * (x - mx)
        ss_res += e * e
        ss_tot += dy * dy
    return slope, 1.0 - ss_res / ss_tot if ss_tot else math.nan


# ---------------------------------------------------------------------------
# audits and replay


def growth_rate_audit(traj: Trajectory) -> np.ndarray:
    """Escape multipliers of a blowup trajectory: the consecutive ratios
    |x_{k+1}|/|x_k| over its finite states, from nonzero |x_k|.  A
    non-blowup trajectory yields an empty array."""
    if traj.blow_step is None:
        return np.empty(0)
    a = _abs_states(traj.states)
    a = a[np.isfinite(a)]
    return np.array([y / x for x, y in zip(a[:-1], a[1:]) if x > 0.0])


def replay_states(traj: Trajectory) -> np.ndarray:
    """Recompute every stored transition through the model step op of
    the system's ``_ADMISSION`` row.

    Returns the recomputed state array; bit-equality with
    ``traj.states`` is the trajectory integrity invariant.  The step ops
    return a state beyond the guard as it is, so the final transition of
    a blowup trajectory replays like every other.
    """
    step = _row(traj.system)[4]
    out = np.array(traj.states, copy=True)
    # a copy of the realization: the anchor store its first evaluation
    # builds goes with the replay instead of staying with the trajectory
    f = None if traj.realized_f is None else replace(traj.realized_f)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(traj.inputs.shape[0]):
            out[t + 1] = step(traj, f, out[t], t)
    return out


def check_replay(traj: Trajectory) -> bool:
    """True when the stored states replay bit for bit."""
    replayed = replay_states(traj)
    a = np.asarray(traj.states)
    same = (a == replayed) | (np.isnan(a) & np.isnan(replayed))
    return bool(np.all(same))


def recompute_input(traj: Trajectory, t: int):
    """Recompute the input at time t from the trajectory prefix only.

    Uses the module-level controller operations, reading nothing beyond
    index t; agreement with ``traj.inputs[t]`` checks both causality and
    the fused kernels against the reference controller implementations.
    Zero control recomputes as zero in every class; any other controller
    goes to the input recompute of the system's ``_ADMISSION`` row.
    """
    recompute = _row(traj.system)[5]
    if isinstance(traj.controller, ZeroControl):
        return 0.0 if traj.states.ndim == 1 else np.zeros_like(traj.inputs[0])
    return recompute(traj, t)
