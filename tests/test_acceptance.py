"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output).  Criteria 1 and 6 also assert a wall-time bound.
"""

import math
import time

import numpy as np
import pytest

from feedback_lab import (CRITICAL_RADIUS, GreedyAdversary, MarkovChain,
                          MartingaleDiffVector, McConfig, MjlsSpec,
                          MvRlsControl, NonparametricSystem, Outcome,
                          ParametricSystem, PiecewiseLinearFn, PowerGrowthFn,
                          RandomEnvelopeMember, RandomMember, Regime,
                          SampledCeControl, SampledGreedyAdversary,
                          SampledSpec, SampledSystem, SwitchingControl,
                          ZeroControl, characteristic_poly, check_replay,
                          feasible_interval, growth_rate_audit,
                          highorder_impossible, monte_carlo, parametric_regime,
                          poly_impossible, pseudoinverse, quasi_norm,
                          realize, recompute_input, regret_logfit,
                          run_episode, sampled_regime,
                          scalar_mjls_stabilizable, solve_coupled_riccati,
                          SolveStatus, Trajectory)
from feedback_lab.sim import _aggregate, _episode_summary


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({label}): {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_1_critical_exponent():
    t0 = time.perf_counter()
    stable_fracs = {}
    for b in (1.5, 2.0, 2.5, 3.0, 3.5):
        cfg = McConfig(system=ParametricSystem(f=PowerGrowthFn(1.0, b)),
                       controller=MvRlsControl(), T=5000, master_seed=101)
        stable_fracs[b] = monte_carlo(cfg, 100).blowup_fraction
    unstable_fracs = {}
    for b in (4.5, 5.0, 6.0):
        cfg = McConfig(system=ParametricSystem(f=PowerGrowthFn(1.0, b)),
                       controller=MvRlsControl(), T=200, master_seed=101)
        unstable_fracs[b] = monte_carlo(cfg, 1000).blowup_fraction
    elapsed = time.perf_counter() - t0
    ok_stable = all(f == 0.0 for f in stable_fracs.values())
    ok_unstable = all(f > 0.02 for f in unstable_fracs.values())
    ok_time = elapsed < 60.0
    detail = (f"stable={stable_fracs} unstable="
              f"{ {b: round(f, 3) for b, f in unstable_fracs.items()} } "
              f"elapsed={elapsed:.1f}s")
    report(1, "critical exponent", ok_stable and ok_unstable and ok_time,
           detail)


def test_criterion_2_logarithmic_regret():
    checkpoints = tuple(2**k for k in range(7, 14))
    cfg = McConfig(system=ParametricSystem(f=PowerGrowthFn(1.0, 2.0)),
                   controller=MvRlsControl(), T=2**13, master_seed=202,
                   checkpoints=checkpoints)
    rep = monte_carlo(cfg, 50)
    slope_full, r2_full = regret_logfit(rep)

    half = [row for row in rep.regret_vs_logT if row[0] <= 2**12]
    rep_half = type(rep)(seeds=rep.seeds, master_seed=rep.master_seed,
                         blowup_fraction=rep.blowup_fraction,
                         n_bounded=rep.n_bounded,
                         checkpoints=tuple(t for t, _ in half),
                         regret_vs_logT=half, mean_sq_curve=None)
    slope_half, _ = regret_logfit(rep_half)
    change = abs(slope_full - slope_half) / abs(slope_half)
    ok = (np.isfinite(slope_full) and r2_full > 0.8 and change < 0.5
          and rep.blowup_fraction == 0.0)
    report(2, "logarithmic regret",
           ok, f"slope={slope_full:.3f} r2={r2_full:.3f} "
               f"range-doubling change={change:.1%}")


def test_criterion_3_characteristic_polynomial():
    t0 = time.perf_counter()

    def triggers(b: float) -> bool:
        poly = characteristic_poly([b])
        return poly_impossible(poly, b).regime is Regime.IMPOSSIBLE

    grid_ok = True
    for k in range(11, 81):
        b = k / 10.0
        if triggers(b) != (b > 4.0):
            grid_ok = False
            break
        if (parametric_regime(b).regime is Regime.IMPOSSIBLE) != (b >= 4.0):
            grid_ok = False
            break
    lo, hi = 3.5, 4.5
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if triggers(mid):
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - t0
    ok = grid_ok and abs(flip - 4.0) <= 1e-6 and elapsed < 1.0
    report(3, "characteristic polynomial consistency", ok,
           f"flip={flip:.9f} elapsed={elapsed:.2f}s")


def test_criterion_4_nonparametric_radius():
    lo, hi = 2.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if highorder_impossible(mid, 1).regime is Regime.IMPOSSIBLE:
            hi = mid
        else:
            lo = mid
    flip_ok = abs(hi - CRITICAL_RADIUS) <= 1e-9

    cfg = McConfig(system=NonparametricSystem(L=2.0, w_bar=1.0,
                                              member=RandomMember(),
                                              y0_std=1.0),
                   controller=SwitchingControl(), T=10_000, master_seed=404)
    rep = monte_carlo(cfg, 100)
    bounded_ok = all(e.outcome is Outcome.BOUNDED for e in rep.episodes)

    # The 95/100 bar below probes the greedy opponent, not the
    # impossibility claim itself: above the critical radius some
    # destabilizing member exists, but nothing promises this particular
    # heuristic finds it.  A miss here calls for investigation rather
    # than automatic rejection.
    cfg = McConfig(system=NonparametricSystem(L=6.0, w_bar=1.0, y0_std=1.0),
                   controller=SwitchingControl(), adversary=GreedyAdversary(),
                   T=500, master_seed=405)
    rep = monte_carlo(cfg, 100)
    n_escaped = sum(1 for e in rep.episodes
                    if e.sup_abs_state > 1e6 or e.blow_step is not None)
    duel_ok = n_escaped >= 95
    report(4, "nonparametric critical radius",
           flip_ok and bounded_ok and duel_ok,
           f"flip_err={abs(hi - CRITICAL_RADIUS):.1e} "
           f"bounded=100 required, escaped={n_escaped}/100")


def test_criterion_5_sampled_data_regimes():
    ln4 = math.log(4.0)
    boundaries_ok = (
        sampled_regime(1.0, ln4 - 1e-9).regime is Regime.STABILIZABLE
        and sampled_regime(1.0, ln4).regime is Regime.GAP
        and sampled_regime(1.0, 7.53).regime is Regime.GAP
        and sampled_regime(1.0, 7.53 + 1e-9).regime is Regime.IMPOSSIBLE)

    spec = SampledSpec(L=1.0, c=1.0, h=8.0)
    min_mults = {}
    for label, controller in (("open", ZeroControl()),
                              ("ce", SampledCeControl())):
        traj, verdict = run_episode(SampledSystem(spec=spec), controller,
                                    SampledGreedyAdversary(), T=48, seed=0)
        audit = growth_rate_audit(traj)
        blow_ok = verdict.outcome is Outcome.BLOWUP
        min_mults[label] = (float(np.min(audit.multipliers[:12]))
                            if audit.multipliers.shape[0] >= 12 else 0.0)
        min_mults[label + "_blow"] = blow_ok
    mult_ok = all(min_mults[k] >= (8.0 / 2.0) * 0.95 for k in ("open", "ce"))
    blow_ok = min_mults["open_blow"] and min_mults["ce_blow"]

    cfg = McConfig(system=SampledSystem(spec=SampledSpec(1.0, 1.0, 0.5),
                                        member=RandomEnvelopeMember(),
                                        x0_std=1.0),
                   controller=SampledCeControl(), T=1000, master_seed=505)
    rep = monte_carlo(cfg, 50)
    bounded_ok = all(e.outcome is Outcome.BOUNDED for e in rep.episodes)
    report(5, "sampled-data regimes",
           boundaries_ok and mult_ok and blow_ok and bounded_ok,
           f"min multipliers open={min_mults['open']:.0f} "
           f"ce={min_mults['ce']:.0f}, small-rate bounded 50/50={bounded_ok}")


def test_criterion_6_coupled_equations_vs_closed_form():
    t0 = time.perf_counter()
    chain_cache = {}
    mismatches = []
    indeterminate_in_band = 0
    for delta in np.linspace(0.0, 3.0, 20):
        for k in range(20):
            p12 = (k + 0.5) / 20.0
            cp = delta**2 * (1 - p12) * p12
            if p12 not in chain_cache:
                chain_cache[p12] = MarkovChain(
                    np.array([[1 - p12, p12], [p12, 1 - p12]]))
            spec = MjlsSpec(chain=chain_cache[p12],
                            A=np.array([[[0.0]], [[delta]]]),
                            B=np.ones((2, 1, 1)),
                            noise=MartingaleDiffVector(1.0, 1.0, 1))
            res = solve_coupled_riccati(spec)
            in_band = abs(cp - 1.0) < 0.05
            if res.status is SolveStatus.INDETERMINATE:
                if in_band:
                    indeterminate_in_band += 1
                else:
                    mismatches.append((float(delta), p12, cp, "indeterminate"))
                continue
            want = scalar_mjls_stabilizable(0.0, float(delta), p12)
            solved = res.status is SolveStatus.SOLVED
            if not in_band and solved != (want.regime is Regime.STABILIZABLE):
                mismatches.append((float(delta), p12, cp, res.status.value))

    single = MjlsSpec(chain=MarkovChain(np.array([[1.0]])),
                      A=np.array([[[1.7]]]), B=np.ones((1, 1, 1)),
                      noise=MartingaleDiffVector(1.0, 1.0, 1))
    res1 = solve_coupled_riccati(single)
    n1_ok = (res1.status is SolveStatus.SOLVED
             and np.array_equal(res1.solution.Ms[0], np.eye(1))
             and res1.solution.residual < 1e-12)
    elapsed = time.perf_counter() - t0
    ok = (not mismatches) and n1_ok and elapsed < 10.0
    report(6, "coupled equations vs closed form", ok,
           f"grid mismatches={len(mismatches)} "
           f"indeterminate_in_band={indeterminate_in_band} "
           f"elapsed={elapsed:.1f}s")


def test_criterion_7_property_suites():
    rng = np.random.default_rng(700)

    # Moore-Penrose identities on random matrices, rank-deficient included
    penrose_ok = True
    for _ in range(40):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        r = int(rng.integers(1, min(rows, cols) + 1))
        A = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        Ap = pseudoinverse(A)
        penrose_ok &= bool(np.allclose(A @ Ap @ A, A, atol=1e-8))
        penrose_ok &= bool(np.allclose(Ap @ A @ Ap, Ap, atol=1e-8))
        penrose_ok &= bool(np.allclose((A @ Ap).T, A @ Ap, atol=1e-8))
        penrose_ok &= bool(np.allclose((Ap @ A).T, Ap @ A, atol=1e-8))

    # realized anchor stores stay inside the slope ball
    mcshane_ok = True
    for _ in range(5):
        L = float(rng.uniform(0.5, 4.0))
        fn = PiecewiseLinearFn(L=L)
        fn.commit(0.0, 0.0)
        for _ in range(10):
            x = float(rng.uniform(-8, 8))
            lo, hi = feasible_interval(fn, x)
            if fn.value_at(x) is None:
                fn.commit(x, float(rng.uniform(lo, hi)))
        g = realize(fn)
        grid = np.linspace(-12, 12, 10_001)
        vals = np.array([g(x) for x in grid])
        slopes = np.abs(np.diff(vals) / np.diff(grid))
        mcshane_ok &= bool(np.max(slopes) <= L + 1e-9)
        mcshane_ok &= quasi_norm(g) <= L + 1e-12

    # trajectory replay is bit-exact across system classes
    episodes = [
        run_episode(ParametricSystem(f=PowerGrowthFn(1.0, 2.0)),
                    MvRlsControl(), None, 300, 1),
        run_episode(NonparametricSystem(L=2.0, member=RandomMember(),
                                        y0_std=1.0),
                    SwitchingControl(), None, 300, 2),
        run_episode(NonparametricSystem(L=6.0, y0_std=1.0),
                    SwitchingControl(), GreedyAdversary(), 80, 3),
        run_episode(SampledSystem(spec=SampledSpec(1.0, 1.0, 0.5),
                                  member=RandomEnvelopeMember(), x0_std=1.0),
                    SampledCeControl(), None, 40, 4),
        run_episode(SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0)),
                    SampledCeControl(), SampledGreedyAdversary(), 20, 5),
    ]
    replay_ok = all(check_replay(t) for t, _ in episodes)

    # scrambling the future never changes recorded inputs
    causal_ok = True
    for traj, _ in episodes[:2]:
        n = traj.inputs.shape[0]
        for t in (0, n // 2, n - 1):
            scrambled = Trajectory(
                kind=traj.kind, states=traj.states.copy(),
                inputs=traj.inputs.copy(), noises=traj.noises.copy(),
                system=traj.system, theta=traj.theta,
                realized_f=traj.realized_f, controller=traj.controller)
            scrambled.states[t + 1:] = rng.standard_normal(
                scrambled.states[t + 1:].shape)
            causal_ok &= recompute_input(scrambled, t) == traj.inputs[t]

    # master seed pins the whole report, independent of execution order
    cfg = McConfig(system=ParametricSystem(f=PowerGrowthFn(1.0, 2.0)),
                   controller=MvRlsControl(), T=300, master_seed=77,
                   checkpoints=(128, 300), collect_curve=True)
    r1 = monte_carlo(cfg, 15)
    r2 = monte_carlo(cfg, 15)
    summaries, curves = [], {}
    for idx in reversed(range(15)):
        s, c = _episode_summary(cfg, idx)
        summaries.append(s)
        if c is not None:
            curves[idx] = c
    r3 = _aggregate(cfg, 15, summaries, curves)
    mc_ok = (r1.blowup_fraction == r2.blowup_fraction == r3.blowup_fraction
             and np.array_equal(r1.mean_sq_curve, r2.mean_sq_curve)
             and np.array_equal(r1.mean_sq_curve, r3.mean_sq_curve)
             and r1.regret_vs_logT == r2.regret_vs_logT == r3.regret_vs_logT)

    ok = penrose_ok and mcshane_ok and replay_ok and causal_ok and mc_ok
    report(7, "property suites", ok,
           f"penrose={penrose_ok} mcshane={mcshane_ok} replay={replay_ok} "
           f"causality={causal_ok} mc-repro={mc_ok}")
