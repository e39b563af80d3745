import math

import numpy as np
import pytest

from feedback_lab import (GaussianIID, GreedyAdversary,
                          MarkovChain,
                          MartingaleDiffVector, PiecewiseLinearFn,
                          adversary_choose, kernels,
                          McConfig, MjlsGainControl, MjlsSpec, MjlsSystem,
                          MvRlsControl, NonparametricSystem, Outcome,
                          ParametricSystem, PowerGrowthFn,
                          RandomEnvelopeMember, RandomMember,
                          RealizedPiecewiseLinear,
                          SampledCeControl, SampledGreedyAdversary,
                          SampledSpec, SampledSystem, SwitchingControl,
                          Trajectory, ZeroControl, check_replay,
                          default_checkpoints, episode_seed,
                          growth_rate_audit, make_rls, monte_carlo,
                          recompute_input,
                          regret_logfit, run_episode,
                          solve_coupled_riccati, splitmix64)
from feedback_lab.models import NOISE_CAP, ConfigurationError
from feedback_lab.sim import McReport, _aggregate, _episode_summary


def param_system(b=2.0):
    return ParametricSystem(f=PowerGrowthFn(1.0, b))


def mjls_expanding():
    """Two expanding scalar modes: every open-loop run blows up."""
    chain = MarkovChain(np.array([[0.1, 0.9], [0.9, 0.1]]))
    spec = MjlsSpec(chain=chain, A=np.array([[[3.0]], [[4.0]]]),
                    B=np.ones((2, 1, 1)),
                    noise=MartingaleDiffVector(1.0, 1.0, 1))
    return MjlsSystem(spec=spec, x0=(1.0,))


def mjls_pieces(a2=1.9):
    chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
    spec = MjlsSpec(chain=chain, A=np.array([[[0.0]], [[a2]]]),
                    B=np.ones((2, 1, 1)),
                    noise=MartingaleDiffVector(1.0, 1.0, 1))
    sol = solve_coupled_riccati(spec).solution
    return MjlsSystem(spec=spec, x0=(0.0,)), MjlsGainControl(sol)


ALL_EPISODES = [
    ("parametric-rls", lambda: (param_system(), MvRlsControl(), None, 400)),
    ("nonparam-member", lambda: (NonparametricSystem(
        L=2.0, member=RandomMember(), y0_std=1.0), SwitchingControl(), None, 400)),
    ("nonparam-duel", lambda: (NonparametricSystem(L=6.0, y0_std=1.0),
                               SwitchingControl(), GreedyAdversary(), 120)),
    ("sampled-member", lambda: (SampledSystem(
        spec=SampledSpec(1.0, 1.0, 0.5), member=RandomEnvelopeMember(),
        x0_std=1.0), SampledCeControl(), None, 60)),
    ("sampled-duel", lambda: (SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0)),
                              SampledCeControl(), SampledGreedyAdversary(), 20)),
    ("mjls", lambda: (*mjls_pieces(), None, 300)[0:2] + (None, 300)),
]


# (name, make, seed, blows up): every runner at a bounded seed, and a
# blow-up of every runner
EPILOGUE_CASES = [(name, make, 0, False) for name, make in ALL_EPISODES] + [
    ("parametric-blowup", lambda: (param_system(5.0), MvRlsControl(), None,
                                   200), 12, True),
    ("nonparam-member-blowup", lambda: (NonparametricSystem(
        L=20.0, member=RandomMember(), y0_std=1.0), SwitchingControl(), None,
        200), 0, True),
    ("nonparam-duel-blowup", lambda: (NonparametricSystem(L=6.0, y0_std=1.0),
                                      SwitchingControl(), GreedyAdversary(),
                                      500), 0, True),
    ("sampled-duel-blowup", lambda: (SampledSystem(
        spec=SampledSpec(1.0, 1.0, 8.0)), SampledCeControl(),
        SampledGreedyAdversary(), 48), 0, True),
    # f = 1 + |x| at L h = 8, past the sampled boundary 7.53
    ("sampled-fixed-blowup", lambda: (SampledSystem(
        spec=SampledSpec(1.0, 1.0, 8.0), f=RealizedPiecewiseLinear(
            [0.0], [1.0], 1.0)), SampledCeControl(), None, 60), 0, True),
    ("mjls-blowup", lambda: (mjls_expanding(), ZeroControl(), None, 400), 0,
     True),
]


class TestSeedMixing:
    def test_splitmix_reference_values(self):
        # distinct, 64-bit, deterministic
        vals = {splitmix64(k) for k in range(1000)}
        assert len(vals) == 1000
        assert all(0 <= v < 2**64 for v in vals)
        assert splitmix64(0) == splitmix64(0)

    def test_episode_seeds_distinct(self):
        seeds = {episode_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_master_seed_matters(self):
        assert episode_seed(1, 0) != episode_seed(2, 0)


class TestReplayInvariant:
    @pytest.mark.parametrize("name,make", ALL_EPISODES)
    def test_bit_exact_replay(self, name, make):
        system, controller, adversary, T = make()
        for seed in (0, 1, 2):
            traj, verdict = run_episode(system, controller, adversary, T, seed)
            assert check_replay(traj), f"{name} seed {seed} replay drifted"

    def test_blowup_final_transition_replays(self):
        # most b = 5 blow-ups take their last power step beyond double
        # precision; every one replays
        system = param_system(5.0)
        blowups = 0
        for seed in range(100):
            traj, verdict = run_episode(system, MvRlsControl(), None, 200, seed)
            if verdict.outcome is Outcome.BLOWUP:
                blowups += 1
                assert check_replay(traj), f"seed {seed}"
        assert blowups > 0, "no blowup found to exercise the final transition"

    @pytest.mark.parametrize("h", [1.0, 2.0, 8.0])
    def test_sampled_duel_from_nonzero_start_replays(self, h):
        # an anchor at 0 inside [-c, c], committed before the first sample,
        # keeps the realized store inside |f(x)| <= L|x| + c
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, h), x0_std=1.0)
        for seed in range(20):
            traj, _ = run_episode(system, SampledCeControl(),
                                  SampledGreedyAdversary(), 20, seed)
            f = traj.realized_f
            assert traj.states[0] != 0.0
            assert f(0.0) == (1.0 if traj.states[0] > 0.0 else -1.0)
            assert np.all(np.abs(f.vs) <= np.abs(f.xs) + 1.0
                          + 1e-12 * np.maximum(1.0, np.abs(f.vs)))
            assert check_replay(traj), seed

    def test_mixed_mode_realization_drives_a_nonparametric_loop(self):
        # a sampled duel's realized f keeps the envelope that swept each
        # interval, lower on the left and upper on the right here; the
        # nonparametric kernel and replay read the same mode table
        duel, _ = run_episode(SampledSystem(spec=SampledSpec(1.0, 1.0, 1.0)),
                              SampledCeControl(), SampledGreedyAdversary(),
                              100, 0)
        f = duel.realized_f
        assert set(f.modes.tolist()) == {0, 1}
        system = NonparametricSystem(L=1.0, f=f)
        traj, verdict = run_episode(system, SwitchingControl(), None, 400, 0)
        assert verdict.outcome is Outcome.BOUNDED
        assert set(f.modes[np.searchsorted(f.xs, traj.states)].tolist()) \
            == {0, 1}
        assert check_replay(traj)
        for t in range(traj.inputs.shape[0]):
            assert recompute_input(traj, t) == traj.inputs[t], t


class TestDeterminism:
    @pytest.mark.parametrize("name,make", ALL_EPISODES)
    def test_same_seed_same_trajectory(self, name, make):
        system, controller, adversary, T = make()
        t1, v1 = run_episode(system, controller, adversary, T, seed=7)
        t2, v2 = run_episode(system, controller, adversary, T, seed=7)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.inputs, t2.inputs)
        assert v1 == v2
        if t1.committed is not None:
            assert np.array_equal(t1.committed, t2.committed)
            assert np.array_equal(t1.realized_f.xs, t2.realized_f.xs)
            assert np.array_equal(t1.realized_f.vs, t2.realized_f.vs)

    def test_different_seeds_differ(self):
        t1, _ = run_episode(param_system(), MvRlsControl(), None, 100, seed=1)
        t2, _ = run_episode(param_system(), MvRlsControl(), None, 100, seed=2)
        assert not np.array_equal(t1.states, t2.states)


class TestEpisodeEpilogue:
    """Every runner ends in one epilogue that records the kernel's
    exact-length returns and cuts the noises to them: the record lines up
    and the verdict's horizon is the blow step or T."""

    @pytest.mark.parametrize("name,make,seed,blows", EPILOGUE_CASES,
                             ids=[case[0] for case in EPILOGUE_CASES])
    def test_record_lines_up(self, name, make, seed, blows):
        system, controller, adversary, T = make()
        traj, verdict = run_episode(system, controller, adversary, T, seed)
        assert (traj.blow_step is not None) == blows
        assert verdict.blow_step == traj.blow_step
        assert verdict.horizon == (traj.blow_step if blows else T)
        n = len(traj.states)
        assert n == verdict.horizon + 1
        assert len(traj.inputs) == n - 1
        assert len(traj.noises) == n
        if adversary is None:
            assert traj.committed is None
        else:
            assert len(traj.committed) == len(traj.inputs)
        if traj.kind == "mjls":
            assert len(traj.modes) == len(traj.mode_estimates) == n


class TestConfigurationErrors:
    def test_controller_mismatch(self):
        with pytest.raises(ConfigurationError):
            run_episode(param_system(), SwitchingControl(), None, 10, 0)
        # the parametric verdicts are about the RLS law; no open loop
        with pytest.raises(ConfigurationError):
            run_episode(param_system(), ZeroControl(), None, 10, 0)
        with pytest.raises(ConfigurationError):
            run_episode(NonparametricSystem(L=1.0, member=RandomMember()),
                        MvRlsControl(), None, 10, 0)
        # the nonparametric verdicts are about the switching law; no open
        # loop either
        with pytest.raises(ConfigurationError):
            run_episode(NonparametricSystem(L=1.0, member=RandomMember()),
                        ZeroControl(), None, 10, 0)

    def test_adversary_mismatch(self):
        with pytest.raises(ConfigurationError):
            run_episode(param_system(), MvRlsControl(), GreedyAdversary(), 10, 0)
        with pytest.raises(ConfigurationError):
            run_episode(NonparametricSystem(L=1.0), SwitchingControl(),
                        SampledGreedyAdversary(), 10, 0)

    def test_adversary_with_fixed_f_rejected(self):
        sysn = NonparametricSystem(L=1.0, member=RandomMember())
        with pytest.raises(ConfigurationError):
            run_episode(sysn, SwitchingControl(), GreedyAdversary(), 10, 0)

    def test_missing_f_rejected(self):
        with pytest.raises(ConfigurationError):
            run_episode(NonparametricSystem(L=1.0), SwitchingControl(),
                        None, 10, 0)

    @pytest.mark.parametrize("s0", [0.0, -1.0, math.nan, math.inf])
    def test_rls_information_start_must_be_finite_and_positive(self, s0):
        # the runs start at controllers.RLS_S0; the reference takes any s0
        with pytest.raises(ValueError, match="s0"):
            make_rls(1.0, s0=s0)

    @pytest.mark.parametrize("field, kwargs", [
        ("L", {"L": 0.0}),
        ("L", {"L": -1.0}),
        ("w_bar", {"L": 1.0, "w_bar": 0.0}),
        ("w_bar", {"L": 1.0, "w_bar": math.inf}),
        ("w_bar", {"L": 1.0, "w_bar": 1e300}),
        ("w_bar", {"L": 1.0, "w_bar": 1e308}),
        ("y0_std", {"L": 1.0, "y0_std": math.inf}),
        ("L", {"L": math.inf}),
        ("L", {"L": 1e308}),
        ("f", {"L": 1.0, "f": lambda y: 0.5 * y}),
        ("f", {"L": 1.0, "f": PiecewiseLinearFn(L=1.0)}),
        ("f.L", {"L": 1.0, "f": RealizedPiecewiseLinear(
            np.array([0.0, 1.0]), np.array([0.0, 0.5]), 10.0)}),
        # a system runs on its f, so a member recipe beside it goes unread
        ("member", {"L": 1.0, "f": RealizedPiecewiseLinear(
            np.array([0.0]), np.array([0.0]), 1.0), "member": RandomMember()}),
    ], ids=["L_zero", "L_negative", "w_bar", "w_bar_inf",
            "w_bar_beyond_guard", "w_bar_overflows_budget", "y0_std", "L_inf",
            "L_span_overflows", "f_callable", "f_unrealized",
            "f_L_beyond", "f_and_member"])
    def test_nonparametric_system_rejected_when_built(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            NonparametricSystem(**kwargs)

    # a member needs an anchor, numpy cannot draw on [-v, v] once 2v
    # overflows, and the switching controller needs a finite positive
    # threshold
    @pytest.mark.parametrize("field, make", [
        ("n_anchors", lambda: RandomMember(n_anchors=0)),
        ("L", lambda: SampledSpec(math.inf, 1.0, 1.0)),
        ("c", lambda: SampledSpec(1.0, math.inf, 1.0)),
        ("L", lambda: SampledSpec(1e308, 1.0, 1.0)),
        ("c", lambda: SampledSpec(1.0, 1e308, 1.0)),
        ("eps", lambda: SwitchingControl(eps=-1.0)),
        ("eps", lambda: SwitchingControl(eps=0.0)),
        ("eps", lambda: SwitchingControl(eps=math.nan)),
        ("eps", lambda: SwitchingControl(eps=math.inf)),
        ("h", lambda: SampledSpec(1.0, 1.0, math.inf)),
    ], ids=["n_anchors", "sampled_L_inf", "sampled_c_inf",
            "sampled_L_span_overflows", "sampled_c_span_overflows",
            "eps_negative", "eps_zero", "eps_nan", "eps_inf", "sampled_h_inf"])
    def test_member_recipe_and_controller_rejected_when_built(self, field,
                                                               make):
        with pytest.raises(ValueError, match=field):
            make()

    @pytest.mark.parametrize("field, make", [
        ("variance", lambda: GaussianIID(math.inf)),
        ("variance", lambda: GaussianIID(math.nan)),
        ("variance", lambda: GaussianIID(1e300)),
        ("theta_mean", lambda: ParametricSystem(PowerGrowthFn(1.0, 2.0),
                                                theta_mean=math.inf)),
        ("theta_mean", lambda: ParametricSystem(PowerGrowthFn(1.0, 2.0),
                                                theta_mean=math.nan)),
    ], ids=["noise_variance_inf", "noise_variance_nan",
            "noise_variance_beyond_guard", "theta_mean_inf",
            "theta_mean_nan"])
    def test_parametric_system_rejected_when_built(self, field, make):
        with pytest.raises(ValueError, match=field):
            make()

    def test_noise_scale_cap(self):
        # a noise scale beyond NOISE_CAP is a configuration error naming
        # its field; up to the cap the system is built
        for make in (lambda s: NonparametricSystem(L=1.0, w_bar=s / 10.0),
                     lambda s: GaussianIID(s * s)):
            make(NOISE_CAP / 2.0)
            with pytest.raises(ConfigurationError, match="w_bar|variance"):
                make(NOISE_CAP * 2.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("x0_std", {"x0_std": math.nan}),
        ("f", {"f": PiecewiseLinearFn(L=1.0)}),
        ("f.L", {"f": RealizedPiecewiseLinear(
            np.array([0.0, 1.0]), np.array([0.0, 1.5]), 1.5)}),
        # f(0) = 100 and f(0) = 6 + 5 against c = 1
        ("offset c", {"f": RealizedPiecewiseLinear(
            np.array([0.0]), np.array([100.0]), 1.0)}),
        ("offset c", {"f": RealizedPiecewiseLinear(
            np.array([5.0]), np.array([6.0]), 1.0)}),
        ("member", {"f": RealizedPiecewiseLinear(np.array([0.0]),
                                                 np.array([0.0]), 1.0),
                    "member": RandomEnvelopeMember()}),
    ], ids=["x0_std", "f_unrealized", "f_L_beyond", "f_offset_beyond",
            "f_anchor_beyond", "f_and_member"])
    def test_sampled_system_rejected_when_built(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            SampledSystem(spec=SampledSpec(1.0, 1.0, 1.0), **kwargs)


class TestCausality:
    CASES = [
        ("parametric-rls", lambda: (param_system(), MvRlsControl(), None, 120)),
        ("nonparam-member", lambda: (NonparametricSystem(
            L=2.0, member=RandomMember(), y0_std=1.0), SwitchingControl(),
            None, 120)),
        ("nonparam-duel", lambda: (NonparametricSystem(L=6.0, y0_std=1.0),
                                   SwitchingControl(), GreedyAdversary(), 40)),
        ("sampled-member", lambda: (SampledSystem(
            spec=SampledSpec(1.0, 1.0, 0.5), member=RandomEnvelopeMember(),
            x0_std=1.0), SampledCeControl(), None, 30)),
    ]

    @pytest.mark.parametrize("name,make", CASES)
    def test_inputs_recomputable_from_prefix(self, name, make):
        system, controller, adversary, T = make()
        traj, _ = run_episode(system, controller, adversary, T, seed=5)
        for t in range(traj.inputs.shape[0]):
            assert recompute_input(traj, t) == traj.inputs[t], (name, t)

    @pytest.mark.parametrize("name,make", CASES)
    def test_future_scramble_leaves_inputs_alone(self, name, make):
        system, controller, adversary, T = make()
        traj, _ = run_episode(system, controller, adversary, T, seed=9)
        rng = np.random.default_rng(0)
        n = traj.inputs.shape[0]
        for t in (0, n // 2, n - 1):
            scrambled = Trajectory(
                kind=traj.kind, states=traj.states.copy(),
                inputs=traj.inputs.copy(), noises=traj.noises.copy(),
                system=traj.system, theta=traj.theta,
                realized_f=traj.realized_f, controller=traj.controller)
            scrambled.states[t + 1:] = rng.standard_normal(
                scrambled.states[t + 1:].shape)
            assert recompute_input(scrambled, t) == traj.inputs[t]

    def test_mjls_inputs_recomputable(self):
        system, controller = mjls_pieces()
        traj, _ = run_episode(system, controller, None, 200, seed=3)
        for t in range(traj.inputs.shape[0]):
            u = recompute_input(traj, t)
            assert np.allclose(u, traj.inputs[t], rtol=1e-12, atol=1e-12)


class TestRegret:
    def test_two_paths_agree(self):
        traj, verdict = run_episode(param_system(), MvRlsControl(), None,
                                    500, seed=4)
        manual = 0.0
        for t in range(1, traj.states.shape[0]):
            manual += (traj.states[t] - traj.noises[t]) ** 2
        assert verdict.regret == pytest.approx(manual, rel=1e-9)

    def test_regret_zero_for_perfect_tracking(self):
        # f = |x|, the upper envelope of the one anchor (0, 0), with zero
        # control from 0 and no noise: the state rests at 0, x_t = w_t = 0
        f = RealizedPiecewiseLinear([0.0], [0.0], 1.0)
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 0.5), f=f)
        traj, verdict = run_episode(system, ZeroControl(), None, 50, seed=0)
        assert verdict.regret == 0.0
        assert verdict.outcome is Outcome.BOUNDED


class TestMonteCarlo:
    def test_report_reproducible(self):
        cfg = McConfig(system=param_system(), controller=MvRlsControl(),
                       T=300, master_seed=12, checkpoints=(128, 300),
                       collect_curve=True)
        r1 = monte_carlo(cfg, 20)
        r2 = monte_carlo(cfg, 20)
        assert r1.blowup_fraction == r2.blowup_fraction
        assert np.array_equal(r1.mean_sq_curve, r2.mean_sq_curve)
        assert r1.regret_vs_logT == r2.regret_vs_logT
        assert [e.seed for e in r1.episodes] == [e.seed for e in r2.episodes]

    def test_order_independent_aggregation(self):
        cfg = McConfig(system=param_system(), controller=MvRlsControl(),
                       T=200, master_seed=5, checkpoints=(128, 200),
                       collect_curve=True)
        forward = monte_carlo(cfg, 12)
        summaries, curves = [], {}
        for idx in reversed(range(12)):
            s, c = _episode_summary(cfg, idx)
            summaries.append(s)
            if c is not None:
                curves[idx] = c
        shuffled = _aggregate(cfg, 12, summaries, curves)
        assert shuffled.blowup_fraction == forward.blowup_fraction
        assert np.array_equal(shuffled.mean_sq_curve, forward.mean_sq_curve)
        assert shuffled.regret_vs_logT == forward.regret_vs_logT

    def test_single_seed_matches_episode(self):
        cfg = McConfig(system=param_system(), controller=MvRlsControl(),
                       T=150, master_seed=9)
        report = monte_carlo(cfg, 1)
        traj, verdict = run_episode(param_system(), MvRlsControl(), None,
                                    150, episode_seed(9, 0))
        ep = report.episodes[0]
        assert ep.sup_abs_state == verdict.sup_abs_state
        assert ep.regret == verdict.regret
        assert report.blowup_fraction == 0.0

    def test_curve_excludes_blowups(self):
        cfg = McConfig(system=param_system(5.0), controller=MvRlsControl(),
                       T=150, master_seed=3, collect_curve=True)
        report = monte_carlo(cfg, 40)
        assert 0.0 < report.blowup_fraction < 1.0
        assert report.n_bounded == 40 - round(report.blowup_fraction * 40)
        assert report.mean_sq_curve.shape == (151,)
        assert np.all(np.isfinite(report.mean_sq_curve))


class TestRegretLogfit:
    def _report(self, rows):
        return McReport(seeds=1, master_seed=0, blowup_fraction=0.0,
                        n_bounded=1,
                        checkpoints=tuple(t for t, _ in rows),
                        regret_vs_logT=rows, mean_sq_curve=None)

    def test_recovers_synthetic_slope(self):
        rows = [(T, 3.0 * math.log(T)) for T in (128, 256, 512, 1024, 2048)]
        slope, r2 = regret_logfit(self._report(rows))
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_regret_slope_zero(self):
        rows = [(T, 5.0) for T in (128, 256, 512, 1024, 2048)]
        slope, r2 = regret_logfit(self._report(rows))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_requires_five_checkpoints(self):
        rows = [(T, 1.0) for T in (128, 256, 512)]
        with pytest.raises(ValueError):
            regret_logfit(self._report(rows))


class TestGrowthAudit:
    def _traj(self, values, blow=True):
        arr = np.asarray(values, dtype=float)
        return Trajectory(kind="synthetic", states=arr,
                          inputs=np.zeros(arr.shape[0] - 1),
                          noises=np.zeros_like(arr),
                          blow_step=arr.shape[0] - 1 if blow else None)

    def test_non_blowup_gives_empty_audit(self):
        audit = growth_rate_audit(self._traj([1.0, 2.0, 3.0], blow=False))
        assert audit.multipliers.shape == (0,)

    def test_sampled_escape_multipliers(self):
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0))
        traj, verdict = run_episode(system, ZeroControl(),
                                    SampledGreedyAdversary(), T=48, seed=0)
        assert verdict.outcome is Outcome.BLOWUP
        audit = growth_rate_audit(traj)
        assert np.all(audit.multipliers[:12] >= 4.0 * 0.95)


class TestMjlsClosedLoop:
    def test_gain_schedule_keeps_mean_square_bounded(self):
        # two-mode scalar instance on the stabilizable side of the
        # closed-form test; the certainty-equivalence schedule holds the
        # mean square down over a long horizon
        from feedback_lab import Regime, scalar_mjls_stabilizable
        assert scalar_mjls_stabilizable(0.0, 1.9, 0.5).regime \
            is Regime.STABILIZABLE
        system, controller = mjls_pieces(a2=1.9)
        cfg = McConfig(system=system, controller=controller, T=3000,
                       master_seed=66, collect_curve=True)
        rep = monte_carlo(cfg, 30)
        assert rep.blowup_fraction == 0.0
        assert float(np.max(rep.mean_sq_curve)) < 100.0

    def test_no_control_disperses(self):
        system, _ = mjls_pieces(a2=1.9)
        cfg = McConfig(system=system, controller=ZeroControl(), T=3000,
                       master_seed=66, collect_curve=True)
        rep = monte_carlo(cfg, 30)
        with_ctl = monte_carlo(
            McConfig(system=system, controller=mjls_pieces(a2=1.9)[1],
                     T=3000, master_seed=66, collect_curve=True), 30)
        # open loop is either blowing up or far worse in mean square
        if rep.blowup_fraction == 0.0:
            assert float(np.mean(rep.mean_sq_curve[-100:])) > \
                4.0 * float(np.mean(with_ctl.mean_sq_curve[-100:]))


class TestRandomMembers:
    def test_lipschitz_member_consistent(self):
        rng = np.random.default_rng(0)
        from feedback_lab.sim import random_lipschitz_member
        for _ in range(10):
            g = random_lipschitz_member(2.0, RandomMember(), rng)
            grid = np.linspace(-12, 12, 2001)
            vals = np.array([g(x) for x in grid])
            assert np.max(np.abs(np.diff(vals) / np.diff(grid))) <= 2.0 + 1e-9

    def test_envelope_member_in_class(self):
        rng = np.random.default_rng(1)
        from feedback_lab.sim import random_envelope_member
        for _ in range(10):
            g = random_envelope_member(1.5, 1.0, rng)
            grid = np.linspace(-25, 25, 2001)
            vals = np.array([g(x) for x in grid])
            assert np.all(np.abs(vals) <= 1.5 * np.abs(grid) + 1.0 + 1e-9)
            assert np.max(np.abs(np.diff(vals) / np.diff(grid))) <= 1.5 + 1e-9

    def test_duel_realized_f_stays_in_envelope(self):
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0))
        traj, _ = run_episode(system, SampledCeControl(),
                              SampledGreedyAdversary(), T=13, seed=0)
        g = traj.realized_f
        grid = np.linspace(-25.0, 25.0, 2001)
        vals = np.array([g(x) for x in grid])
        assert np.all(np.abs(vals) <= 1.0 * np.abs(grid) + 1.0 + 1e-9)


class TestCheckpoints:
    def test_default_checkpoints(self):
        assert default_checkpoints(2000) == (128, 256, 512, 1024, 2000)
        assert default_checkpoints(8192) == (128, 256, 512, 1024, 2048,
                                             4096, 8192)
        assert default_checkpoints(100) == (100,)


class TestBoundedDuelReplay:
    """Bounded duels revisit anchors exactly; the feasible interval there
    is the stored value, so the committed value replays bit for bit."""

    SYSTEM = NonparametricSystem(L=2.0, w_bar=1.0, y0_std=1.0)

    def test_master_seeds_replay_bit_for_bit(self):
        for master in range(10):
            traj, verdict = run_episode(self.SYSTEM, SwitchingControl(),
                                        GreedyAdversary(), 500,
                                        episode_seed(master, 0))
            assert verdict.outcome is Outcome.BOUNDED
            assert check_replay(traj), master

    def test_adversary_choose_at_revisited_anchor_returns_stored_value(self):
        traj, _ = run_episode(self.SYSTEM, SwitchingControl(),
                              GreedyAdversary(), 500, episode_seed(1, 0))
        revisits = [t for t in range(1, traj.inputs.shape[0])
                    if traj.states[t] in traj.states[:t]]
        assert revisits
        g = traj.realized_f
        fn = PiecewiseLinearFn(L=2.0, anchors=zip(g.xs, g.vs))
        for t in revisits:
            v, _ = adversary_choose(fn, traj.states[t], traj.inputs[t], 1.0)
            assert v == traj.committed[t] == g(traj.states[t])
        assert len(fn) == g.xs.shape[0]


class TestKernelTraceContract:
    """Episode runners and the solver reach the kernels as module
    attributes, so wrapping those attributes traces every call."""

    TRACED = ("parametric_episode", "nonparam_fixed", "nonparam_duel",
              "sampled_fixed", "sampled_duel", "mjls_episode",
              "riccati_solve")

    def test_runners_reach_every_wrapped_kernel(self, monkeypatch):
        outputs = {name: [] for name in self.TRACED}

        def counting(name, fn):
            def wrapper(*args):
                out = fn(*args)
                outputs[name].append(out)
                return out
            return wrapper

        for name in self.TRACED:
            monkeypatch.setattr(kernels, name,
                                counting(name, getattr(kernels, name)))
        mjls_system, mjls_controller = mjls_pieces()
        for system, controller, adversary, T in (
                (param_system(), MvRlsControl(), None, 50),
                (NonparametricSystem(L=2.0, member=RandomMember()),
                 SwitchingControl(), None, 50),
                (NonparametricSystem(L=6.0), SwitchingControl(),
                 GreedyAdversary(), 20),
                (SampledSystem(spec=SampledSpec(1.0, 1.0, 0.5),
                               member=RandomEnvelopeMember()),
                 SampledCeControl(), None, 5),
                (SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0)),
                 SampledCeControl(), SampledGreedyAdversary(), 5),
                (mjls_system, mjls_controller, None, 50)):
            run_episode(system, controller, adversary, T, seed=0)
        assert {name: len(outs) for name, outs in outputs.items()} == \
            dict.fromkeys(self.TRACED, 1)
        # the fields a tracer reads: the state array, the blow step, the
        # duels' anchor count and the solver's iteration count
        for name in self.TRACED[:-1]:
            out = outputs[name][0]
            assert out[0].ndim >= 1 and int(out[-1]) >= -1
        for name in ("nonparam_duel", "sampled_duel"):
            assert int(outputs[name][0][-2]) >= 1
        assert int(outputs["riccati_solve"][0][2]) >= 1

    @pytest.mark.parametrize("name,make,seed,blows", EPILOGUE_CASES,
                             ids=[case[0] for case in EPILOGUE_CASES])
    def test_steps_read_from_the_return_equal_the_horizon(
            self, monkeypatch, name, make, seed, blows):
        # a tracer counts an episode's steps as the blow step, or the
        # state rows less one; every episode kernel, bounded and blown up
        outputs = []

        def recording(fn):
            def wrapper(*args):
                out = fn(*args)
                outputs.append(out)
                return out
            return wrapper

        for kernel in self.TRACED[:-1]:
            monkeypatch.setattr(kernels, kernel,
                                recording(getattr(kernels, kernel)))
        system, controller, adversary, T = make()
        _, verdict = run_episode(system, controller, adversary, T, seed)
        (out,) = outputs
        blow = int(out[-1])
        assert (blow >= 0) == blows
        assert (blow if blow >= 0 else len(out[0]) - 1) == verdict.horizon
