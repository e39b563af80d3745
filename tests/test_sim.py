import math
import sys
import typing
from dataclasses import replace

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
                          recompute_input, regret_logfit, replay_states,
                          run_episode, sim,
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
    # blow-ups whose last state or last regret term is not finite
    ("parametric-nan", lambda: (param_system(20.0), MvRlsControl(), None, 50),
     0, True),
    ("nonparam-member-inf", lambda: (NonparametricSystem(
        L=1e300, member=RandomMember(), y0_std=1e10), SwitchingControl(),
        None, 50), 0, True),
    ("nonparam-duel-overflow", lambda: (NonparametricSystem(
        L=1e300, y0_std=1.0), SwitchingControl(), GreedyAdversary(), 50), 0,
     True),
    # the opponent's value L|y| + budget overflows; it commits at the edge
    # of double range, so the realization stays finite
    ("nonparam-duel-inf", lambda: (NonparametricSystem(
        L=1e300, y0_std=1e10), SwitchingControl(), GreedyAdversary(), 50), 0,
     True),
    ("sampled-fixed-inf", lambda: (SampledSystem(
        spec=SampledSpec(1000.0, 1.0, 1.0), f=RealizedPiecewiseLinear(
            [0.0], [1.0], 1000.0)), SampledCeControl(), None, 20), 0, True),
    ("sampled-duel-inf", lambda: (SampledSystem(
        spec=SampledSpec(1000.0, 1.0, 1.0), x0_std=1.0), SampledCeControl(),
        SampledGreedyAdversary(), 20), 0, True),
    ("mjls-nan", lambda: (MjlsSystem(spec=MjlsSpec(
        chain=MarkovChain(np.array([[1.0]])),
        A=np.array([[[1e300, -1e300], [0.0, 1.0]]]), B=np.ones((1, 2, 1)),
        noise=MartingaleDiffVector(1.0, 2.0, 2)), x0=(1e10, 1e10)),
        ZeroControl(), None, 20), 0, True),
]


def masked_epilogue(states, noises, checkpoints):
    """An episode's figures by the masked two-pass formulas: the largest
    finite |state|, the squared tracking errors |y_t - w_t|^2 of steps
    1.. with every non-finite one counted 0, their pairwise sum, and the
    running sum of the same terms read at each checkpoint (at the last
    step where the episode ended before it)."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = (np.abs(states) if states.ndim == 1
             else np.sqrt(np.sum(states * states, axis=1)))
        d = states - noises[:len(states)]
        terms = d[1:] ** 2 if d.ndim == 1 else np.sum(d[1:] ** 2, axis=1)
    sup = float(np.max(a[np.isfinite(a)]))
    terms = np.where(np.isfinite(terms), terms, 0.0)
    csum = np.cumsum(terms)
    return (sup, float(np.sum(terms)),
            tuple(float(csum[min(tc, csum.shape[0]) - 1])
                  for tc in checkpoints))


def _bits(x):
    return np.float64(x).tobytes()


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

    @pytest.mark.parametrize("L, y0_std", [(1e300, 1e10), (1e200, 1e120)])
    def test_overflowing_duel_commit_blows_up_and_replays(self, L, y0_std):
        # the opponent's value L|y| + budget overflows at step 1; it
        # commits at the largest double, so the episode blows up there and
        # replays through a finite realization
        system = NonparametricSystem(L=L, y0_std=y0_std)
        for seed in range(4):
            traj, verdict = run_episode(system, SwitchingControl(),
                                        GreedyAdversary(), 50, seed)
            assert verdict.outcome is Outcome.BLOWUP, seed
            assert verdict.blow_step == 1, seed
            assert traj.committed.tolist() == [sys.float_info.max]
            assert check_replay(traj), seed

    @pytest.mark.parametrize("L, x0_std", [(1e300, 1e10), (1e200, 1e120)])
    def test_overflowing_sampled_duel_commit_blows_up_and_replays(self, L,
                                                                 x0_std):
        # the cone from the start anchor (0, c) overflows at the first
        # sample; the value commits at the largest double, so the episode
        # blows up there and replays through a finite realization
        system = SampledSystem(spec=SampledSpec(L, 1.0, 1.0), x0_std=x0_std)
        for seed in range(3):
            traj, verdict = run_episode(system, SampledCeControl(),
                                        SampledGreedyAdversary(), 20, seed)
            assert verdict.outcome is Outcome.BLOWUP, seed
            assert verdict.blow_step == 1, seed
            assert traj.committed.tolist() == [sys.float_info.max]
            assert check_replay(traj), seed

    @pytest.mark.parametrize("L, h, x0_std", [(2.0, 1.0, 1e307),
                                              (1e300, 1e-300, 1e10)])
    def test_sampled_tail_past_double_range_replays(self, L, h, x0_std):
        # a sweep along a free tail ends where the envelope's value is past
        # double range: the tail closes without an anchor there, and the
        # episode, blown up at step 1 or still running, replays
        system = SampledSystem(spec=SampledSpec(L, 1.0, h), x0_std=x0_std)
        for seed in range(10):
            traj, verdict = run_episode(system, SampledCeControl(),
                                        SampledGreedyAdversary(), 30, seed)
            assert np.isfinite(traj.realized_f.vs).all(), seed
            assert check_replay(traj), seed
            # an input past double range leaves no state at rest
            if verdict.outcome is Outcome.BOUNDED:
                assert np.isfinite(traj.inputs).all(), seed

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
        if isinstance(traj.system, MjlsSystem):
            assert len(traj.modes) == len(traj.mode_estimates) == n

    @pytest.mark.parametrize("name,make,seed,blows", EPILOGUE_CASES,
                             ids=[case[0] for case in EPILOGUE_CASES])
    def test_figures_equal_the_masked_formulas(self, monkeypatch, name, make,
                                               seed, blows):
        # the verdict's sup and regret and the summary's checkpoint
        # regrets, bit for bit, bounded and blown up, finite or not
        system, controller, adversary, T = make()
        checkpoints = (1, max(1, T // 3), T)
        monkeypatch.setattr(sim, "episode_seed", lambda master, index: seed)
        summary, _ = _episode_summary(
            McConfig(system, controller, adversary, T,
                     checkpoints=checkpoints), 0)
        traj, verdict = run_episode(system, controller, adversary, T, seed)
        assert (summary.outcome is Outcome.BLOWUP) == blows
        sup, regret, regret_at = masked_epilogue(traj.states, traj.noises,
                                                 checkpoints)
        assert _bits(verdict.sup_abs_state) == _bits(sup)
        assert _bits(summary.sup_abs_state) == _bits(sup)
        assert _bits(verdict.regret) == _bits(regret)
        assert _bits(summary.regret) == _bits(regret)
        assert list(map(_bits, summary.regret_at)) == list(map(_bits,
                                                               regret_at))


# every system the admission matrix runs, by name
MATRIX_SYSTEMS = {
    "parametric": param_system,
    "nonparam-f": lambda: NonparametricSystem(
        L=1.0, f=RealizedPiecewiseLinear(np.array([0.0, 1.0]),
                                         np.array([0.0, 0.5]), 1.0)),
    "nonparam-member": lambda: NonparametricSystem(L=1.0,
                                                   member=RandomMember()),
    "nonparam-neither": lambda: NonparametricSystem(L=1.0),
    "sampled-f": lambda: SampledSystem(
        spec=SampledSpec(1.0, 1.0, 0.5),
        f=RealizedPiecewiseLinear(np.array([0.0]), np.array([1.0]), 1.0)),
    "sampled-member": lambda: SampledSystem(spec=SampledSpec(1.0, 1.0, 0.5),
                                            member=RandomEnvelopeMember()),
    "sampled-neither": lambda: SampledSystem(spec=SampledSpec(1.0, 1.0, 0.5)),
    "jump-linear": lambda: mjls_pieces()[0],
}
MATRIX_CONTROLLERS = {
    "ZeroControl": ZeroControl,
    "MvRlsControl": MvRlsControl,
    "SwitchingControl": SwitchingControl,
    "SampledCeControl": SampledCeControl,
    "MjlsGainControl": lambda: mjls_pieces()[1],
}
MATRIX_ADVERSARIES = {
    "None": lambda: None,
    "GreedyAdversary": GreedyAdversary,
    "SampledGreedyAdversary": SampledGreedyAdversary,
}
# the (controller, adversary) pairs each system runs under; every other
# combination is a ConfigurationError.  The parametric and nonparametric
# verdicts are about the RLS and switching laws, so neither runs open loop
ADMITTED = {
    "parametric": {("MvRlsControl", "None")},
    "nonparam-f": {("SwitchingControl", "None")},
    "nonparam-member": {("SwitchingControl", "None")},
    "nonparam-neither": {("SwitchingControl", "GreedyAdversary")},
    "sampled-f": {("ZeroControl", "None"), ("SampledCeControl", "None")},
    "sampled-member": {("ZeroControl", "None"), ("SampledCeControl", "None")},
    "sampled-neither": {("ZeroControl", "SampledGreedyAdversary"),
                        ("SampledCeControl", "SampledGreedyAdversary")},
    "jump-linear": {("ZeroControl", "None"), ("MjlsGainControl", "None")},
}
MATRIX = [(s, c, a) for s in MATRIX_SYSTEMS for c in MATRIX_CONTROLLERS
          for a in MATRIX_ADVERSARIES]


class TestConfigurationErrors:
    @pytest.mark.parametrize("system, controller, adversary", MATRIX,
                             ids=["-".join(case) for case in MATRIX])
    def test_admission_matrix(self, system, controller, adversary):
        # every system, controller and adversary combination: the admitted
        # ones run a 10-step episode, the others are configuration errors
        args = (MATRIX_SYSTEMS[system](), MATRIX_CONTROLLERS[controller](),
                MATRIX_ADVERSARIES[adversary]())
        if (controller, adversary) not in ADMITTED[system]:
            with pytest.raises(ConfigurationError):
                run_episode(*args, 10, 0)
            return
        traj, verdict = run_episode(*args, 10, 0)
        assert len(traj.states) == verdict.horizon + 1
        assert (traj.committed is not None) == (adversary != "None")
        assert check_replay(traj)
        # the jump-linear gains' dots round apart from the reference's
        # matrix products in the last bits; every scalar input is exact
        for t in range(traj.inputs.shape[0]):
            u = recompute_input(traj, t)
            if system == "jump-linear":
                assert np.allclose(u, traj.inputs[t], rtol=1e-12,
                                   atol=1e-12), t
            else:
                assert _bits(u) == _bits(traj.inputs[t]), t

    def test_rows_cover_each_system_class_once(self):
        classes = [row[0] for row in sim._ADMISSION]
        assert sorted(classes, key=lambda c: c.__name__) == sorted(
            typing.get_args(sim.SystemSpec), key=lambda c: c.__name__)

    def test_system_of_no_class_is_a_configuration_error(self):
        # admission, replay and input recompute find the class through one
        # lookup; a system of no row's class fails each, zero control too
        traj, _ = run_episode(mjls_expanding(), ZeroControl(), None, 5, 0)
        stranger = replace(traj, system=object())
        for call in (lambda: run_episode(object(), ZeroControl(), None, 5),
                     lambda: replay_states(stranger),
                     lambda: recompute_input(stranger, 0)):
            with pytest.raises(ConfigurationError, match="unknown system"):
                call()

    def test_rejected_before_any_draw(self, monkeypatch):
        # the admission check runs before a runner builds its generator
        cases = [(MATRIX_SYSTEMS[s](), MATRIX_CONTROLLERS[c](),
                  MATRIX_ADVERSARIES[a]()) for s, c, a in MATRIX
                 if (c, a) not in ADMITTED[s]]

        def no_generator(seed):
            raise AssertionError("a rejected episode built its generator")

        monkeypatch.setattr(np.random, "PCG64", no_generator)
        for args in cases:
            with pytest.raises(ConfigurationError):
                run_episode(*args, 10, 0)

    def test_mjls_start_is_required(self):
        with pytest.raises(TypeError, match="x0"):
            MjlsSystem(spec=mjls_expanding().spec)

    @pytest.mark.parametrize("x0", [(), (1.0, 2.0), (math.nan,),
                                    (-math.inf,)],
                             ids=["empty", "wrong_length", "nan", "inf"])
    def test_mjls_start_must_fit_the_spec(self, x0):
        # a start no episode can run is rejected where it is built
        with pytest.raises(ConfigurationError, match="x0"):
            MjlsSystem(spec=mjls_expanding().spec, x0=x0)

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
                states=traj.states.copy(), inputs=traj.inputs.copy(),
                noises=traj.noises.copy(), system=traj.system,
                theta=traj.theta, realized_f=traj.realized_f,
                controller=traj.controller)
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
        # a constant series has no growth to fit: slope 0 and r^2 NaN, not
        # a perfect fit of no growth
        rows = [(T, 5.0) for T in (128, 256, 512, 1024, 2048)]
        slope, r2 = regret_logfit(self._report(rows))
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(r2)

    def test_requires_five_checkpoints(self):
        rows = [(T, 1.0) for T in (128, 256, 512)]
        with pytest.raises(ValueError):
            regret_logfit(self._report(rows))


class TestGrowthAudit:
    def _traj(self, values, blow=True):
        arr = np.asarray(values, dtype=float)
        return Trajectory(states=arr, inputs=np.zeros(arr.shape[0] - 1),
                          noises=np.zeros_like(arr),
                          blow_step=arr.shape[0] - 1 if blow else None)

    def test_non_blowup_gives_empty_audit(self):
        traj = self._traj([1.0, 2.0, 3.0], blow=False)
        assert growth_rate_audit(traj).shape == (0,)

    def test_sampled_escape_multipliers(self):
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0))
        traj, verdict = run_episode(system, ZeroControl(),
                                    SampledGreedyAdversary(), T=48, seed=0)
        assert verdict.outcome is Outcome.BLOWUP
        multipliers = growth_rate_audit(traj)
        assert np.all(multipliers[:12] >= 4.0 * 0.95)


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

    # each traced kernel's array returns as (dtype, length), from the steps
    # s the episode ran and the anchors a its store holds
    ARRAYS = {
        "parametric_episode": lambda s, a: [("f8", s + 1), ("f8", s)],
        "nonparam_fixed": lambda s, a: [("f8", s + 1), ("f8", s)],
        "nonparam_duel": lambda s, a: [("f8", s + 1), ("f8", s),
                                       ("f8", s + 1), ("f8", s), ("f8", a),
                                       ("f8", a)],
        "sampled_fixed": lambda s, a: [("f8", s + 1), ("f8", s)],
        "sampled_duel": lambda s, a: [("f8", s + 1), ("f8", s), ("f8", s),
                                      ("f8", a), ("f8", a), ("i8", a + 1)],
        "mjls_episode": lambda s, a: [("f8", s + 1), ("f8", s),
                                      ("i8", s + 1), ("i8", s + 1)],
    }

    @pytest.mark.parametrize("name,make,seed,blows", EPILOGUE_CASES,
                             ids=[case[0] for case in EPILOGUE_CASES])
    def test_returns_are_writable_contiguous_arrays(
            self, monkeypatch, name, make, seed, blows):
        # every array a traced kernel returns is C-contiguous and writable,
        # of its dtype, with one entry per step it reached
        outputs = []

        def recording(kernel, fn):
            def wrapper(*args):
                out = fn(*args)
                outputs.append((kernel, out))
                return out
            return wrapper

        for kernel in self.TRACED:
            monkeypatch.setattr(kernels, kernel,
                                recording(kernel, getattr(kernels, kernel)))
        system, controller, adversary, T = make()
        _, verdict = run_episode(system, controller, adversary, T, seed)
        for kernel, out in outputs:
            if kernel == "riccati_solve":
                Ms, _, _, _, Ks = out
                arrays = [(Ms, "f8", Ms.shape[0])]
                arrays += [] if Ks is None else [(Ks, "f8", Ms.shape[0])]
            else:
                anchors = int(out[-2]) if kernel.endswith("duel") else 0
                expected = self.ARRAYS[kernel](verdict.horizon, anchors)
                got = [a for a in out if isinstance(a, np.ndarray)]
                assert len(got) == len(expected)
                arrays = [(a, dtype, n) for a, (dtype, n) in zip(got,
                                                                 expected)]
            for a, dtype, n in arrays:
                assert a.dtype == np.dtype(dtype) and a.shape[0] == n
                assert a.flags.c_contiguous and a.flags.writeable
