"""Every kernel against a reference route that does not share its body.

Each kernel has one body, so the references live elsewhere: full-cone
scans written here for the neighbour-only envelope and interval,
linear-scan controllers (``recompute_input``) for the sorted-history
nearest-neighbour choice, the model step operations (replay) for the
states, the reference adversary for the duel's committed values, and
``riccati_rhs`` for the fixed-point iterates.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from feedback_lab import (Extension, GreedyAdversary, MarkovChain,
                          MartingaleDiffVector, MjlsGainControl, MjlsSpec,
                          MjlsSystem, NonparametricSystem, PiecewiseLinearFn,
                          RealizedPiecewiseLinear, SampledCeControl,
                          SampledGreedyAdversary, SampledSpec, SampledSystem,
                          SwitchingControl, Trajectory, adversary_choose,
                          check_replay, controllers, kernels, models,
                          recompute_input, riccati_rhs, run_episode,
                          solve_coupled_riccati)
from feedback_lab._accel import HAS_NUMBA
from feedback_lab.sim import (RandomEnvelopeMember, RandomMember,
                              random_envelope_member, random_lipschitz_member)

GUARD = 1e150


def anchors(seed=0, n=12, L=2.0, span=8.0):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-span, span, n))
    vs = np.empty(n)
    vs[0] = rng.uniform(-1, 1)
    for i in range(1, n):
        vs[i] = vs[i - 1] + rng.uniform(-L, L) * (xs[i] - xs[i - 1])
    return xs, vs


def full_interval(xs, vs, L, x):
    """Intersection of every anchor's cone; the stored value on a hit."""
    hit = xs == x
    if hit.any():
        v = vs[int(np.argmax(hit))]
        return v, v
    d = np.abs(x - xs)
    return float(np.max(vs - L * d)), float(np.min(vs + L * d))


def full_mcshane(xs, vs, L, mode, x):
    lo, hi = full_interval(xs, vs, L, x)
    return (hi, lo, 0.5 * (lo + hi))[mode]


def members():
    """Random Lipschitz members and envelope-clipped members, whose
    clipped runs lie on segments of slope exactly L."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        yield random_lipschitz_member(2.0, RandomMember(), rng), 12.0
        yield random_envelope_member(1.5, 1.0, RandomEnvelopeMember(), rng), 25.0


def queries(f, span, rng):
    return np.concatenate([rng.uniform(-span, span, 60), f.xs])


class TestScalarHelpersAgree:
    def test_power_eval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            M = float(rng.uniform(0.1, 5))
            b = float(rng.uniform(0, 6))
            y = float(rng.standard_normal() * 10)
            ref = math.copysign(M * abs(y) ** b, y)
            assert kernels.power_eval(M, b, y) == ref
        assert kernels.power_eval(2.0, 0.0, 0.0) == 0.0

    def test_mcshane_eval(self):
        # neighbour-only evaluation equals the full-cone scan bit for bit
        rng = np.random.default_rng(2)
        for f, span in members():
            for x in queries(f, span, rng):
                for mode in (0, 1, 2):
                    assert kernels.mcshane_eval(
                        f.xs, f.vs, f.xs.shape[0], f.L, mode, float(x)) == \
                        full_mcshane(f.xs, f.vs, f.L, mode, float(x))

    def test_exact_anchor_hit_returns_stored_value(self):
        xs, vs = anchors()
        for i in range(xs.shape[0]):
            assert kernels.interval(xs, vs, xs.shape[0], 2.0, xs[i]) == \
                (vs[i], vs[i])
            for mode in (0, 1, 2):
                assert kernels.mcshane_eval(xs, vs, xs.shape[0], 2.0, mode,
                                            xs[i]) == vs[i]

    def test_interval(self):
        rng = np.random.default_rng(3)
        for f, span in members():
            for x in queries(f, span, rng):
                assert kernels.interval(f.xs, f.vs, f.xs.shape[0], f.L,
                                        float(x)) == \
                    full_interval(f.xs, f.vs, f.L, float(x))
        assert kernels.interval(np.zeros(4), np.zeros(4), 0, 1.0, 3.0) == \
            (-np.inf, np.inf)

    def test_duel_stores_within_rounding_of_full_scan(self):
        # the greedy opponent commits cone endpoints, so its anchors sit on
        # segments of slope exactly L; there the neighbours' cones and the
        # full scan may round apart by a few ulps, never more
        rng = np.random.default_rng(4)
        for L in (2.0, 6.0):
            out = kernels.nonparam_duel(0.4, L, 1.0, 10.0, 0.1, 0.0, GUARD,
                                        200, 1)
            xs, vs = out[4][:out[6]], out[5][:out[6]]
            for x in rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 300):
                for mode in (0, 1):
                    a = kernels.mcshane_eval(xs, vs, xs.shape[0], L, mode, x)
                    b = full_mcshane(xs, vs, L, mode, x)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _same(a, b):
    return a == b or (a != a and b != b)


def probes(keys):
    """Anchor hits, points between anchors, points beyond both ends,
    +-inf and NaN."""
    out = [-np.inf, np.inf, np.nan, 0.0]
    if keys:
        out += keys + [keys[0] - 1.0, keys[-1] + 1.0, keys[0] * 2.0,
                       keys[-1] * 2.0]
        out += [0.5 * a + 0.5 * b for a, b in zip(keys, keys[1:])]
    return out


class TestLocatedIndex:
    """The located index is np.searchsorted's (left side), from any guess,
    and the cone at it is the interval."""

    @given(keys=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   min_value=-1e300, max_value=1e300),
                         max_size=10, unique=True).map(sorted),
           extra=st.floats(allow_nan=True, allow_infinity=True),
           pad=st.integers(0, 2))
    @example(keys=[], extra=1.0, pad=2)
    @example(keys=[2.0], extra=3.0, pad=1)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bisect_and_locate_equal_searchsorted(self, keys, extra, pad):
        n = len(keys)
        # spare capacity past n holds keys that would break the order
        xs = np.array(keys + [-np.inf] * pad, dtype=float)
        vs = np.cos(np.arange(xs.shape[0], dtype=float))
        for x in probes(keys) + [extra]:
            ref = int(np.searchsorted(xs[:n], x))
            assert kernels._bisect(xs, n, x) == ref, x
            lo, hi = kernels.interval(xs, vs, n, 1.5, x)
            cone = kernels._cone(xs, vs, n, 1.5, x, ref)
            assert _same(cone[0], lo) and _same(cone[1], hi), x
            for j in range(-1, n + 2):
                assert kernels._locate(xs, n, x, j) == ref, (x, j)
                for mode in (0, 1, 2):
                    v, i = kernels._mcshane_from(xs, vs, n, 1.5, mode, x, j)
                    assert i == ref
                    assert _same(v, kernels.mcshane_eval(xs, vs, n, 1.5,
                                                         mode, x))

    @pytest.mark.skipif(HAS_NUMBA, reason="compiled kernels bind _bisect")
    def test_rk4_stages_mostly_skip_bisection(self, monkeypatch):
        # RK4 stages land in the bracket of the evaluation before, so the
        # guess serves nearly all of 200 periods x 64 substeps x 4 stages
        calls = [0]
        bisect = kernels._bisect

        def counted(xs, n, x):
            calls[0] += 1
            return bisect(xs, n, x)

        monkeypatch.setattr(kernels, "_bisect", counted)
        rng = np.random.default_rng(12)
        f = random_envelope_member(1.0, 1.0, RandomEnvelopeMember(), rng)
        _, _, blow = kernels.sampled_fixed(0.7, f.xs, f.vs, f.L, f.ext_mode,
                                           1.0, 0.5, 64, 4.0, 200, GUARD, 1)
        assert blow == -1
        assert calls[0] <= 0.02 * 200 * 64 * 4


class TestSortedStores:
    def test_insert_keeps_first_value_sorted_and_distinct(self):
        rng = np.random.default_rng(5)
        keys_in = rng.integers(-20, 20, 300).astype(float)
        keys = np.zeros(64)
        vals = np.zeros(64, dtype=np.int64)
        n = 0
        for t, key in enumerate(keys_in):
            n = kernels._insert(keys, vals, n, kernels._bisect(keys, n, key),
                                key, t)
        uniq, first = np.unique(keys_in, return_index=True)
        assert n == uniq.shape[0]
        assert np.array_equal(keys[:n], uniq)
        assert np.array_equal(vals[:n], first)

    def test_insert_stops_at_capacity(self):
        keys = np.zeros(3)
        vals = np.zeros(3)
        n = 0
        for key in (3.0, 1.0, 2.0, 0.0):
            n = kernels._insert(keys, vals, n, kernels._bisect(keys, n, key),
                                key, key)
        assert n == 3
        assert np.array_equal(keys, [1.0, 2.0, 3.0])

    def test_visit_matches_linear_scan_on_ties(self):
        # states on a dyadic grid repeat and sit exactly midway between
        # two others, so distance ties are frequent
        rng = np.random.default_rng(6)
        states = rng.integers(-256, 256, 400) / 16.0
        keys = np.zeros(400)
        steps = np.zeros(400, dtype=np.int64)
        n = 0
        hist = controllers.NnHistory()
        ties = repeats = 0
        for t, y in enumerate(states):
            k, gap, n = kernels._visit(keys, steps, n, y, t)
            if t == 0:
                assert (k, gap, n) == (-1, np.inf, 1)
            else:
                d = np.abs(y - states[:t])
                ties += np.unique(states[:t][d == d.min()]).shape[0] > 1
                repeats += d.min() == 0.0
                assert (k, gap) == (int(np.argmin(d)), d.min())
                assert controllers.nn_estimate(hist, y) == \
                    (hist.ynexts[k] - hist.us[k], gap)
            hist.append(y, 0.5 * t, float(t))
        assert np.array_equal(keys[:n], np.unique(states))
        assert ties > 20 and repeats > 20


class Uniforms:
    """Stands in for a generator, handing out the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _trajectory(kind, states, inputs, noises, system, controller):
    return Trajectory(kind=kind, states=states, inputs=inputs, noises=noises,
                      system=system, realized_f=getattr(system, "f", None),
                      controller=controller)


def _assert_inputs_recomputable(traj):
    for t in range(traj.inputs.shape[0]):
        assert recompute_input(traj, t) == traj.inputs[t], t


class TestEpisodeKernelsAgree:
    def test_parametric(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(2001)
        for b in (1.5, 2.0, 3.5, 5.0):
            f = models.PowerGrowthFn(1.0, b)
            ys, us, ths, blow = kernels.parametric_episode(
                0.0, 1.3, w, 1.0, b, 1.0, 1.0, GUARD)
            state = controllers.make_rls(s0=1.0, theta0=1.0)
            end = blow if blow >= 0 else w.shape[0] - 1
            for t in range(end):
                phi = models.eval_power(f, ys[t])
                assert us[t] == controllers.adaptive_mv_control(state, phi)
                try:
                    y1 = models.step_parametric(ys[t], 1.3, us[t], w[t + 1], f)
                except models.Overflow as exc:
                    y1 = exc.value
                assert np.array_equal(y1, ys[t + 1], equal_nan=True)
                state = controllers.rls_update(state, phi, ys[t + 1] - us[t])
                if t + 1 < end:
                    assert ths[t + 1] == state.theta_hat

    def test_nonparam_fixed(self):
        xs, vs = anchors(seed=5)
        f = RealizedPiecewiseLinear(xs, vs, 2.0)
        rng = np.random.default_rng(6)
        raw = rng.uniform(-1, 1, 401)
        raw[0] = 0.0
        system = NonparametricSystem(L=2.0, f=f)
        ys, us, blow = kernels.nonparam_fixed(0.3, xs, vs, 2.0, 0, raw, 1.0,
                                              0.1, 0.0, GUARD, 1)
        traj = _trajectory("nonparametric", ys, us, raw, system,
                           SwitchingControl())
        _assert_inputs_recomputable(traj)
        assert check_replay(traj)

    def test_nonparam_fixed_tie_rule(self):
        # f == 0 and dyadic noise keep every state on a dyadic grid: states
        # repeat and fall exactly midway between two earlier ones
        f = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.0]), 1.0,
                                    Extension.MIDPOINT)
        rng = np.random.default_rng(0)
        raw = rng.integers(-64, 65, 401) / 64.0
        raw[0] = 0.0
        system = NonparametricSystem(L=1.0, f=f)
        ys, us, blow = kernels.nonparam_fixed(0.0, f.xs, f.vs, 1.0, 2, raw,
                                              1.0, 0.1, 0.0, GUARD, 1)
        assert blow == -1
        ties = repeats = 0
        for t in range(1, 400):
            d = np.abs(ys[t] - ys[:t])
            ties += np.unique(ys[:t][d == d.min()]).shape[0] > 1
            repeats += d.min() == 0.0
        assert ties > 10 and repeats > 100
        traj = _trajectory("nonparametric", ys, us, raw, system,
                           SwitchingControl())
        _assert_inputs_recomputable(traj)

    def test_nonparam_duel(self):
        for L in (2.0, 6.0):
            system = NonparametricSystem(L=L, y0_std=1.0)
            traj, _ = run_episode(system, SwitchingControl(),
                                  GreedyAdversary(), 150, seed=3)
            assert check_replay(traj)
            _assert_inputs_recomputable(traj)

    def test_nonparam_duel_commits_what_the_reference_adversary_picks(self):
        # a bounded run and escaping runs, which the reference store follows
        # out to the guard on its magnitude-scaled consistency tolerance
        cases = [(2.0, 150, 3)] + [(6.0, 500, seed) for seed in range(5)]
        for L, T, seed in cases:
            system = NonparametricSystem(L=L, y0_std=1.0)
            traj, _ = run_episode(system, SwitchingControl(),
                                  GreedyAdversary(), T, seed=seed)
            fn = PiecewiseLinearFn(L=L)
            for t in range(traj.inputs.shape[0]):
                v, w = adversary_choose(fn, traj.states[t], traj.inputs[t],
                                        1.0)
                assert (v, w) == (traj.committed[t], traj.noises[t + 1]), \
                    (L, seed, t)
            if L == 6.0:
                assert traj.blow_step is not None

    def test_rk4(self):
        xs, vs = anchors(seed=7, L=1.0)
        for u in (-1.0, 0.0, 2.0):
            dt = 0.7 / 32
            xx = 0.5
            for _ in range(32):
                k1 = full_mcshane(xs, vs, 1.0, 0, xx) + u
                k2 = full_mcshane(xs, vs, 1.0, 0, xx + 0.5 * dt * k1) + u
                k3 = full_mcshane(xs, vs, 1.0, 0, xx + 0.5 * dt * k2) + u
                k4 = full_mcshane(xs, vs, 1.0, 0, xx + dt * k3) + u
                xx = xx + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert kernels.rk4_mcshane(xs, vs, xs.shape[0], 1.0, 0, 0.5, u,
                                       0.7, 32, GUARD) == xx

    def test_sampled_fixed(self):
        xs, vs = anchors(seed=8, L=1.0)
        spec = SampledSpec(L=1.0, c=1.0, h=0.5, substeps=32)
        f = RealizedPiecewiseLinear(xs, vs, 1.0)
        system = SampledSystem(spec=spec, f=f)
        out, us, blow = kernels.sampled_fixed(0.7, xs, vs, 1.0, 0, 1.0, 0.5,
                                              32, 4.0, 50, GUARD, 1)
        traj = _trajectory("sampled", out, us, np.zeros(51), system,
                           SampledCeControl())
        _assert_inputs_recomputable(traj)
        assert check_replay(traj)

    def test_sampled_control_tie_rule(self):
        # the certainty-equivalence input over a sorted history with
        # repeated and equidistant samples equals the linear scan
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        rng = np.random.default_rng(9)
        xs = rng.integers(-256, 256, 301) / 16.0
        us = rng.uniform(-1, 1, 300)
        keys = np.zeros(300)
        steps = np.zeros(300, dtype=np.int64)
        n = 0
        for k in range(300):
            samples = [(xs[i], us[i], xs[i + 1]) for i in range(k)]
            u, n = kernels._ce_input(xs, us, keys, steps, n, k, xs[k], 1.0,
                                     1.0, 0.5, 4.0)
            assert u == controllers.sampled_control(samples, xs[k], spec)

    def test_sampled_duel(self):
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0, substeps=16))
        traj, _ = run_episode(system, SampledCeControl(),
                              SampledGreedyAdversary(), 20, seed=0)
        assert check_replay(traj)
        _assert_inputs_recomputable(traj)

    def test_mjls(self):
        rng = np.random.default_rng(9)
        chain = MarkovChain(np.array([[0.6, 0.4], [0.3, 0.7]]))
        spec = MjlsSpec(chain=chain, A=rng.standard_normal((2, 2, 2)) * 0.4,
                        B=rng.standard_normal((2, 2, 1)),
                        noise=MartingaleDiffVector(1.0, 3.0, 2))
        controller = MjlsGainControl(solve_coupled_riccati(spec).solution)
        system = MjlsSystem(spec=spec, x0=(0.5, -0.2))
        for seed in range(3):
            traj, _ = run_episode(system, controller, None, 300, seed)
            assert check_replay(traj)
            for t in range(traj.inputs.shape[0]):
                assert np.allclose(recompute_input(traj, t), traj.inputs[t],
                                   rtol=1e-12, atol=1e-12)
        # the mode draws bisect cumulative rows; the reference sampler
        # accumulates the row, fed the same uniforms
        munif = rng.random(300)
        out = kernels.mjls_episode(spec.A, spec.B, controller.solution.Ks,
                                   spec.chain.P, np.zeros(2), 0, munif,
                                   rng.standard_normal((300, 2)), GUARD, 1)
        uniforms = Uniforms(munif)
        for t in range(300):
            assert models.markov_next(int(out[2][t]) + 1, chain,
                                      uniforms) == out[2][t + 1] + 1

    def test_riccati(self):
        chain = MarkovChain(np.full((2, 2), 0.5))
        spec = MjlsSpec(chain=chain, A=np.array([[[0.0]], [[1.9]]]),
                        B=np.ones((2, 1, 1)),
                        noise=MartingaleDiffVector(1.0, 1.0, 1))
        Ms = np.array([np.eye(1), np.eye(1)])
        for k in range(1, 30):
            Ms = np.array([riccati_rhs(Ms, spec, i + 1) for i in range(2)])
            out = kernels.riccati_solve(spec.A, spec.B, spec.chain.P, 0.0, k,
                                        1e12, 1e-10)
            assert np.allclose(out[0], Ms, rtol=1e-12, atol=1e-14)
