import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedback_lab import (GUARD, GaussianIID, MarkovChain,
                          MartingaleDiffVector, MjlsSpec, PiecewiseLinearFn,
                          PowerGrowthFn, RealizedPiecewiseLinear, SampledSpec,
                          eval_power, integrate_sampled, markov_next,
                          step_mjls, step_nonparametric, step_parametric)
from feedback_lab.models import NOISE_CAP, ConfigurationError
from feedback_lab.sim import (Outcome, SampledSystem, ZeroControl,
                              check_replay, random_envelope_member,
                              run_episode)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestEvalPower:
    def test_zero_input(self):
        assert eval_power(PowerGrowthFn(1, 2), 0.0) == 0.0

    def test_identity_map(self):
        assert eval_power(PowerGrowthFn(1, 1), -3.0) == -3.0

    def test_hand_value(self):
        # 2 * 2^3
        assert eval_power(PowerGrowthFn(2, 3), 2.0) == 16.0

    @pytest.mark.parametrize("M, b", [(0.0, 2.0), (math.nan, 2.0),
                                      (math.inf, 2.0), (1.0, -0.5),
                                      (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_nonpositive_or_nonfinite(self, M, b):
        with pytest.raises(ValueError, match="finite"):
            PowerGrowthFn(M, b)

    def test_constant_gain_at_b_zero(self):
        f = PowerGrowthFn(3, 0)
        assert eval_power(f, 5.0) == 3.0
        assert eval_power(f, -5.0) == -3.0
        assert eval_power(f, 0.0) == 0.0

    @given(x=finite_floats, b=st.floats(min_value=0.01, max_value=6),
           M=st.floats(min_value=0.01, max_value=10))
    def test_odd_symmetry(self, x, b, M):
        f = PowerGrowthFn(M, b)
        assert eval_power(f, -x) == -eval_power(f, x)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerGrowthFn(0, 2)
        with pytest.raises(ValueError):
            PowerGrowthFn(1, -0.5)


class TestStepParametric:
    def test_exact_cancellation(self):
        assert step_parametric(1, 1, -1, 0, PowerGrowthFn(1, 2)) == 0.0

    def test_hand_value(self):
        # 0.5 * 4 + 0.1
        assert step_parametric(2, 0.5, 0, 0.1, PowerGrowthFn(1, 2)) == 2.1

    def test_direct_power(self):
        assert step_parametric(10, 1, 0, 0, PowerGrowthFn(1, 4)) == 10000.0

    def test_state_beyond_guard_returned_unraised(self):
        # the kernels classify a blow-up; the step returns its state as is
        assert step_parametric(1e40, 1.0, 0.0, 0.0, PowerGrowthFn(1, 4)) \
            == 1e40 ** 4 > GUARD
        assert step_parametric(1e100, 1.0, 0.0, 0.0,
                               PowerGrowthFn(1, 4)) == math.inf
        assert math.isnan(step_parametric(1e100, 1.0, -math.inf, 0.0,
                                          PowerGrowthFn(1, 4)))


def rk4_reference(xs, vs, modes, L, x0, u, h, substeps):
    """Classical fourth-order Runge-Kutta over one period for each row:
    anchors ``xs``, ``vs``, per-interval ``modes`` (the left tail first),
    start ``x0`` and input ``u``.  Each envelope is scanned over every
    anchor (McShane), and x's interval picks the mode."""
    upper = not modes.any()

    def f(x):
        d = L * np.abs(x[:, None] - xs)
        hi = np.min(vs + d, axis=1)
        if upper:
            return hi
        lo = np.max(vs - d, axis=1)
        m = modes[np.arange(x.shape[0]), (xs < x[:, None]).sum(axis=1)]
        return np.where(m == 0, hi, lo)

    dt = h / substeps
    x = np.array(x0, dtype=float)
    for _ in range(substeps):
        k1 = f(x) + u
        k2 = f(x + 0.5 * dt * k1) + u
        k3 = f(x + 0.5 * dt * k2) + u
        k4 = f(x + dt * k3) + u
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _line(slope, span=6.0):
    # exact on [-span, span]: the upper envelope of two anchors on a line
    # of slope +-L is that line between them
    xs = np.array([-span, span])
    vs = slope * xs
    return RealizedPiecewiseLinear(xs, vs, abs(slope))


class TestStepNonparametric:
    def test_linear_map(self):
        assert step_nonparametric(3.0, _line(2.0), -6.0, 0.0) == 0.0

    def test_single_anchor_extension(self):
        f = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.0]), 1.0)
        assert step_nonparametric(5.0, f, 0.0, 0.0) == 5.0


class TestIntegrateSampled:
    def test_exponential_growth(self):
        spec = SampledSpec(L=1.0, c=1.0, h=1.0)
        out = integrate_sampled(1.0, _line(1.0), 0.0, spec)
        assert out == pytest.approx(math.e, abs=1e-6)

    def test_exponential_decay(self):
        spec = SampledSpec(L=1.0, c=1.0, h=math.log(2.0))
        out = integrate_sampled(4.0, _line(-1.0), 0.0, spec)
        assert out == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_signed_lines_are_the_closed_form(self, L):
        # one anchor (0, 0.5): the upper envelope's right tail is the line
        # 0.5 + Lx, the lower one's 0.5 - Lx; the flow along such a line
        # of slope +-L is x* + (x0 - x*) e^{+-Lh}, bit for bit, away from
        # its equilibrium x* or towards it
        spec = SampledSpec(L=L, c=1.0, h=0.7)
        x0, u, h = 1.0, 0.25, spec.h
        upper = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.5]), L)
        xs = 0.0 - (0.5 + u) / L
        assert integrate_sampled(x0, upper, u, spec) == \
            xs + (x0 - xs) * math.exp(L * h)
        lower = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.5]), L,
                                        modes=[1, 1])
        xs = 0.0 + (0.5 + u) / L
        assert integrate_sampled(x0, lower, u, spec) == \
            xs + (x0 - xs) * math.exp(-L * h)
        # the left tail of the upper envelope, 0.5 - Lx, driven left
        xs = 0.0 - (0.5 - 3.0) / -L
        assert integrate_sampled(-1.0, upper, -3.0, spec) == \
            xs + (-1.0 - xs) * math.exp(-L * h)

    @pytest.mark.parametrize("x0, u", [(3.0, 0.5), (-3.0, -0.5), (0.0, 2.0)])
    def test_lower_cone_tails_drift_with_the_input(self, x0, u):
        # f = -|x|, the lower envelope of the one anchor (0, 0): from the
        # right the flow settles towards x* = u, from the left it runs away
        # from x* = -u, and from the anchor itself the input pushes the
        # state onto the right tail; each is the closed form, bit for bit
        f = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.0]), 1.0,
                                    modes=[1, 1])
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        if x0 < 0.0:
            xs = 0.0 - (0.0 + u) / 1.0
            expected = xs + (x0 - xs) * math.exp(spec.h)
        else:
            xs = 0.0 + (0.0 + u) / 1.0
            expected = xs + (x0 - xs) * math.exp(-spec.h)
        assert integrate_sampled(x0, f, u, spec) == expected

    def test_equilibrium_is_approached_never_crossed(self):
        # f(x) = -x on [-4, 4] and u = 1 put the one equilibrium at x = 1,
        # inside a piece, reached from either side only in the limit
        f = _line(-1.0, span=4.0)
        for x0 in (-2.0, 3.0):
            prev = x0
            for h in (0.5, 1.0, 4.0, 16.0, 64.0, 1000.0):
                out = integrate_sampled(x0, f, 1.0, SampledSpec(1.0, 1.0, h))
                assert (out - 1.0) * (x0 - 1.0) >= 0.0, (x0, h)
                assert abs(out - 1.0) <= abs(prev - 1.0)
                prev = out
            assert out == 1.0
        # at the equilibrium the state rests
        assert integrate_sampled(1.0, f, 1.0, SampledSpec(1.0, 1.0, 5.0)) \
            == 1.0

    def test_guard_overflow_reports_a_blowup(self):
        # e^{Lh} past double precision reads inf; the kernel classifies the
        # period as a blow-up, and replay reaches the same inf
        f = RealizedPiecewiseLinear(np.array([0.0]), np.array([1.0]), 1.0)
        spec = SampledSpec(L=1.0, c=1.0, h=800.0)
        assert integrate_sampled(0.0, f, 0.0, spec) == math.inf
        lower = RealizedPiecewiseLinear(np.array([0.0]), np.array([-1.0]),
                                        1.0, modes=[1, 1])
        assert integrate_sampled(-1.5, lower, 0.0, spec) == -math.inf
        system = SampledSystem(spec=spec, f=f)
        traj, verdict = run_episode(system, ZeroControl(), None, 5, 0)
        assert verdict.outcome is Outcome.BLOWUP and traj.blow_step == 1
        assert check_replay(traj)
        # one finite step past the guard blows up too
        spec = SampledSpec(L=1.0, c=1.0, h=350.0)
        traj, verdict = run_episode(SampledSystem(spec=spec, f=f),
                                    ZeroControl(), None, 5, 0)
        assert GUARD < traj.states[1] < math.inf
        assert verdict.outcome is Outcome.BLOWUP and check_replay(traj)

    def test_agrees_with_rk4_reference(self):
        # classical RK4 at 4 096 substeps over full anchor scans, one
        # period per random envelope member, against the exact flow: 1 000
        # members with their own upper envelope, and 100 more with a
        # random mode per interval
        rng = np.random.default_rng(31)
        L, c, h = 1.0, 1.0, 0.5
        spec = SampledSpec(L=L, c=c, h=h)
        for n, random_modes in ((1000, False), (100, True)):
            members = [random_envelope_member(L, c, rng) for _ in range(n)]
            x0 = rng.uniform(-25.0, 25.0, n)
            u = rng.uniform(-4.0, 4.0, n)
            xs = np.array([f.xs for f in members])
            vs = np.array([f.vs for f in members])
            modes = rng.integers(0, 2 if random_modes else 1,
                                 (n, xs.shape[1] + 1))
            ref = rk4_reference(xs, vs, modes, L, x0, u, h, 4096)
            out = np.array([integrate_sampled(
                x0[i], RealizedPiecewiseLinear(f.xs, f.vs, L,
                                               modes=modes[i]), u[i], spec)
                for i, f in enumerate(members)])
            err = np.abs(out - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-7, err.max()
            assert np.abs(out - x0).min() > 0.0

    def test_membership_precondition(self):
        # the anchor (5, 6) sits on the envelope |x| + 1, but the upper
        # McShane envelope has f(0) = 11; the lower one has f(0) = 1 = c
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        for x, v in ((0.0, 50.0), (5.0, 6.0)):
            bad = RealizedPiecewiseLinear(np.array([x]), np.array([v]), 1.0)
            with pytest.raises(ValueError, match="offset c"):
                integrate_sampled(0.0, bad, 0.0, spec)
        f = RealizedPiecewiseLinear(np.array([5.0]), np.array([6.0]), 1.0,
                                    modes=[1, 1])
        assert math.isfinite(integrate_sampled(0.0, f, 0.0, spec))

    def test_slope_precondition(self):
        fn = PiecewiseLinearFn(L=3.0)
        fn.commit(0.0, 0.0)
        fn.commit(1.0, 2.5)
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)  # declared class is tighter
        with pytest.raises(ValueError):
            integrate_sampled(0.0, fn.realize(), 0.0, spec)

    def test_unrealized_rejected(self):
        fn = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 0.0)])
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        with pytest.raises(ValueError, match="RealizedPiecewiseLinear"):
            integrate_sampled(0.0, fn, 0.0, spec)


def _two_mode_spec(a1=0.5, a2=1.5, p12=0.5):
    chain = MarkovChain(np.array([[1 - p12, p12], [p12, 1 - p12]]))
    A = np.array([[[a1]], [[a2]]])
    B = np.ones((2, 1, 1))
    return MjlsSpec(chain=chain, A=A, B=B,
                    noise=MartingaleDiffVector(1.0, 1.0, 1))


class TestStepMjls:
    def test_free_motion(self):
        spec = _two_mode_spec()
        out = step_mjls([2.0], 1, [0.0], [0.0], spec)
        assert out[0] == 1.0

    def test_pure_input(self):
        spec = _two_mode_spec()
        out = step_mjls([0.0], 2, [3.0], [0.0], spec)
        assert out[0] == 3.0

    def test_hand_value(self):
        spec = _two_mode_spec(a1=0.5)
        out = step_mjls([2.0], 1, [1.0], [0.1], spec)
        assert out[0] == pytest.approx(2.1, abs=1e-15)

    def test_overflow_returned_unraised(self):
        spec = _two_mode_spec(a1=1e10)
        assert step_mjls([1e145], 1, [0.0], [0.0], spec)[0] \
            == 1e145 * 1e10 > GUARD
        assert step_mjls([1e300], 1, [0.0], [0.0], spec)[0] == math.inf
        # inf + -inf in the product A x + B u
        out = step_mjls([1e300], 1, [-math.inf], [0.0], spec)
        assert math.isnan(out[0])

    def test_dimension_mismatch(self):
        spec = _two_mode_spec()
        with pytest.raises(ConfigurationError):
            step_mjls([1.0, 2.0], 1, [0.0], [0.0], spec)
        with pytest.raises(ConfigurationError):
            step_mjls([1.0], 3, [0.0], [0.0], spec)


class TestMarkovChain:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            MarkovChain(np.array([[1.2, -0.2], [0.5, 0.5]]))
        # NaN fails neither the sign test nor the row-sum test
        with pytest.raises(ValueError, match="finite"):
            MarkovChain(np.array([[math.nan, 1.0], [0.5, 0.5]]))

    def test_identity_is_reducible(self):
        chain = MarkovChain(np.eye(2))
        assert not chain.is_irreducible

    def test_flip_chain_is_periodic(self):
        chain = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert chain.is_irreducible
        assert not chain.is_aperiodic

    def test_ergodic_chain(self):
        chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert chain.is_irreducible and chain.is_aperiodic

    def test_mjls_requires_ergodic_chain(self):
        with pytest.raises(ConfigurationError):
            MjlsSpec(chain=MarkovChain(np.eye(2)),
                     A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)),
                     noise=MartingaleDiffVector(1.0, 1.0, 1))


class TestChainFlagBits:
    """The flags (is_irreducible, is_aperiodic), pinned by sha256 over
    every 0/1 pattern without a zero row on 1 to 3 modes and a fixed-seed
    sample of 2 000 patterns on 4 to 8 modes, each row normalised into a
    transition row.  The digest was taken from the breadth-first searches
    (strong connectivity both ways, the period as a gcd over levels) that
    the positivity test replaced."""

    DIGEST = ("917063eab31ded8b1667b58a06205b5d"
              "70261c9d7ce133d20062d635ab566a28")
    COUNTS = {(False, False): 1286, (True, False): 159, (True, True): 908}

    @staticmethod
    def patterns():
        for n in (1, 2, 3):
            rows = [r for r in itertools.product((0, 1), repeat=n) if any(r)]
            for pattern in itertools.product(rows, repeat=n):
                yield np.array(pattern, dtype=bool)
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(4, 9))
            # half the sample only steps from class c to class c + 1 mod d,
            # so an irreducible one has period d
            d = int(rng.integers(1, n + 1)) if rng.random() < 0.5 else 1
            cls = rng.permutation(np.arange(n) % d)
            allowed = cls[None, :] == (cls[:, None] + 1) % d
            adj = (rng.random((n, n)) < rng.uniform(0.1, 0.9)) & allowed
            for i in np.flatnonzero(~adj.any(axis=1)):
                adj[i, rng.integers(n)] = True
            yield adj

    def test_flags_keep_their_bits(self):
        flags = []
        for adj in self.patterns():
            P = adj / adj.sum(axis=1, keepdims=True)
            chain = MarkovChain(P)
            flags.append((chain.is_irreducible, chain.is_aperiodic))
        assert len(flags) == 1 + 9 + 343 + 2000
        counts = {key: flags.count(key) for key in self.COUNTS}
        assert counts == self.COUNTS
        digest = hashlib.sha256(np.array(flags, dtype=np.uint8).tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestMjlsSpecValidation:
    CHAIN = MarkovChain(np.full((2, 2), 0.5))
    NOISE = MartingaleDiffVector(1.0, 1.0, 1)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError, match="input"):
            MjlsSpec(chain=self.CHAIN, A=np.zeros((2, 1, 1)),
                     B=np.ones((2, 1, 0)), noise=self.NOISE)

    def test_non_finite_A_rejected(self):
        A = np.zeros((2, 1, 1))
        A[1, 0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            MjlsSpec(chain=self.CHAIN, A=A, B=np.ones((2, 1, 1)),
                     noise=self.NOISE)

    def test_non_finite_B_rejected(self):
        B = np.ones((2, 1, 1))
        B[0, 0, 0] = -math.inf
        with pytest.raises(ValueError, match="finite"):
            MjlsSpec(chain=self.CHAIN, A=np.zeros((2, 1, 1)), B=B,
                     noise=self.NOISE)


class TestMarkovNext:
    def test_identity_keeps_mode(self):
        chain = MarkovChain(np.eye(2))
        rng = np.random.default_rng(0)
        assert all(markov_next(2, chain, rng) == 2 for _ in range(50))

    def test_degenerate_row(self):
        chain = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rng = np.random.default_rng(0)
        assert all(markov_next(1, chain, rng) == 2 for _ in range(50))

    def test_uniform_frequencies(self):
        chain = MarkovChain(np.full((2, 2), 0.5))
        rng = np.random.default_rng(42)
        draws = 100_000
        hits = sum(1 for _ in range(draws) if markov_next(1, chain, rng) == 1)
        assert 0.49 <= hits / draws <= 0.51

    def test_range_and_convergence(self):
        P = np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.4, 0.4, 0.2]])
        chain = MarkovChain(P)
        rng = np.random.default_rng(7)
        draws = 20_000
        counts = np.zeros(3)
        for _ in range(draws):
            m = markov_next(2, chain, rng)
            assert 1 <= m <= 3
            counts[m - 1] += 1
        assert np.max(np.abs(counts / draws - P[1])) <= 3.0 / math.sqrt(draws)


class TestNoiseModels:
    def test_martingale_bounds(self):
        with pytest.raises(ValueError):
            MartingaleDiffVector(sigma_lo=1.0, sigma_hi=1.0, dim=3)
        MartingaleDiffVector(sigma_lo=1.0, sigma_hi=3.0, dim=3)

    @pytest.mark.parametrize("lo, hi, field", [
        (math.inf, math.inf, "sigma_hi"),
        (1.0, math.inf, "sigma_hi"),
        (1e300, 1e300, "sigma_lo"),
        (NOISE_CAP ** 2 * 4.0, NOISE_CAP ** 2 * 4.0, "sigma_lo"),
    ], ids=["both_inf", "sigma_hi_inf", "sigma_lo_beyond_guard",
            "sigma_lo_beyond_cap"])
    def test_martingale_noise_cap(self, lo, hi, field):
        # a noise step sqrt(sigma_lo) beyond NOISE_CAP, or an unbounded
        # sigma_hi, is a configuration error; up to the cap it is built
        with pytest.raises(ConfigurationError, match=field):
            MartingaleDiffVector(sigma_lo=lo, sigma_hi=hi, dim=1)
        MartingaleDiffVector(sigma_lo=NOISE_CAP ** 2, sigma_hi=NOISE_CAP ** 2,
                             dim=1)

    def test_variance_positive(self):
        with pytest.raises(ValueError):
            GaussianIID(variance=0.0)
        for v in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                GaussianIID(variance=v)


CHAIN = TestMjlsSpecValidation.CHAIN


def _mjls(A, B, noise=TestMjlsSpecValidation.NOISE):
    return MjlsSpec(chain=CHAIN, A=A, B=B, noise=noise)


@pytest.mark.parametrize("make, exc, fragment", [
    pytest.param(lambda: MartingaleDiffVector(0.0, 1.0, 1), ValueError,
                 "noise bounds must be positive", id="sigma_lo_zero"),
    pytest.param(lambda: MartingaleDiffVector(1.0, math.nan, 1), ValueError,
                 "noise bounds must be positive", id="sigma_hi_nan"),
    pytest.param(lambda: MartingaleDiffVector(1.0, 1.0, 0), ValueError,
                 "dimension must be at least 1", id="dim_zero"),
    pytest.param(lambda: MarkovChain(np.full((2, 3), 1 / 3)), ValueError,
                 "transition matrix must be square", id="P_not_square"),
    pytest.param(lambda: MarkovChain(np.ones(1)), ValueError,
                 "transition matrix must be square", id="P_vector"),
    pytest.param(lambda: _mjls(np.zeros((1, 1, 1)), np.ones((2, 1, 1))),
                 ValueError, "A must be (N, n, n)", id="A_modes"),
    pytest.param(lambda: _mjls(np.zeros((2, 1, 2)), np.ones((2, 1, 1))),
                 ValueError, "A must be (N, n, n)", id="A_not_square"),
    pytest.param(lambda: _mjls(np.zeros((2, 1, 1)), np.ones((2, 2, 1))),
                 ValueError, "B must be (N, n, m)", id="B_states"),
    pytest.param(lambda: _mjls(np.zeros((2, 1, 1)), np.ones((2, 1, 1)),
                               MartingaleDiffVector(1.0, 2.0, 2)),
                 ValueError, "noise dimension must match", id="noise_dim"),
    pytest.param(lambda: SampledSpec(L=1.0, c=0.0, h=1.0), ValueError,
                 "L, c and h must be positive", id="sampled_c_zero"),
    pytest.param(lambda: SampledSpec(L=math.nan, c=1.0, h=1.0), ValueError,
                 "L, c and h must be positive", id="sampled_L_nan"),
    pytest.param(lambda: markov_next(3, CHAIN, np.random.default_rng(0)),
                 ValueError, "mode 3 outside 1..2", id="markov_mode"),
    pytest.param(lambda: markov_next(0, CHAIN, np.random.default_rng(0)),
                 ValueError, "mode 0 outside 1..2", id="markov_mode_zero"),
])
def test_invalid_arguments_raise(make, exc, fragment):
    with pytest.raises(exc) as info:
        make()
    assert info.type is exc and fragment in str(info.value)
