import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from feedback_lab import (MarkovChain, MartingaleDiffVector, MjlsSpec,
                          MjlsControllerState, NnHistory, RlsState,
                          SampledSpec,
                          adaptive_mv_control, make_rls, mjls_control,
                          mjls_estimate_mode, nn_estimate, rls_update,
                          sampled_control, step_mjls, switching_control)


class TestRls:
    def test_zero_regressor_is_uninformative(self):
        s = make_rls(s0=0.5, theta0=1.3)
        s2 = rls_update(s, 0.0, 4.0)
        assert s2.theta_hat == s.theta_hat
        assert s2.s == s.s
        assert s2.t == s.t + 1

    def test_one_point_least_squares(self):
        s = make_rls(s0=1e-12, theta0=0.0)
        s2 = rls_update(s, 2.0, 6.0)
        assert s2.theta_hat == pytest.approx(3.0, rel=1e-9)

    @given(theta=st.floats(-5, 5), phi=st.floats(0.5, 50),
           theta0=st.floats(-2, 2))
    # the error stays at the subnormal 5e-324 while the bound underflows
    @example(theta=0.0, phi=1.0, theta0=5e-324)
    def test_noise_free_error_contracts(self, theta, phi, theta0):
        s = make_rls(s0=1.0, theta0=theta0)
        err = abs(theta - s.theta_hat)
        for _ in range(8):
            s = rls_update(s, phi, theta * phi)
            new_err = abs(theta - s.theta_hat)
            assert new_err <= err + 1e-12
            err = new_err
        assert err <= (abs(theta - theta0) / (1.0 + 8 * phi * phi * 0.99)
                       + 1e-12)

    def test_mv_control_values(self):
        s = make_rls(s0=1.0, theta0=2.0)
        assert adaptive_mv_control(s, 3.0) == -6.0
        assert adaptive_mv_control(s, 0.0) == 0.0

    def test_mv_cancellation_noise_free(self):
        # with the true coefficient known, the loop output is the noise
        theta = 1.7
        s = make_rls(s0=1.0, theta0=theta)
        y = 2.0
        fy = np.sign(y) * y**2
        u = adaptive_mv_control(s, fy)
        assert theta * fy + u == 0.0


class TestNnEstimate:
    def _hist(self, records):
        h = NnHistory()
        for r in records:
            h.append(*r)
        return h

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            nn_estimate(NnHistory(), 1.0)

    def test_replay_of_visited_point(self):
        h = self._hist([(2.0, -1.0, 5.0)])
        fhat, gap = nn_estimate(h, 2.0)
        assert fhat == 6.0  # y_next - u
        assert gap == 0.0

    def test_single_record_wins_any_distance(self):
        h = self._hist([(0.0, 0.5, 1.0)])
        fhat, gap = nn_estimate(h, 100.0)
        assert fhat == 0.5
        assert gap == 100.0

    def test_distance_comparison(self):
        h = self._hist([(0.0, 0.0, 1.0), (10.0, 0.0, 2.0)])
        fhat, gap = nn_estimate(h, 4.0)
        assert fhat == 1.0
        assert gap == 4.0

    def test_tie_breaks_to_smallest_index(self):
        h = self._hist([(1.0, 0.0, 10.0), (3.0, 0.0, 20.0)])
        fhat, gap = nn_estimate(h, 2.0)
        assert fhat == 10.0


class TestSwitchingControl:
    def test_bootstrap_returns_zero(self):
        assert switching_control(NnHistory(), 5.0, eps=0.1) == 0.0

    def test_midpoint_branch(self):
        h = NnHistory()
        h.append(-2.0, 0.0, 4.0)
        h.append(4.0, 0.0, -2.0)
        # query far from both records: fhat from neighbor 4.0 is -2.0,
        # range midpoint (-2+4)/2 = 1
        u = switching_control(h, 50.0, eps=0.5)
        bmin, bmax = h.bounds_including(50.0)
        assert (bmin, bmax) == (-2.0, 50.0)
        assert u == -(-2.0 - 0.0) + 0.5 * (-2.0 + 50.0)

    def test_midpoint_of_observed_range(self):
        # recorded outputs spanning [-2, 4]: far queries inside that range
        # steer to the midpoint 1
        h = NnHistory()
        h.append(-2.0, 0.0, 4.0)
        h.append(4.0, 0.0, 1.0)
        h.append(1.0, 0.0, -2.0)
        u = switching_control(h, 2.5, eps=0.5)
        fhat = 1.0 - 0.0  # neighbor is the record at 1.0
        assert u == -fhat + 1.0

    def test_tracking_branch_with_huge_eps(self):
        h = NnHistory()
        h.append(0.0, 0.0, 3.0)
        u = switching_control(h, 100.0, eps=np.inf)
        assert u == -3.0
        # tracking 0 gives +0.0 where the estimate is +0.0
        h.append(100.0, 0.0, 0.0)
        assert math.copysign(1.0, switching_control(h, 100.0, eps=0.1)) == 1.0

    def test_revisit_tracks_exactly(self):
        # noise-free revisit: the tracking branch cancels f exactly
        def f(x):
            return 2.0 * x + 1.0

        h = NnHistory()
        y0 = 1.5
        y1 = f(y0) + 0.0
        h.append(y0, 0.0, y1)
        u = switching_control(h, y0, eps=0.1)
        assert f(y0) + u == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            switching_control(NnHistory(), 0.0, eps=0.0)
        # NaN compares false with 0 too: it would track on every history
        h = NnHistory()
        h.append(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            switching_control(h, 5.0, eps=math.nan)


class TestSampledControl:
    SPEC = SampledSpec(L=2.0, c=1.0, h=0.5)

    def test_bootstrap(self):
        assert sampled_control([], 3.0, self.SPEC) == 0.0

    def test_clip_bound_always_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            samples = [tuple(rng.standard_normal(3) * 10) for _ in range(n)]
            x = float(rng.standard_normal() * 10)
            u = sampled_control(samples, x, self.SPEC)
            assert abs(u) <= 4.0 * (self.SPEC.L * abs(x) + self.SPEC.c) + 1e-12

    def test_surrogate_cancellation(self):
        # one settled sample of a constant drift: u = -drift - x/h
        drift = 0.8
        samples = [(1.0, 0.0, 1.0 + drift * self.SPEC.h)]
        u = sampled_control(samples, 1.0, self.SPEC)
        assert u == pytest.approx(-drift - 1.0 / self.SPEC.h, abs=1e-12)


def _spec(a_list, b_list, p=0.5):
    N = len(a_list)
    chain = MarkovChain(np.full((N, N), 1.0 / N) if N > 1 else np.array([[1.0]]))
    A = np.array([[[a]] for a in a_list], dtype=float)
    B = np.array([[[b]] for b in b_list], dtype=float)
    return MjlsSpec(chain=chain, A=A, B=B,
                    noise=MartingaleDiffVector(1.0, 1.0, 1))


class TestMjlsController:
    def test_single_mode_always_one(self):
        spec = _spec([0.7], [1.0])
        state = MjlsControllerState(Ks=np.array([[[0.7]]]))
        state.observe([1.0], [0.0])
        assert mjls_estimate_mode(state, [0.7], spec) == 1

    def test_noise_free_exact_recovery(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            spec = _spec(list(rng.uniform(-2, 2, 2)), [1.0, 1.0])
            # with equal B the modes are told apart iff A_1 != A_2
            if abs(spec.A[0, 0, 0] - spec.A[1, 0, 0]) <= 1e-9:
                continue
            state = MjlsControllerState(Ks=np.zeros((2, 1, 1)))
            x = np.array([rng.standard_normal() + 2.0])
            u = np.array([rng.standard_normal()])
            true_mode = int(rng.integers(1, 3))
            x1 = step_mjls(x, true_mode, u, np.zeros(1), spec)
            state.observe(x, u)
            assert mjls_estimate_mode(state, x1, spec) == true_mode

    def test_identical_modes_tie_to_first(self):
        spec = _spec([1.0, 1.0], [1.0, 1.0])
        state = MjlsControllerState(Ks=np.zeros((2, 1, 1)))
        state.observe([1.0], [0.0])
        assert mjls_estimate_mode(state, [1.0], spec) == 1

    def test_requires_previous_observation(self):
        spec = _spec([1.0, 2.0], [1.0, 1.0])
        state = MjlsControllerState(Ks=np.zeros((2, 1, 1)))
        with pytest.raises(ValueError):
            mjls_estimate_mode(state, [1.0], spec)

    def test_control_at_origin_is_zero(self):
        state = MjlsControllerState(Ks=np.ones((3, 1, 1)))
        assert mjls_control(state, [0.0])[0] == 0.0

    def test_single_mode_static_feedback(self):
        state = MjlsControllerState(Ks=np.array([[[0.7]]]))
        assert mjls_control(state, [2.0])[0] == -1.4

    def test_posterior_update_uses_transition_row(self):
        chain = MarkovChain(np.array([[0.9, 0.1], [0.3, 0.7]]))
        spec = MjlsSpec(chain=chain, A=np.array([[[0.0]], [[2.0]]]),
                        B=np.ones((2, 1, 1)),
                        noise=MartingaleDiffVector(1.0, 1.0, 1))
        state = MjlsControllerState(Ks=np.zeros((2, 1, 1)))
        state.observe([1.0], [0.0])
        est = mjls_estimate_mode(state, [2.0], spec)  # residual favors mode 2
        assert est == 2
        assert np.array_equal(state.posterior, chain.P[1])


@pytest.mark.parametrize("make, exc, fragment", [
    pytest.param(lambda: RlsState(theta_hat=0.0, s=0.0), ValueError,
                 "information s must stay positive", id="s_zero"),
    pytest.param(lambda: RlsState(theta_hat=0.0, s=math.nan), ValueError,
                 "information s must stay positive", id="s_nan"),
    pytest.param(lambda: MjlsControllerState(
        Ks=np.zeros((2, 1, 1)), posterior=np.array([0.5, 0.6])),
        ValueError, "posterior must sum to 1", id="posterior_sum"),
])
def test_invalid_arguments_raise(make, exc, fragment):
    with pytest.raises(exc) as info:
        make()
    assert info.type is exc and fragment in str(info.value)
