import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedback_lab import (GUARD, PiecewiseLinearFn, kernels,
                          RealizedPiecewiseLinear, adversary_choose,
                          feasible_interval, realize,
                          SampledAdversaryState, sampled_adversary_choose)
from feedback_lab.adversary import InconsistentAnchors


class TestFeasibleInterval:
    def test_empty_store_unbounded(self):
        f = PiecewiseLinearFn(L=1.0)
        assert feasible_interval(f, 3.0) == (-np.inf, np.inf)

    def test_single_cone(self):
        f = PiecewiseLinearFn(L=2.0, anchors=[(0.0, 0.0)])
        assert feasible_interval(f, 1.0) == (-2.0, 2.0)

    def test_forced_value(self):
        f = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 0.0), (2.0, 2.0)])
        lo, hi = feasible_interval(f, 1.0)
        assert lo == hi == 1.0

    @given(x=st.floats(-50, 50))
    def test_interval_never_inverts(self, x):
        f = PiecewiseLinearFn(L=1.5, anchors=[(-3.0, 1.0), (0.0, -2.0),
                                              (4.0, 2.0)])
        lo, hi = feasible_interval(f, x)
        assert lo <= hi + 1e-12


class TestAdversaryChoose:
    def test_budget_clip_on_first_step(self):
        f = PiecewiseLinearFn(L=3.0)
        v, w = adversary_choose(f, x=0.0, u=0.0, w_bar=1.0)
        assert v == 10.0  # tie at +-budget resolved upward
        assert w == 1.0
        assert f.anchors == [(0.0, 10.0)]

    def test_forced_interval_and_zero_tie(self):
        f = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 0.0), (2.0, 2.0)])
        v, w = adversary_choose(f, x=1.0, u=-1.0, w_bar=0.5)
        assert v == 1.0
        assert w == 0.5  # sign(v + u) = sign(0) treated as +1

    def test_endpoint_comparison(self):
        f = PiecewiseLinearFn(L=2.0, anchors=[(0.0, 0.0)])
        v, w = adversary_choose(f, x=1.0, u=-10.0, w_bar=1.0)
        # interval (-2, 2): |-2-10| = 12 beats |2-10| = 8
        assert v == -2.0
        assert w == -1.0

    def test_overflowing_value_commits_at_the_edge(self):
        # L|x| + budget overflows at L 1e300; the value commits at the
        # largest double, as the duel kernel's first commit does, so the
        # store realizes
        f = PiecewiseLinearFn(L=1e300)
        v, w = adversary_choose(f, x=1e10, u=0.0, w_bar=1.0)
        assert v == sys.float_info.max and w == 1.0
        assert realize(f)(1e10) == v
        _, us, _, vsc, *_, blow = kernels.nonparam_duel(
            1e10, 1e300, 1.0, 10.0, 0.1, GUARD, 5)
        assert us[0] == 0.0 and vsc.tolist() == [v] and blow == 1

    def test_consistency_after_random_play(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = PiecewiseLinearFn(L=float(rng.uniform(0.5, 5.0)))
            for _ in range(40):
                x = float(rng.uniform(-5, 5))
                u = float(rng.standard_normal() * 3)
                adversary_choose(f, x, u, w_bar=1.0)
            xs, vs = f.anchor_arrays()
            n = xs.shape[0]
            for i in range(n):
                for j in range(n):
                    assert abs(vs[i] - vs[j]) <= \
                        f.L * abs(xs[i] - xs[j]) + 1e-9


class TestRealize:
    def test_single_anchor_cone(self):
        f = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 0.0)])
        g = realize(f)
        for x in (-3.0, -1.0, 0.0, 2.5):
            assert g(x) == abs(x)

    def test_line_of_budget_slope_is_tight(self):
        f = PiecewiseLinearFn(L=2.0, anchors=[(-1.0, -2.0), (0.0, 0.0),
                                              (3.0, 6.0)])
        g = realize(f)
        for x in np.linspace(-1, 3, 17):
            assert g(x) == pytest.approx(2.0 * x, abs=1e-12)

    def test_interpolation_exact(self):
        rng = np.random.default_rng(3)
        f = PiecewiseLinearFn(L=2.0)
        for _ in range(25):
            x = float(rng.uniform(-10, 10))
            lo, hi = feasible_interval(f, x)
            if not np.isfinite(lo):
                lo, hi = -1.0, 1.0
            f.commit(x, float(rng.uniform(lo, hi)))
        g = realize(f)
        for x, v in f.anchors:
            assert g(x) == v

    def test_realization_respects_budget(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            L = float(rng.uniform(0.5, 4.0))
            f = PiecewiseLinearFn(L=L)
            f.commit(0.0, 0.0)
            for _ in range(12):
                x = float(rng.uniform(-8, 8))
                lo, hi = feasible_interval(f, x)
                if f.value_at(x) is None:
                    f.commit(x, float(rng.uniform(lo, hi)))
            g = realize(f)
            grid = np.linspace(-12, 12, 10_001)
            vals = np.array([g(x) for x in grid])
            slopes = np.abs(np.diff(vals) / np.diff(grid))
            assert np.max(slopes) <= L + 1e-9

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            realize(PiecewiseLinearFn(L=1.0))

    def test_conflicting_commit_rejected(self):
        f = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 0.0)])
        with pytest.raises(InconsistentAnchors):
            f.commit(1.0, 5.0)

    def test_consistency_tolerance_scales_with_magnitude(self):
        # at values near 1e6 an excess of 1e-7 is rounding, 1e-5 is not
        v = 1e6
        f = PiecewiseLinearFn(L=1.0, anchors=[(0.0, v)])
        f.commit(1.0, v + 1.0 + 1e-7)
        with pytest.raises(InconsistentAnchors):
            f.commit(-1.0, v + 1.0 + 1e-5)
        SampledAdversaryState(
            fn=PiecewiseLinearFn(L=1.0, anchors=[(v, v + 1.0 + 1e-7)]), c=1.0)
        with pytest.raises(InconsistentAnchors):
            SampledAdversaryState(
                fn=PiecewiseLinearFn(L=1.0, anchors=[(v, v + 1.0 + 1e-5)]),
                c=1.0)


class TestRealizedValidation:
    """A realized function is built only from sorted, distinct, finite
    abscissas within the slope budget."""

    def test_unsorted_abscissas_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            RealizedPiecewiseLinear(np.array([1.0, 0.0]), np.zeros(2), 1.0)

    def test_duplicate_abscissas_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RealizedPiecewiseLinear(np.array([0.0, 0.0]), np.zeros(2), 1.0)

    def test_non_finite_abscissas_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RealizedPiecewiseLinear(np.array([0.0, np.nan]), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="finite"):
            RealizedPiecewiseLinear(np.array([0.0, np.inf]), np.zeros(2), 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            RealizedPiecewiseLinear(np.array([0.0, 1.0]), np.zeros(3), 1.0)

    def test_slope_above_budget_rejected(self):
        with pytest.raises(ValueError, match="slope"):
            RealizedPiecewiseLinear(np.array([0.0, 1.0]),
                                    np.array([0.0, 1.5]), 1.0)
        # the budget must be positive: the flow has no flat piece
        for L in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="slope budget"):
                RealizedPiecewiseLinear(np.array([0.0]), np.zeros(1), L)

    @pytest.mark.parametrize("modes", [[0], [0, 1, 2], [0, 2], [0, 3],
                                       [-1, 0], [0.5, 1]])
    def test_modes_need_one_extension_per_interval(self, modes):
        with pytest.raises(ValueError, match="modes"):
            RealizedPiecewiseLinear(np.array([0.0]), np.zeros(1), 1.0,
                                    modes=modes)

    def test_each_interval_extends_by_its_mode(self):
        # anchors (0, 0), (4, 0) with slope 1: the upper envelope peaks at
        # 2 in the middle, the lower one dips to -2
        xs, vs = np.array([0.0, 4.0]), np.zeros(2)
        for m, mid in ((0, 2.0), (1, -2.0)):
            g = RealizedPiecewiseLinear(xs, vs, 1.0, modes=[1, m, 0])
            assert g(2.0) == mid
            assert (g(-3.0), g(7.0)) == (-3.0, 3.0)
            assert (g(-3.0) - g(-4.0), g(8.0) - g(7.0)) == (1.0, 1.0)
        g = RealizedPiecewiseLinear(xs, vs, 1.0, modes=[1, 1, 1])
        assert g(2.0) == -2.0
        assert (g(-3.0) - g(-4.0), g(8.0) - g(7.0)) == (1.0, -1.0)
        assert RealizedPiecewiseLinear(xs, vs, 1.0).modes.tolist() == [0, 0, 0]

    def test_rounding_within_scaled_tolerance_accepted(self):
        v = 1e6
        g = RealizedPiecewiseLinear(np.array([0.0, 1.0]),
                                    np.array([v, v + 1.0 + 1e-4]), 1.0)
        assert g(1.0) == v + 1.0 + 1e-4


class TestSampledAdversary:
    def test_origin_starts_at_offset_bound(self):
        state = SampledAdversaryState(fn=PiecewiseLinearFn(L=1.0), c=2.0)
        v = sampled_adversary_choose(state, x=0.0, u=0.0)
        assert v == 2.0

    def test_membership_invariant(self):
        rng = np.random.default_rng(10)
        state = SampledAdversaryState(fn=PiecewiseLinearFn(L=1.5), c=1.0)
        for _ in range(60):
            x = float(rng.uniform(-6, 6))
            u = float(rng.standard_normal() * 4)
            sampled_adversary_choose(state, x, u)
        for x, v in state.fn.anchors:
            assert abs(v) <= 1.5 * abs(x) + 1.0 + 1e-12

    def test_anchor_outside_envelope_rejected(self):
        fn = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 5.0)])
        with pytest.raises(InconsistentAnchors):
            SampledAdversaryState(fn=fn, c=2.0)


def _recommit():
    f = PiecewiseLinearFn(L=1.0, anchors=[(0.0, 0.0)])
    f.commit(0.0, 0.5)


def _choose_past_envelope():
    # an anchor committed straight into the store, outside |v| <= L|x| + c,
    # leaves no feasible value inside the envelope nearby
    state = SampledAdversaryState(fn=PiecewiseLinearFn(L=1.0), c=1.0)
    state.fn.commit(0.0, 5.0)
    sampled_adversary_choose(state, 1.0, 0.0)


@pytest.mark.parametrize("make, exc, fragment", [
    pytest.param(lambda: PiecewiseLinearFn(L=0.0), ValueError,
                 "slope budget L must be positive", id="L_zero"),
    pytest.param(lambda: PiecewiseLinearFn(L=float("nan")), ValueError,
                 "slope budget L must be positive", id="L_nan"),
    pytest.param(_recommit, InconsistentAnchors,
                 "already committed with a different value", id="recommit"),
    pytest.param(lambda: SampledAdversaryState(fn=PiecewiseLinearFn(L=1.0),
                                               c=0.0),
                 ValueError, "offset c must be positive", id="c_zero"),
    pytest.param(_choose_past_envelope, InconsistentAnchors,
                 "feasible interval empty against the envelope",
                 id="past_envelope"),
])
def test_invalid_arguments_raise(make, exc, fragment):
    with pytest.raises(exc) as info:
        make()
    assert info.type is exc and fragment in str(info.value)
