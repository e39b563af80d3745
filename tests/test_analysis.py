import math

import numpy as np
import pytest

from feedback_lab import (CRITICAL_RADIUS, PiecewiseLinearFn,
                          RealizedPiecewiseLinear, Regime,
                          characteristic_poly, highorder_impossible,
                          parametric_regime, poly_impossible, quasi_norm,
                          sampled_regime, scalar_mjls_stabilizable)
from feedback_lab.analysis import poly_min_on_interval


class TestParametricRegime:
    def test_below_critical(self):
        assert parametric_regime(2.0).regime is Regime.STABILIZABLE

    def test_at_critical(self):
        v = parametric_regime(4.0)
        assert v.regime is Regime.IMPOSSIBLE
        assert v.boundary

    def test_sublinear(self):
        assert parametric_regime(0.5).regime is Regime.STABILIZABLE

    def test_above_critical(self):
        v = parametric_regime(5.0)
        assert v.regime is Regime.IMPOSSIBLE
        assert not v.boundary

    def test_domain(self):
        for b in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                parametric_regime(b)


class TestCharacteristicPoly:
    def test_single_exponent_four(self):
        assert np.array_equal(characteristic_poly([4.0]).coeffs,
                              np.array([1.0, -4.0, 4.0]))

    def test_single_exponent_five(self):
        assert np.array_equal(characteristic_poly([5.0]).coeffs,
                              np.array([1.0, -5.0, 5.0]))

    def test_two_exponents(self):
        assert np.array_equal(characteristic_poly([3.0, 1.0]).coeffs,
                              np.array([1.0, -3.0, 2.0, 1.0]))

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            characteristic_poly([2.0, 2.0])
        with pytest.raises(ValueError):
            characteristic_poly([])


class TestPolyImpossible:
    def test_triggers_for_five(self):
        poly = characteristic_poly([5.0])
        v = poly_impossible(poly, 5.0)
        assert v.regime is Regime.IMPOSSIBLE
        # vertex of z^2 - 5z + 5 sits at 2.5 with value -1.25
        assert v.witness == pytest.approx(2.5, abs=1e-6)
        assert poly(v.witness) == pytest.approx(-1.25, abs=1e-9)

    def test_tangential_minimum_does_not_trigger(self):
        poly = characteristic_poly([4.0])
        v = poly_impossible(poly, 4.0)
        assert v.regime is Regime.STABILIZABLE

    def test_positive_poly_does_not_trigger(self):
        poly = characteristic_poly([3.0])
        assert poly_impossible(poly, 3.0).regime is Regime.STABILIZABLE

    def test_empty_interval(self):
        poly = characteristic_poly([0.8])
        assert poly_impossible(poly, 0.8).regime is Regime.STABILIZABLE

    def test_grid_consistency_with_parametric_regime(self):
        # single-exponent criterion flips exactly at the critical value 4
        for k in range(11, 81):
            b = k / 10.0
            poly = characteristic_poly([b])
            triggered = poly_impossible(poly, b).regime is Regime.IMPOSSIBLE
            assert triggered == (b > 4.0), f"mismatch at b={b}"

    def test_two_routes_agree_on_random_polys(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            p = int(rng.integers(1, 8))
            exps = np.sort(rng.uniform(0.2, 9.0, size=p))[::-1]
            exps += np.arange(p, 0, -1) * 1e-3  # enforce strict decrease
            if exps[0] <= 1.0:
                continue
            poly = characteristic_poly(exps)
            zg, vg, zb, vb = poly_min_on_interval(poly, 1.0, float(exps[0]))
            assert abs(vg - vb) <= 1e-9 * max(1.0, abs(vg))


class TestHighorderImpossible:
    def test_critical_radius_is_boundary(self):
        v = highorder_impossible(CRITICAL_RADIUS, 1)
        assert v.regime is Regime.IMPOSSIBLE
        assert v.boundary

    def test_just_below(self):
        # 3.4 < 2*sqrt(2.9) ~ 3.406
        assert highorder_impossible(2.9, 1).regime is Regime.STABILIZABLE

    def test_higher_order(self):
        # 1.5 >= 1.1 * 10^{1/11} ~ 1.356
        assert highorder_impossible(1.0, 10).regime is Regime.IMPOSSIBLE

    def test_flip_point_bisection(self):
        lo, hi = 2.0, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if highorder_impossible(mid, 1).regime is Regime.IMPOSSIBLE:
                hi = mid
            else:
                lo = mid
        assert abs(hi - CRITICAL_RADIUS) <= 1e-9

    def test_order_one_is_twice_the_root(self):
        # at p = 1 the right side is exactly 2 * L^(1/2)
        for L in (0.3, 2.9, CRITICAL_RADIUS, 1e300):
            rhs = 2.0 * L ** 0.5
            assert highorder_impossible(L, 1).witness == L + 0.5 - rhs

    def test_overflowing_product_is_impossible(self):
        # p*L = 2e308 overflows a float; the right side, 1.5 (2e308)^(1/3),
        # is about 8.8e102, far under the left side
        v = highorder_impossible(1e308, 2)
        assert v.regime is Regime.IMPOSSIBLE and not v.boundary
        assert v.witness == pytest.approx(1e308)

    def test_order_beyond_float_range(self):
        # 1/p and 1/(p+1) read 0, so the right side is 1: margin L - 1/2
        p = 10 ** 400
        v = highorder_impossible(2.0, p)
        assert v.regime is Regime.IMPOSSIBLE and v.witness == 1.5
        v = highorder_impossible(0.25, p)
        assert v.regime is Regime.STABILIZABLE and v.witness == -0.25

    def test_domain(self):
        for L in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                highorder_impossible(L, 1)
        with pytest.raises(ValueError):
            highorder_impossible(1.0, 0)


class TestQuasiNorm:
    def test_global_line(self):
        # the lower envelope of a line of slope -2.5 is that line
        f = RealizedPiecewiseLinear(np.array([-1.0, 1.0]),
                                    np.array([3.5, -1.5]), 2.5,
                                    modes=[1, 1, 1])
        assert quasi_norm(f) == 2.5

    def test_mcshane_realization_bounded_by_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            L = float(rng.uniform(0.5, 4.0))
            fn = PiecewiseLinearFn(L=L)
            xs = np.sort(rng.uniform(-5, 5, size=6))
            v = float(rng.uniform(-1, 1))
            for i, x in enumerate(xs):
                if i > 0:
                    v += float(rng.uniform(-L, L)) * (xs[i] - xs[i - 1])
                fn.commit(float(x), v)
            assert quasi_norm(fn.realize()) <= L + 1e-12

    def test_every_realization_reaches_the_budget(self):
        # each tail is an upper or lower envelope, of slope +-L, so every
        # realization's quasi-norm is its budget, whatever its modes
        rng = np.random.default_rng(11)
        for _ in range(25):
            L = float(rng.uniform(0.5, 4.0))
            xs = np.sort(rng.uniform(-5, 5, size=int(rng.integers(1, 7))))
            vs = np.cumsum(np.concatenate(
                ([rng.uniform(-1, 1)],
                 rng.uniform(-L, L, xs.shape[0] - 1) * np.diff(xs))))
            modes = rng.integers(0, 2, xs.shape[0] + 1).tolist()
            f = RealizedPiecewiseLinear(xs, vs, L, modes=modes)
            assert quasi_norm(f) == L


class TestSampledRegime:
    def test_impossible_side(self):
        assert sampled_regime(2.0, 4.0).regime is Regime.IMPOSSIBLE

    def test_stabilizable_side(self):
        assert sampled_regime(1.0, 1.0).regime is Regime.STABILIZABLE

    def test_gap(self):
        assert sampled_regime(1.0, 3.0).regime is Regime.GAP

    def test_boundaries_exact(self):
        ln4 = math.log(4.0)
        v = sampled_regime(1.0, ln4)
        assert v.regime is Regime.GAP and v.boundary
        assert sampled_regime(1.0, ln4 - 1e-9).regime is Regime.STABILIZABLE
        v = sampled_regime(1.0, 7.53)
        assert v.regime is Regime.GAP and v.boundary
        assert sampled_regime(1.0, 7.53 + 1e-9).regime is Regime.IMPOSSIBLE

    def test_three_interval_partition(self):
        ln4 = math.log(4.0)
        for lh in np.linspace(0.01, 10.0, 500):
            reg = sampled_regime(lh, 1.0).regime
            if lh < ln4:
                assert reg is Regime.STABILIZABLE
            elif lh > 7.53:
                assert reg is Regime.IMPOSSIBLE
            else:
                assert reg is Regime.GAP

    def test_domain(self):
        with pytest.raises(ValueError):
            sampled_regime(0.0, 1.0)


class TestScalarMjls:
    def test_boundary_case(self):
        v = scalar_mjls_stabilizable(0.0, 2.0, 0.5)
        assert v.regime is Regime.IMPOSSIBLE
        assert v.boundary
        assert v.witness == pytest.approx(1.0, abs=1e-15)

    def test_stabilizable_case(self):
        v = scalar_mjls_stabilizable(0.0, 1.9, 0.5)
        assert v.regime is Regime.STABILIZABLE
        assert v.witness == pytest.approx(0.9025, abs=1e-12)

    def test_zero_dispersion(self):
        assert scalar_mjls_stabilizable(1.7, 1.7, 0.9).regime is Regime.STABILIZABLE

    def test_domain(self):
        with pytest.raises(ValueError):
            scalar_mjls_stabilizable(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            scalar_mjls_stabilizable(0.0, 1.0, 1.0)
