"""Closed-form stabilizability oracles.

Each classifier evaluates one critical value or inequality exactly and
returns a :class:`RegimeVerdict`.  The boundary flag marks instances
whose defining quantity sits within 1e-12 of the critical value; the
regime itself always follows the closed condition (critical values
belong to the impossible side except for the sampled-data pair, whose
in-between interval is reported as a gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Growth exponent above which no feedback stabilizes the scalar
#: parametric loop.
CRITICAL_EXPONENT = 4.0

#: Maximum slope budget a feedback can handle in the first-order
#: nonparametric loop: 3/2 + sqrt(2).
CRITICAL_RADIUS = 1.5 + math.sqrt(2.0)

#: Sampled-data products L*h below which a stabilizing sampled feedback
#: exists, and above which none does.  In between is open territory.
SAMPLED_STABILIZABLE_LH = math.log(4.0)
SAMPLED_IMPOSSIBLE_LH = 7.53

BOUNDARY_TOL = 1e-12
TRIGGER_TOL = 1e-12


class Regime(Enum):
    STABILIZABLE = "stabilizable"
    IMPOSSIBLE = "impossible"
    GAP = "gap"


@dataclass(frozen=True)
class RegimeVerdict:
    regime: Regime
    boundary: bool = False
    witness: float | None = None

    @property
    def stabilizable(self) -> bool:
        return self.regime is Regime.STABILIZABLE


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial z^{p+1} - b_1 z^p + (b_1-b_2) z^{p-1} + ... + b_p.

    ``coeffs`` holds the p+2 coefficients in descending powers.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs[0] != 1.0:
            raise ValueError("characteristic polynomial must be monic")

    def __call__(self, z):
        return np.polyval(self.coeffs, z)

    def derivative_coeffs(self) -> np.ndarray:
        return np.polyder(self.coeffs)


def parametric_regime(b: float) -> RegimeVerdict:
    """Classify the growth exponent of the scalar parametric loop.

    Stabilizable strictly below the critical exponent 4, impossible from
    it onward.
    """
    if not 0 <= b < math.inf:
        raise ValueError("growth exponent must be nonnegative and finite")
    boundary = abs(b - CRITICAL_EXPONENT) <= BOUNDARY_TOL
    if b >= CRITICAL_EXPONENT:
        return RegimeVerdict(Regime.IMPOSSIBLE, boundary, witness=b)
    return RegimeVerdict(Regime.STABILIZABLE, boundary, witness=b)


def characteristic_poly(exponents) -> CharPoly:
    """Build the degree-(p+1) polynomial attached to decreasing exponents."""
    bs = [float(b) for b in exponents]
    if len(bs) < 1:
        raise ValueError("at least one exponent is required")
    if any(b <= 0 for b in bs):
        raise ValueError("exponents must be positive")
    if any(bs[i] <= bs[i + 1] for i in range(len(bs) - 1)):
        raise ValueError("exponents must be strictly decreasing")
    coeffs = [1.0, -bs[0]]
    for i in range(len(bs) - 1):
        coeffs.append(bs[i] - bs[i + 1])
    coeffs.append(bs[-1])
    return CharPoly(np.array(coeffs))


def _golden_section_min(fn, a: float, b: float, tol: float = 1e-13,
                        max_iter: int = 200) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = fn(c)
    fd = fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    z = 0.5 * (a + b)
    return z, fn(z)


def _bisect_root(fn, a: float, b: float, tol: float = 1e-14,
                 max_iter: int = 200) -> float:
    fa = fn(a)
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if b - a < tol:
            return m
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


GRID_POINTS = 4096


def poly_min_on_interval(poly: CharPoly, a: float, b: float
                         ) -> tuple[float, float, float, float]:
    """Minimum of the polynomial on (a, b) by two independent routes.

    Route one: dense grid of ``GRID_POINTS`` interior points refined by
    golden-section search around the best bracket.  Route two: critical
    points from sign-change bisection of the derivative.  Returns
    (z_grid, min_grid, z_deriv, min_deriv).
    """
    zs = np.linspace(a, b, GRID_POINTS + 2)[1:-1]
    vals = poly(zs)
    i = int(np.argmin(vals))
    lo = zs[i - 1] if i > 0 else a
    hi = zs[i + 1] if i < zs.shape[0] - 1 else b
    zg, vg = _golden_section_min(poly, lo, hi)
    if vals[i] < vg:
        zg, vg = float(zs[i]), float(vals[i])

    dcoef = poly.derivative_coeffs()

    def dp(z):
        return np.polyval(dcoef, z)

    # interval-closure endpoints join the critical points so that
    # boundary infima are reported identically by both routes
    cand_z = [a, b]
    dvals = dp(zs)
    signs = np.sign(dvals)
    for j in range(zs.shape[0] - 1):
        if signs[j] == 0.0:
            cand_z.append(float(zs[j]))
        elif signs[j] * signs[j + 1] < 0:
            cand_z.append(_bisect_root(dp, float(zs[j]), float(zs[j + 1])))
    vb = np.inf
    zb = cand_z[0]
    for z in cand_z:
        v = float(poly(z))
        if v < vb:
            vb, zb = v, z
    return float(zg), float(vg), float(zb), float(vb)


def poly_impossible(poly: CharPoly, b_1: float) -> RegimeVerdict:
    """Negativity test of the polynomial on the open interval (1, b_1).

    A strictly negative value certifies non-stabilizability; the witness
    is the located minimizer.  For b_1 <= 1 the interval is empty and
    the criterion cannot trigger.  Tangential minima at exactly zero do
    not trigger.
    """
    if b_1 <= 1.0:
        return RegimeVerdict(Regime.STABILIZABLE, witness=None)
    zg, vg, zb, vb = poly_min_on_interval(poly, 1.0, float(b_1))
    z_star, v_star = (zg, vg) if vg <= vb else (zb, vb)
    if v_star < -TRIGGER_TOL:
        return RegimeVerdict(Regime.IMPOSSIBLE, witness=float(z_star))
    return RegimeVerdict(Regime.STABILIZABLE, witness=None)


def highorder_impossible(L: float, p: int) -> RegimeVerdict:
    """Impossibility inequality L + 1/2 >= (1 + 1/p) (pL)^{1/(p+1)}.

    For p = 1 the condition reduces to L >= 3/2 + sqrt(2).  The witness
    is the signed distance between the two sides.
    """
    if not 0 < L < math.inf:
        raise ValueError("slope budget L must be positive and finite")
    if p < 1:
        raise ValueError("order p must be at least 1")
    lhs = L + 0.5
    # factored, so p*L cannot overflow; 1 / p divides ints correctly
    # rounded, so an order beyond float range reads e = 0 and rhs = 1
    e = 1 / (p + 1)
    rhs = (1 + 1 / p) * math.exp(math.log(p) * e) * L ** e
    diff = lhs - rhs
    boundary = abs(diff) <= BOUNDARY_TOL
    if diff >= -BOUNDARY_TOL:
        return RegimeVerdict(Regime.IMPOSSIBLE, boundary, witness=diff)
    return RegimeVerdict(Regime.STABILIZABLE, boundary, witness=diff)


def quasi_norm(f) -> float:
    """Asymptotic slope of a realized piecewise-linear function.

    Equals max(|left tail slope|, |right tail slope|), the exact value of
    the vanishing-offset slope seminorm on this class: bounded-region
    variation washes out and cross-tail pairs are dominated by the
    steeper tail.
    """
    tails = f.tail_slopes()
    return max(abs(tails[0]), abs(tails[1]))


def sampled_regime(L: float, h: float) -> RegimeVerdict:
    """Classify the product L*h for the sampled-data loop.

    Below log(4) a stabilizing sampled feedback exists; above 7.53 none
    does; the interval in between is reported as a gap.
    """
    if not (L > 0 and h > 0):
        raise ValueError("L and h must be positive")
    lh = L * h
    boundary = (abs(lh - SAMPLED_STABILIZABLE_LH) <= BOUNDARY_TOL
                or abs(lh - SAMPLED_IMPOSSIBLE_LH) <= BOUNDARY_TOL)
    if lh < SAMPLED_STABILIZABLE_LH:
        return RegimeVerdict(Regime.STABILIZABLE, boundary, witness=lh)
    if lh > SAMPLED_IMPOSSIBLE_LH:
        return RegimeVerdict(Regime.IMPOSSIBLE, boundary, witness=lh)
    return RegimeVerdict(Regime.GAP, boundary, witness=lh)


def scalar_mjls_stabilizable(A1: float, A2: float, p12: float) -> RegimeVerdict:
    """Two-mode scalar test: stabilizable iff (A2-A1)^2 (1-p12) p12 < 1.

    The first factor measures mode dispersion, the second the switching
    uncertainty; their product is the witness.
    """
    if not 0.0 < p12 < 1.0:
        raise ValueError("p12 must lie strictly inside (0, 1)")
    cp = (A2 - A1) ** 2 * (1.0 - p12) * p12
    boundary = abs(cp - 1.0) <= BOUNDARY_TOL
    if cp < 1.0:
        return RegimeVerdict(Regime.STABILIZABLE, boundary, witness=cp)
    return RegimeVerdict(Regime.IMPOSSIBLE, boundary, witness=cp)
