"""Online worst-case construction of the uncertain function and noise.

The opponent never writes a formula down.  It keeps a growing store of
committed anchor points (x_i, v_i) that any future choice must respect
through the slope budget L, and picks each new value greedily at an
endpoint of the feasible interval.  Realizing the store extends it to a
total Lipschitz function, so a finished episode is always consistent
with one fixed member of the declared uncertainty ball.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import kernels

CONSISTENCY_TOL = 1e-12


class Extension(IntEnum):
    """Rule extending committed anchors to a total function.

    ``MCSHANE_MIN`` takes the pointwise minimum of the upward cones
    v_i + L|x - x_i| (the largest Lipschitz-L interpolant), ``MCSHANE_MAX``
    the maximum of the downward cones v_i - L|x - x_i| (the smallest),
    and ``MIDPOINT`` their average, whose tails are flat.
    """

    MCSHANE_MIN = kernels.EXT_UPPER
    MCSHANE_MAX = kernels.EXT_LOWER
    MIDPOINT = kernels.EXT_MIDPOINT


class InconsistentAnchors(ValueError):
    """A committed value violates the Lipschitz budget against the store."""


def slopes_exceed(xs: np.ndarray, vs: np.ndarray, L: float) -> bool:
    """Whether an adjacent difference quotient of sorted anchors exceeds L.

    The tolerance scales with the values' magnitude, so realizations of
    far-escaped runs are not rejected on last-bit rounding.
    """
    if xs.shape[0] < 2:
        return False
    dv = np.abs(np.diff(vs))
    scale = np.maximum(1.0, np.maximum(np.abs(vs[:-1]), np.abs(vs[1:])))
    return bool(np.any(dv > L * np.diff(xs) + 1e-9 * scale))


@dataclass(frozen=True)
class RealizedPiecewiseLinear:
    """Immutable total function built from an anchor snapshot.

    The abscissas are finite, sorted and distinct, and adjacent anchors
    respect the slope budget L; construction raises ``ValueError``
    otherwise.  Evaluation returns the stored value exactly on anchor
    points and the extension-rule value elsewhere, so replaying a
    trajectory through a realization reproduces every recorded function
    value bit for bit.
    """

    xs: np.ndarray
    vs: np.ndarray
    L: float
    extension: Extension = Extension.MCSHANE_MIN

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.shape[0] == 0:
            raise ValueError("xs and vs must be 1-D, of one nonzero length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("anchors must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("abscissas must be sorted and distinct")
        if slopes_exceed(xs, vs, self.L):
            raise ValueError(
                f"anchor difference quotients exceed the slope budget {self.L}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)

    @property
    def ext_mode(self) -> int:
        return int(self.extension)

    def __call__(self, x: float) -> float:
        return kernels.mcshane_eval(self.xs, self.vs, self.xs.shape[0],
                                    self.L, self.ext_mode, float(x))

    def tail_slopes(self) -> tuple[float, float]:
        """Signed slopes of the left and right unbounded pieces."""
        if self.extension == Extension.MCSHANE_MIN:
            return -self.L, self.L
        if self.extension == Extension.MCSHANE_MAX:
            return self.L, -self.L
        return 0.0, 0.0

    @property
    def anchors(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.vs.tolist()))


@dataclass(frozen=True)
class LinearFn:
    """Globally affine function a*x + b, tails of slope a on both sides."""

    a: float
    b: float = 0.0

    def __call__(self, x: float) -> float:
        return self.a * x + self.b

    def tail_slopes(self) -> tuple[float, float]:
        return self.a, self.a


class PiecewiseLinearFn:
    """Anchor store with slope budget L and an extension rule.

    Anchors are kept sorted by x with distinct abscissas; every commit is
    checked against the whole store within ``CONSISTENCY_TOL`` times the
    larger of 1 and the two values' magnitudes, so far-escaped stores are
    not rejected on last-bit rounding of slope-L cones.
    """

    def __init__(self, L: float, extension: Extension = Extension.MCSHANE_MIN,
                 anchors=()):
        if not L > 0:
            raise ValueError("slope budget L must be positive")
        self.L = float(L)
        self.extension = Extension(extension)
        self._xs: list[float] = []
        self._vs: list[float] = []
        for x, v in anchors:
            self.commit(x, v)

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def anchors(self) -> list[tuple[float, float]]:
        return list(zip(self._xs, self._vs))

    def anchor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._xs, dtype=float), np.array(self._vs, dtype=float)

    def value_at(self, x: float) -> float | None:
        """Committed value at x, or None when x carries no anchor."""
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self._vs[i]
        return None

    def check_consistent(self, x: float, v: float) -> bool:
        for xi, vi in zip(self._xs, self._vs):
            tol = CONSISTENCY_TOL * max(1.0, abs(v), abs(vi))
            if abs(v - vi) > self.L * abs(x - xi) + tol:
                return False
        return True

    def commit(self, x: float, v: float) -> None:
        x = float(x)
        v = float(v)
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            if self._vs[i] != v:
                raise InconsistentAnchors(
                    f"anchor at x={x} already committed with a different value")
            return
        if not self.check_consistent(x, v):
            raise InconsistentAnchors(
                f"value {v} at x={x} violates the slope budget {self.L}")
        self._xs.insert(i, x)
        self._vs.insert(i, v)

    def realize(self) -> RealizedPiecewiseLinear:
        xs, vs = self.anchor_arrays()
        return RealizedPiecewiseLinear(xs, vs, self.L, self.extension)


def feasible_interval(f: PiecewiseLinearFn, x: float) -> tuple[float, float]:
    """Value range at x consistent with every committed anchor.

    Empty store gives (-inf, +inf) and a committed anchor its stored
    value; consistency of the store guarantees a nonempty intersection of
    the cones, which the two anchors either side of x fix.
    """
    xs, vs = f.anchor_arrays()
    lo, hi = kernels.interval(xs, vs, xs.shape[0], f.L, float(x))
    return float(lo), float(hi)


def adversary_choose(f: PiecewiseLinearFn, x: float, u: float, w_bar: float,
                     budget_mult: float = 10.0) -> tuple[float, float]:
    """Greedy choice of the function value and noise at the current state.

    Picks the feasible-interval endpoint maximizing |v + u| (ties to the
    upper endpoint), commits it, and points the noise away from the
    origin: w = w_bar * sign(v + u) with sign(0) taken as +1.  An empty
    store leaves the interval unbounded, so it is clipped to the working
    budget |v| <= L|x| + budget_mult*w_bar.
    """
    x = float(x)
    u = float(u)
    lo, hi = feasible_interval(f, x)
    if not np.isfinite(lo) or not np.isfinite(hi):
        cap = f.L * abs(x) + budget_mult * w_bar
        lo, hi = -cap, cap
    v = hi if abs(hi + u) >= abs(lo + u) else lo
    w = w_bar if (v + u) >= 0.0 else -w_bar
    f.commit(x, v)
    return v, w


def realize(f: PiecewiseLinearFn) -> RealizedPiecewiseLinear:
    """Extend the committed anchors to a total Lipschitz-L function."""
    return f.realize()


@dataclass
class SampledAdversaryState:
    """Anchor store plus the envelope constraint |v| <= L|x| + c."""

    fn: PiecewiseLinearFn
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("offset c must be positive")
        for x, v in self.fn.anchors:
            tol = CONSISTENCY_TOL * max(1.0, abs(v))
            if abs(v) > self.fn.L * abs(x) + self.c + tol:
                raise InconsistentAnchors(
                    "anchor outside the envelope |v| <= L|x| + c")


def sampled_adversary_choose(state: SampledAdversaryState, x: float,
                             u: float) -> float:
    """Greedy endpoint choice intersected with the envelope |v| <= L|x| + c."""
    x = float(x)
    u = float(u)
    fn = state.fn
    lo, hi = feasible_interval(fn, x)
    box = fn.L * abs(x) + state.c
    lo = max(lo, -box)
    hi = min(hi, box)
    if lo > hi:
        # membership of every committed anchor makes the intersection
        # nonempty in exact arithmetic; a boundary-tight pinch can invert
        # by rounding and collapses to its midpoint
        if lo - hi > 1e-9 * max(1.0, abs(lo), abs(hi)):
            raise InconsistentAnchors(
                "feasible interval empty against the envelope constraint")
        mid = 0.5 * (lo + hi)
        lo = hi = min(max(mid, -box), box)
    v = hi if abs(hi + u) >= abs(lo + u) else lo
    fn.commit(x, v)
    return v


class HighOrderAnchors:
    """Anchor store over R^p under the l1 metric ||x|| = sum_i |x_i|."""

    def __init__(self, p: int, L: float):
        if p < 1:
            raise ValueError("order p must be at least 1")
        if not L > 0:
            raise ValueError("slope budget L must be positive")
        self.p = int(p)
        self.L = float(L)
        self._points: list[np.ndarray] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._points)

    def commit(self, point, value: float) -> None:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.p,):
            raise ValueError(f"anchor point must have shape ({self.p},)")
        for q, v in zip(self._points, self._values):
            if np.array_equal(q, point):
                if v != value:
                    raise InconsistentAnchors("conflicting value at a point")
                return
            tol = CONSISTENCY_TOL * max(1.0, abs(value), abs(v))
            if abs(value - v) > self.L * np.sum(np.abs(point - q)) + tol:
                raise InconsistentAnchors("value violates the l1 slope budget")
        self._points.append(point)
        self._values.append(float(value))

    def realize(self):
        """Minimum of the upward l1 cones, exact on committed points."""
        points = [q.copy() for q in self._points]
        values = list(self._values)
        L = self.L
        if not points:
            raise ValueError("cannot realize an empty anchor store")

        def f(x):
            x = np.asarray(x, dtype=float)
            best = np.inf
            for q, v in zip(points, values):
                if np.array_equal(q, x):
                    return v
            for q, v in zip(points, values):
                c = v + L * np.sum(np.abs(x - q))
                if c < best:
                    best = c
            return best

        return f


def highorder_feasible_interval(anchors: HighOrderAnchors,
                                x) -> tuple[float, float]:
    """Cone-intersection interval with |.| replaced by the l1 distance."""
    x = np.asarray(x, dtype=float)
    if len(anchors) == 0:
        return -np.inf, np.inf
    lo = -np.inf
    hi = np.inf
    for q, v in zip(anchors._points, anchors._values):
        d = float(np.sum(np.abs(x - q)))
        lo = max(lo, v - anchors.L * d)
        hi = min(hi, v + anchors.L * d)
    return lo, hi
