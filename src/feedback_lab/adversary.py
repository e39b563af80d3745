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
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels

CONSISTENCY_TOL = 1e-12

#: The greedy opponent's working budget on an empty store is
#: |v| <= L|x| + OFFSET_BUDGET * w_bar.
OFFSET_BUDGET = 10.0


class InconsistentAnchors(ValueError):
    """A committed value violates the Lipschitz budget against the store."""


@dataclass(frozen=True)
class RealizedPiecewiseLinear:
    """Immutable total function built from an anchor snapshot.

    The abscissas are finite, sorted and distinct, and adjacent anchors
    respect the slope budget L; construction raises ``ValueError``
    otherwise.  Each interval between adjacent anchors, and each tail,
    takes one of McShane's envelopes (McShane 1934), as ``modes`` lists
    them, the left tail first: 0 the upper, min_i(v_i + L|x - x_i|), the
    largest Lipschitz-L interpolant, and 1 the lower,
    max_i(v_i - L|x - x_i|), the smallest.  Left out, every interval
    takes the upper; a sampled duel's swept intervals each keep the
    envelope that swept them.  The kernels, evaluation and the sampled
    flow read one ``table``: the sorted keys and one row per interval,
    its anchors, their values and its envelope.  Evaluation returns the
    stored value exactly on anchor points, so replaying a trajectory
    through a realization reproduces every recorded function value bit
    for bit.
    """

    xs: np.ndarray
    vs: np.ndarray
    L: float
    modes: np.ndarray | None = None

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("slope budget L must be positive")
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.shape[0] == 0:
            raise ValueError("xs and vs must be 1-D, of one nonzero length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("anchors must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("abscissas must be sorted and distinct")
        # the tolerance scales with the values' magnitude, so realizations
        # of far-escaped runs are not rejected on last-bit rounding; a
        # bound past double range reads inf and admits any difference
        scale = np.maximum(1.0, np.maximum(np.abs(vs[:-1]), np.abs(vs[1:])))
        with np.errstate(over="ignore"):
            steep = np.abs(np.diff(vs)) > self.L * np.diff(xs) + 1e-9 * scale
        if np.any(steep):
            raise ValueError(
                f"anchor difference quotients exceed the slope budget {self.L}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        if self.modes is None:
            modes = np.zeros(xs.shape[0] + 1, dtype=np.int64)
        else:
            modes = np.asarray(self.modes)
            if modes.shape != (xs.shape[0] + 1,) \
                    or not np.isin(modes, (0, 1)).all():
                raise ValueError("modes must hold one envelope, 0 or 1, per "
                                 "interval, the two tails included")
            modes = modes.astype(np.int64)
        object.__setattr__(self, "modes", modes)

    @cached_property
    def table(self) -> tuple[list[float], list[tuple]]:
        """The anchors and ``modes`` in the kernels' store form
        (``kernels.anchor_table``): the sorted keys and one row per
        interval.  Built at the first evaluation, so a realization that is
        only written out, as most duels' are, builds none; the kernels
        only read it."""
        return kernels.anchor_table(self.xs, self.vs, self.modes.tolist())

    def __call__(self, x: float) -> float:
        return kernels.mcshane_eval(*self.table, self.L, float(x))


class PiecewiseLinearFn:
    """Anchor store with slope budget L, realized as the upper envelope.

    Anchors are kept as a sorted list of distinct abscissas and a dict
    from each to its value, the form ``kernels.interval`` reads one row
    from; every commit is checked against the whole store within
    ``CONSISTENCY_TOL`` times the larger of 1 and the two values'
    magnitudes, so far-escaped stores are not rejected on last-bit
    rounding of slope-L cones.  ``realize`` extends the store by the
    upper envelope on every interval.
    """

    def __init__(self, L: float, anchors=()):
        if not L > 0:
            raise ValueError("slope budget L must be positive")
        self.L = float(L)
        self._xs: list[float] = []
        self._vs: dict[float, float] = {}
        for x, v in anchors:
            self.commit(x, v)

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def anchors(self) -> list[tuple[float, float]]:
        return [(x, self._vs[x]) for x in self._xs]

    def anchor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self._xs, dtype=float),
                np.array([self._vs[x] for x in self._xs], dtype=float))

    def value_at(self, x: float) -> float | None:
        """Committed value at x, or None when x carries no anchor."""
        return self._vs.get(x)

    def check_consistent(self, x: float, v: float) -> bool:
        for xi, vi in self._vs.items():
            tol = CONSISTENCY_TOL * max(1.0, abs(v), abs(vi))
            if abs(v - vi) > self.L * abs(x - xi) + tol:
                return False
        return True

    def commit(self, x: float, v: float) -> None:
        x = float(x)
        v = float(v)
        if x in self._vs:
            if self._vs[x] != v:
                raise InconsistentAnchors(
                    f"anchor at x={x} already committed with a different value")
            return
        if not self.check_consistent(x, v):
            raise InconsistentAnchors(
                f"value {v} at x={x} violates the slope budget {self.L}")
        bisect.insort(self._xs, x)
        self._vs[x] = v

    def realize(self) -> RealizedPiecewiseLinear:
        xs, vs = self.anchor_arrays()
        return RealizedPiecewiseLinear(xs, vs, self.L)


def feasible_interval(f: PiecewiseLinearFn, x: float) -> tuple[float, float]:
    """Value range at x consistent with every committed anchor.

    Empty store gives (-inf, +inf) and a committed anchor its stored
    value; consistency of the store guarantees a nonempty intersection of
    the cones, which the two anchors either side of x fix.
    """
    lo, hi = kernels.interval(f._xs, f._vs, f.L, float(x))
    return float(lo), float(hi)


def adversary_choose(f: PiecewiseLinearFn, x: float, u: float,
                     w_bar: float) -> tuple[float, float]:
    """Greedy choice of the function value and noise at the current state.

    Picks the feasible-interval endpoint maximizing |v + u| (ties to the
    upper endpoint), commits it, and points the noise away from the
    origin: w = w_bar * sign(v + u) with sign(0) taken as +1.  An empty
    store leaves the interval unbounded, so it is clipped to the working
    budget |v| <= L|x| + OFFSET_BUDGET * w_bar.  A value past double
    range, where that budget or a slope-L cone overflows, commits at its
    edge, +-``sys.float_info.max``, so the store and its realization stay
    finite and the step that follows still leaves the guard.
    """
    x = float(x)
    u = float(u)
    lo, hi = feasible_interval(f, x)
    if not np.isfinite(lo) or not np.isfinite(hi):
        cap = f.L * abs(x) + OFFSET_BUDGET * w_bar
        lo, hi = -cap, cap
    v = hi if abs(hi + u) >= abs(lo + u) else lo
    v = min(max(v, -sys.float_info.max), sys.float_info.max)
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
    """Greedy endpoint choice intersected with the envelope |v| <= L|x| + c.

    A value past double range commits at +-``sys.float_info.max``, as in
    ``adversary_choose``.
    """
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
    v = min(max(v, -sys.float_info.max), sys.float_info.max)
    fn.commit(x, v)
    return v
