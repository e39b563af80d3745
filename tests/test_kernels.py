"""Every kernel against a reference route that does not share its body.

Each kernel has one body, so the references live elsewhere: full-cone
scans written here for the neighbour-only envelope and interval,
linear-scan controllers (``recompute_input``) for the sorted-history
nearest-neighbour choice, the model step operations (replay) for the
states, the reference adversary for the duel's committed values,
``riccati_rhs`` for the fixed-point iterates and the matrix-product
gains for the solver's gains, and for the jump-linear episode the
matrix-product route and the loop its generated code replaced
(``reference_mjls_episode``)."""

import hashlib
import inspect
import math
import os
import struct
import subprocess
import sys
import textwrap
import traceback
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from feedback_lab import (GreedyAdversary, MarkovChain,
                          MartingaleDiffVector, MjlsGainControl, MjlsSpec,
                          MjlsSystem, NonparametricSystem, PiecewiseLinearFn,
                          RealizedPiecewiseLinear, SampledAdversaryState,
                          SampledCeControl, SampledGreedyAdversary,
                          SampledSpec, SampledSystem, SwitchingControl,
                          Trajectory, ZeroControl, adversary_choose,
                          check_replay, controllers, feasible_interval,
                          kernels, models, recompute_input, riccati_rhs,
                          run_episode, sampled_adversary_choose,
                          solve_coupled_riccati)
from feedback_lab.riccati import (DEFAULT_MAX_ITER, DEFAULT_TOL,
                                   DIVERGENCE_GUARD, SVD_RTOL, _mode_sums,
                                   pseudoinverse)
from feedback_lab.sim import (RandomMember, random_envelope_member,
                              random_lipschitz_member, replay_states)

GUARD = 1e150

# Riccati specs beyond one state: (P, A, B, status, iterations)
VECTOR_SPECS = [
    # two states, one input
    ([[0.7, 0.3], [0.4, 0.6]],
     [[[0.6, 0.3], [0.0, 0.9]], [[1.1, 0.0], [0.2, 0.7]]],
     [[[1.0], [0.5]], [[0.0], [1.0]]], 0, 80),
    # the benchmark's jump-linear shape: three modes, three states, full
    # actuation
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
     [[[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]],
      [[1.2 * 0.7648, -1.2 * 0.6442, 0.0],
       [1.2 * 0.6442, 1.2 * 0.7648, 0.0], [0.0, 0.0, 0.9]],
      [[1.5, 0.2, 0.0], [0.0, 0.3, 0.1], [0.0, 0.0, -0.8]]],
     [np.eye(3).tolist()] * 3, 0, 19),
]
VECTOR_SPEC_IDS = ["n2_m1", "n3_m3"]

# first states of an RLS episode that reach each branch of the power
PARAMETRIC_EDGE_STATES = [0.0, -0.0, math.nan, 5e-324, -5e-324, 1e60, -1e60]
PARAMETRIC_EDGE_IDS = ["zero", "neg_zero", "nan", "subnormal",
                       "neg_subnormal", "overflow", "neg_overflow"]


def numpy_gains(Ms, spec):
    """The gains as the numpy route forms them: S_bb^+ S_ab' from matrix
    products and the SVD pseudo-inverse."""
    return np.array([pseudoinverse(S_bb) @ S_ab.T
                     for _, S_ab, S_bb in (_mode_sums(Ms, spec, i)
                                           for i in range(spec.n_modes))])


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
    return (hi, lo)[mode]


def members():
    """Random Lipschitz members and envelope-clipped members, whose
    clipped runs lie on segments of slope exactly L."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        yield random_lipschitz_member(2.0, RandomMember(), rng), 12.0
        yield random_envelope_member(1.5, 1.0, rng), 25.0


def queries(f, span, rng):
    return np.concatenate([rng.uniform(-span, span, 60), f.xs])


def _bits(x):
    return np.float64(x).tobytes()


def uniform(xs, vs, mode):
    """The store of the anchors ``(xs, vs)`` extended by one envelope
    everywhere: its keys and rows."""
    xs = np.asarray(xs, dtype=float)
    return kernels.anchor_table(xs, np.asarray(vs, dtype=float),
                                [mode] * (xs.shape[0] + 1))


def value_dict(xs, vs):
    """The anchors ``(xs, vs)`` as ``PiecewiseLinearFn`` keeps them, the
    form ``kernels.interval`` reads: sorted keys and a value dict."""
    keys = np.asarray(xs, dtype=float).tolist()
    return keys, dict(zip(keys, np.asarray(vs, dtype=float).tolist()))


def _same_bits(a, b):
    return _bits(a) == _bits(b) or (a != a and b != b)


class TestArrayBits:
    def test_packed_array_is_fromiters_bytes(self):
        # the episode kernels' returns: signed zeros and infinities, NaNs
        # with three payloads (one of them signalling), the subnormal
        # minimum, the largest double and Python ints, and no entry at all
        nans = [struct.unpack("<d", struct.pack("<Q", q))[0]
                for q in (0x7FF8000000000001, 0xFFF80000DEADBEEF,
                          0x7FF4000000000000)]
        values = [0.0, -0.0, math.inf, -math.inf, *nans, 5e-324,
                  sys.float_info.max, -sys.float_info.max, 0, 1, -7,
                  2**53 + 1]
        for xs in (values, values[::-1], [], [-0.0], nans):
            a = kernels._array(xs)
            assert a.dtype == np.float64 and a.shape == (len(xs),)
            assert a.flags.writeable and a.flags.c_contiguous
            assert a.tobytes() == np.fromiter(xs, float, len(xs)).tobytes()
        assert len({v.tobytes() for v in kernels._array(nans)}) == 3


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

    def test_power_eval_overflow_matches_float64(self):
        # Python floats raise OverflowError where float64 gives inf;
        # power_eval returns the float64 bits and never raises
        def float64_power(M, b, y):
            M, b, y = np.float64(M), np.float64(b), np.float64(y)
            if y > 0:
                return M * y**b
            if y < 0:
                return -(M * (-y) ** b)
            return np.float64(0.0)

        ys = [0.0, 5e-324, 1.0, 1e60, 1e150]
        overflows = 0
        with np.errstate(over="ignore"):
            for y in ys + [-y for y in ys] + [math.nan]:
                for b in (0.0, 0.5, 1.5, 2.0, 3.5, 6.0, 10.0):
                    for M in (1.0, 2.5):
                        got = kernels.power_eval(M, b, y)
                        assert _bits(got) == _bits(float64_power(M, b, y))
                        overflows += math.isinf(got)
        # 1e60 at b 6 and 10, 1e150 at b 3.5, 6 and 10; both signs and Ms
        assert overflows == 5 * 2 * 2

    def test_pinv_closed_form_matches_svd_route(self):
        # at one input the pseudo-inverse skips the SVD.  Where LAPACK does
        # not rescale the matrix (about 6.7e-139 <= |x| <= 1.5e138) its
        # singular value is |x|, so both routes give the same bits; at
        # +-inf it is NaN, which the truncation maps to 0
        for x in (0.0, 1e-138, 1e-100, 1.0, 3.0, 1e100, 1e138, math.inf):
            for v in (x, -x):
                got = kernels._pinv1(v, SVD_RTOL)
                assert _bits(got) == _bits(
                    kernels._svd_pinv([[v]], SVD_RTOL)[0][0])
        # beyond that range the rescaled singular value can be an ulp off
        # |x|; the closed form stays the correctly rounded 1/x
        with np.errstate(over="ignore"):
            for x in (5e-324, 1e-300, 1e300):
                for v in (x, -x):
                    got = kernels._pinv1(v, SVD_RTOL)
                    want = kernels._svd_pinv([[v]], SVD_RTOL)[0][0]
                    assert _bits(got) == _bits(1.0 / v)
                    assert got == want or abs(got - want) <= 2 * math.ulp(got)
        with pytest.raises(np.linalg.LinAlgError):
            kernels._pinv1(math.nan, SVD_RTOL)
        with pytest.raises(np.linalg.LinAlgError):
            kernels._svd_pinv([[math.nan]], SVD_RTOL)

    def test_scalar_riccati_map_is_the_generic_loops(self):
        # the generated loop's straight-line map at n = m = 1, run for one
        # iteration from the drawn iterate; on entries drawn from signed
        # zeros, infinities, extremes and subnormals it gives the generic
        # body's bits (NaN too) or raises where it raises
        rng = np.random.default_rng(8)
        pool = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200, -1e-200, 1e200,
                -1e200, math.inf, -math.inf, 3e-320]

        def draw(k):
            return [pool[j] if j < len(pool) else float(rng.normal(0, 2))
                    for j in rng.integers(0, 2 * len(pool), k)]

        def nested(xs):
            # each entry as the 1 x 1 matrix (its own transpose)
            return [[[x]] for x in xs]

        def scalar_map(N, A, B, P, Ms):
            # one iteration of the generated loop: its iterate, flat
            loop = kernels._riccati_loop(N, 1, 1)
            return loop(nested(A), nested(B), P, nested(Ms), DEFAULT_TOL, 1,
                        DIVERGENCE_GUARD, SVD_RTOL)[0]

        raised = 0
        with np.errstate(all="ignore"):
            for _ in range(3000):
                N = int(rng.integers(1, 4))
                A, B, Pf, Ms = draw(N), draw(N), draw(N * N), draw(N)
                P = [Pf[i * N:i * N + N] for i in range(N)]
                try:
                    want = kernels._riccati_map(nested(A), nested(B), P,
                                                nested(Ms), SVD_RTOL)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        scalar_map(N, A, B, P, Ms)
                    raised += 1
                    continue
                got = scalar_map(N, A, B, P, Ms)
                assert [_bits(x) for x in got] == \
                    [_bits(M[0][0]) for M in want]
        assert 0 < raised < 3000

    def test_scalar_gains_are_the_generic_gains(self):
        # the generated loop's straight-line gains at n = m = 1, after one
        # iteration that converges (tol inf), give _riccati_gains's bits on
        # the iterate it returns, or turn the verdict indeterminate where
        # an S_bb is not finite, as _riccati_gains returns None there
        rng = np.random.default_rng(9)
        pool = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200, -1e-200, 1e200,
                -1e200, 1e-160, 3e-320]
        seen = {"gains": 0, "indeterminate": 0}
        with np.errstate(all="ignore"):
            for _ in range(3000):
                N = int(rng.integers(1, 4))
                A, B, Pf, Ms = ([[[pool[j] if j < len(pool)
                                   else float(rng.normal(0, 2))]]
                                 for j in rng.integers(0, 2 * len(pool), k)]
                                for k in (N, N, N * N, N))
                P = [[row[0][0] for row in Pf[i * N:i * N + N]]
                     for i in range(N)]
                try:
                    M, status, _, delta, Ks = kernels._riccati_loop(N, 1, 1)(
                        A, B, P, Ms, math.inf, 1, math.inf, SVD_RTOL)
                except np.linalg.LinAlgError:
                    continue
                if not delta < math.inf:
                    continue  # a NaN or inf step never converges
                want = kernels._riccati_gains(A, B, P,
                                              [[[m]] for m in M], SVD_RTOL)
                if want is None:
                    assert (status, Ks) == (2, None)
                    seen["indeterminate"] += 1
                else:
                    assert status == 0 and [_bits(K[0][0]) for K in Ks] == \
                        [_bits(K[0][0]) for K in want]
                    seen["gains"] += 1
        assert all(v > 50 for v in seen.values()), seen

    def test_mcshane_eval(self):
        # neighbour-only evaluation equals the full-cone scan bit for bit
        # (NaN as NaN): on random members and a one-anchor realization, at
        # +-inf and NaN, on every anchor and along both tails, under both
        # envelopes and under a random envelope per interval
        rng = np.random.default_rng(2)
        one = RealizedPiecewiseLinear(np.array([0.5]), np.array([-1.25]),
                                      3.0)
        for f, span in [*members(), (one, 4.0)]:
            keys = f.xs.tolist()
            xs = [float(x) for x in queries(f, span, rng)] + [
                -np.inf, np.inf, np.nan, keys[0] - 1e3, keys[0] - 0.5,
                keys[-1] + 0.5, keys[-1] + 1e3]
            for mode in (0, 1):
                rows = uniform(f.xs, f.vs, mode)[1]
                for x in xs:
                    assert _same_bits(
                        kernels.mcshane_eval(keys, rows, f.L, x),
                        full_mcshane(f.xs, f.vs, f.L, mode, x)), (mode, x)
            # a realization reads its interval's envelope: the tails' are
            # the first and last in its list
            modes = rng.integers(0, 2, len(keys) + 1)
            g = RealizedPiecewiseLinear(f.xs, f.vs, f.L, modes=modes)
            for x in xs:
                mode = int(modes[np.searchsorted(f.xs, x)])
                assert _same_bits(g(x), full_mcshane(f.xs, f.vs, f.L, mode,
                                                     x)), (mode, x)

    def test_exact_anchor_hit_returns_stored_value(self):
        xs, vs = anchors()
        keys, vals = value_dict(xs, vs)
        for i in range(xs.shape[0]):
            assert kernels.interval(keys, vals, 2.0, xs[i]) == (vs[i], vs[i])
            for mode in (0, 1):
                assert kernels.mcshane_eval(*uniform(xs, vs, mode),
                                            2.0, xs[i]) == vs[i]
        # a duel's anchors sit on runs of slope exactly L, where a
        # neighbour's cone can round past the stored value at an anchor
        for L in (2.0, 6.0):
            out = kernels.nonparam_duel(0.4, L, 1.0, 10.0, 0.1, GUARD, 200)
            for mode in (0, 1):
                keys, rows = uniform(out[4], out[5], mode)
                for x, v in zip(keys, out[5].tolist()):
                    assert _bits(kernels.mcshane_eval(keys, rows, L, x)) == \
                        _bits(v)

    def test_interval(self):
        rng = np.random.default_rng(3)
        for f, span in members():
            keys, vals = value_dict(f.xs, f.vs)
            for x in queries(f, span, rng):
                assert kernels.interval(keys, vals, f.L, float(x)) == \
                    full_interval(f.xs, f.vs, f.L, float(x))
        assert kernels.interval([], {}, 1.0, 3.0) == (-np.inf, np.inf)

    def test_duel_stores_within_rounding_of_full_scan(self):
        # the greedy opponent commits cone endpoints, so its anchors sit on
        # segments of slope exactly L; there the neighbours' cones and the
        # full scan may round apart by a few ulps, never more
        rng = np.random.default_rng(4)
        for L in (2.0, 6.0):
            out = kernels.nonparam_duel(0.4, L, 1.0, 10.0, 0.1, GUARD, 200)
            xs, vs = out[4], out[5]
            assert xs.shape[0] == out[6]
            for x in rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 300):
                for mode in (0, 1):
                    a = kernels.mcshane_eval(*uniform(xs, vs, mode), L, x)
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
    """The located index is np.searchsorted's (left side), and the cone
    at it is the interval."""

    @given(keys=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   min_value=-1e300, max_value=1e300),
                         max_size=10, unique=True).map(sorted),
           extra=st.floats(allow_nan=True, allow_infinity=True))
    @example(keys=[], extra=1.0)
    @example(keys=[2.0], extra=3.0)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bisect_and_cone_equal_searchsorted(self, keys, extra):
        n = len(keys)
        xs = np.array(keys, dtype=float)
        vs = np.cos(np.arange(float(n)))
        keys, vals = value_dict(xs, vs)
        rows = kernels.anchor_table(xs, vs, [None] * (n + 1))[1]
        for x in probes(keys) + [extra]:
            ref = int(np.searchsorted(xs, x))
            assert kernels._bisect(keys, x) == ref, x
            lo, hi = kernels.interval(keys, vals, 1.5, x)
            cone = kernels._cone(rows[ref], 1.5, x)
            assert _same(cone[0], lo) and _same(cone[1], hi), x


def _history_keys(hist):
    # a blocked history's keys as one sorted list: its blocks joined
    return [key for block in hist[0] for key in block]


def _history_steps(hist):
    # a blocked history's first-visit steps, in the order of its keys
    return [step for block in hist[2] for step in block]


def _split_steps(states):
    """The steps whose visit split a history block, recording ``states``
    through ``_visit`` as the episode kernels do."""
    hist = ([], [], [])
    out = []
    for t, y in enumerate(states):
        n = len(hist[0])
        kernels._visit(hist, y, t)
        if n and len(hist[0]) > n:
            out.append(t)
    return out


def _assert_row_invariant(keys, rows, first):
    """Row j's right anchor and row j + 1's left anchor are keys[j], the
    same bits, and both carry the key's first value (``first`` maps each
    key to it, NaN keys by identity); the tails lack their outer anchor."""
    assert len(rows) == len(keys) + 1
    assert rows[0][:2] == (None, None) and rows[-1][2:4] == (None, None)
    for j, key in enumerate(keys):
        assert _bits(rows[j][2]) == _bits(key) == _bits(rows[j + 1][0]), j
        assert rows[j][3] == first[key] == rows[j + 1][1], j


class TestSortedStores:
    """A store is a sorted key list, blocked in a history with a list of
    first-visit steps beside each block, and for an anchor store one row
    per interval, which holds the anchors either side and their values."""

    def test_insert_keeps_first_value_sorted_and_distinct(self):
        # between inserts a random row takes a random envelope, as a flow
        # closing an interval rewrites its row; a split keeps it
        rng = np.random.default_rng(5)
        keys_in = rng.integers(-20, 20, 300).astype(float)
        keys = []
        rows = [kernels._FREE]
        first = {}
        for t, key in enumerate(keys_in.tolist()):
            j = kernels._bisect(keys, key)
            before = list(rows)
            kernels._insert(keys, rows, j, key, t)
            first.setdefault(key, t)
            if len(rows) == len(before):
                assert rows == before  # a stored key keeps its rows
            else:
                assert rows[:j] == before[:j] and \
                    rows[j + 2:] == before[j + 1:]
                assert rows[j][4] == rows[j + 1][4] == before[j][4]
            _assert_row_invariant(keys, rows, first)
            i = int(rng.integers(len(rows)))
            rows[i] = rows[i][:4] + ((None, 0, 1)[rng.integers(3)],)
        uniq, first_index = np.unique(keys_in, return_index=True)
        assert np.array_equal(keys, uniq)
        assert [row[2] for row in rows[:-1]] == keys
        assert [row[0] for row in rows[1:]] == keys
        assert [row[3] for row in rows[:-1]] == first_index.tolist()

    def test_signed_zero_revisit_keeps_first_key_and_step(self):
        hist = ([], [], [])
        assert kernels._visit(hist, -0.0, 0) == (-1, np.inf)
        assert kernels._visit(hist, 1.0, 1) == (0, 1.0)
        k, gap = kernels._visit(hist, 0.0, 2)
        assert (k, gap) == (0, 0.0)
        keys = _history_keys(hist)
        assert keys == [0.0, 1.0] and math.copysign(1.0, keys[0]) == -1.0
        assert _history_steps(hist) == [0, 1]
        # the first key, -0.0, sits beside its own step
        assert math.copysign(1.0, hist[0][0][0]) == -1.0 and \
            hist[2][0][0] == 0

    def test_nan_key_reads_back_its_own_value(self):
        # NaN sorts after every key and equals none, so each NaN insert
        # appends; the rows either side hold the inserted object and its
        # value, and a value dict finds it by the stored object
        keys, rows = kernels.anchor_table(np.array([1.0, 2.0]),
                                          np.array([0.5, 1.0]), [None] * 3)
        first = {1.0: 0.5, 2.0: 1.0}
        for nan, val in ((math.nan, 7.0), (float("nan"), 8.0)):
            kernels._insert(keys, rows, kernels._bisect(keys, nan), nan, val)
            first[nan] = val
            assert keys[-1] is nan and rows[-2][2] is nan and \
                rows[-1][0] is nan
            assert rows[-2][3] == rows[-1][1] == val
            _assert_row_invariant(keys, rows, first)
        assert len(keys) == 4 and [row[3] for row in rows[:-1]] == \
            [0.5, 1.0, 7.0, 8.0]
        vals = dict(zip(keys, [row[3] for row in rows[:-1]]))
        # the cone at 3.0 sits against the first NaN, whose cone is NaN
        # and never narrows the left neighbour's
        assert kernels._bisect(keys, 3.0) == 2
        assert kernels._cone(rows[2], 1.0, 3.0) == (0.0, 2.0)
        assert kernels.interval(keys, vals, 1.0, 3.0) == (0.0, 2.0)
        # a NaN query locates past the last NaN and reads its value
        j = kernels._bisect(keys, math.nan)
        assert all(map(math.isnan, kernels._cone(rows[j], 1.0, math.nan)))
        assert all(map(math.isnan, kernels.interval(keys, vals, 1.0,
                                                    math.nan)))

    def test_visit_matches_linear_scan_on_ties(self):
        # states on a dyadic grid repeat and sit exactly midway between
        # two others, so distance ties are frequent
        rng = np.random.default_rng(6)
        states = rng.integers(-256, 256, 400) / 16.0
        store = ([], [], [])
        hist = controllers.NnHistory()
        ties = repeats = 0
        for t, y in enumerate(states.tolist()):
            k, gap = kernels._visit(store, y, t)
            if t == 0:
                assert (k, gap, len(_history_keys(store))) == (-1, np.inf, 1)
            else:
                d = np.abs(y - states[:t])
                ties += np.unique(states[:t][d == d.min()]).shape[0] > 1
                repeats += d.min() == 0.0
                assert (k, gap) == (int(np.argmin(d)), d.min())
                assert controllers.nn_estimate(hist, y) == \
                    (hist.ynexts[k] - hist.us[k], gap)
            hist.append(y, 0.5 * t, float(t))
        keys = _history_keys(store)
        assert np.array_equal(keys, np.unique(states))
        assert _history_steps(store) == \
            np.unique(states, return_index=True)[1].tolist()
        assert ties > 20 and repeats > 20


class TestBlockedHistories:
    """A history holds its keys in sorted blocks of at most 2 * _LOAD keys;
    lookups and ties cross block edges as over one flat sorted list."""

    def test_visit_matches_linear_scan_across_blocks(self, monkeypatch):
        # dyadic states repeat and sit exactly midway between two others;
        # after them come the midpoints of every block edge, each tied
        # between the last key of one block and the first of the next,
        # and two states so far out that every distance ties.  Then, each
        # into a fresh history: uniform floats, where nearly every visit
        # takes the direct path and blocks split inside it, runs past the
        # last key and below the first (an escaping duel's), NaN, which no
        # key is nearest, and adjacent floats, whose computed distances
        # round to ties, in a pair split across a block edge and in
        # clusters
        scanned = []  # the state of each visit that went through the scan
        scan = kernels._tie_scan

        def counted(blocks, steps, b, i, x, best):
            scanned.append(x)
            return scan(blocks, steps, b, i, x, best)

        monkeypatch.setattr(kernels, "_tie_scan", counted)
        rng = np.random.default_rng(11)

        def history(estimate):
            # a fresh history and a visit checked against a linear scan
            # (and, with estimate, the controllers' estimate)
            store = ([], [], [])
            hist = controllers.NnHistory()
            seen = []

            def visit(y):
                t = len(seen)
                k, gap = kernels._visit(store, y, t)
                if t == 0:
                    assert (k, gap) == (-1, np.inf)
                else:
                    d = np.abs(y - np.array(seen))
                    assert (k, gap) == (int(np.argmin(d)), d.min()), t
                    if estimate:
                        assert controllers.nn_estimate(hist, y) == \
                            (hist.ynexts[k] - hist.us[k], gap), t
                blocks, maxes, steps = store
                assert maxes == [block[-1] for block in blocks], t
                assert all(0 < len(b) <= 2 * kernels._LOAD
                           for b in blocks), t
                # a split moves each key's step with it
                assert [len(s) for s in steps] == \
                    [len(b) for b in blocks], t
                seen.append(y)
                if estimate:
                    hist.append(y, 0.5 * t, float(t))

            return store, seen, visit

        def check_keys(store, seen):
            keys = _history_keys(store)
            assert np.array_equal(keys, np.unique(seen))
            assert _history_steps(store) == \
                np.unique(seen, return_index=True)[1].tolist()
            return keys

        states = (rng.integers(-1024, 1024, 3000) / 16.0).tolist()
        states[:0] = [-0.0]
        states[1500:1500] = [0.0, -0.0]
        store, seen, visit = history(True)
        for y in states:
            visit(y)
        blocks, maxes, _ = store
        assert len(blocks) >= 8
        edges = [(a, b[0]) for a, b in zip(maxes, blocks[1:])]
        edge_ties = 0
        for a, b in edges:
            y = 0.5 * (a + b)
            edge_ties += y - a == b - y
            visit(y)
        assert edge_ties == len(edges)
        # far out, every key's computed distance rounds to 2^60: the tied
        # run spans every block, from either end
        for y in (-2.0**60, 2.0**60):
            visit(y)
        keys = check_keys(store, seen)
        assert math.copysign(1.0, keys[keys.index(0.0)]) == -1.0

        store, seen, visit = history(False)
        before = len(scanned)
        for y in rng.uniform(-100.0, 100.0, 3000).tolist():
            visit(y)
        assert len(store[0]) >= 12 and len(scanned) - before < 30
        before = len(scanned)
        for k in range(1, 401):
            visit(100.0 + 0.5 * k)
        for k in range(1, 401):
            visit(-100.0 - 0.5 * k)
        assert len(scanned) == before and len(store[0]) >= 16
        check_keys(store, seen)
        # NaN into a history of many blocks and into one of one key: no
        # nearest state, and the key goes last
        for hist in (store, ([[1.0]], [1.0], [[0]])):
            nan = float("nan")
            k, gap = kernels._visit(hist, nan, len(seen))
            assert k == -1 and math.isnan(gap)
            assert hist[0][-1][-1] is nan
        assert all(math.isnan(x) for x in scanned[-2:])

        # two adjacent floats split across a block edge, 1.0 the last key
        # of the first block: from 4 away, both distances round to 4.0,
        # and the later visit of the two must not win
        below = (-100.0 - np.arange(127.0)).tolist()
        above = (100.0 + np.arange(128.0)).tolist()
        up = float(np.nextafter(1.0, 2.0))
        for pair, y in (([up, 1.0], -3.0), ([1.0, up], 5.0)):
            store, seen, visit = history(False)
            for x in pair + below + above:
                visit(x)
            assert store[1][0] == 1.0 and store[0][1][0] == up
            before = len(scanned)
            visit(y)
            assert scanned[before:] == [y]

        # each cluster of eight adjacent floats, visited out of order, then
        # one state away from it; most distances there round in pairs
        before = len(scanned)
        ties = 0
        for c in (1.0, -3.0, 2.0**40, 1e-300):
            cluster = [c]
            for _ in range(7):
                cluster.append(float(np.nextafter(cluster[-1], np.inf)))
            for m in (3.0, -3.0, 5.0, -5.0, 1.5, -1.5):
                y = c + m * abs(c)
                d = np.abs(y - np.array(cluster))
                ties += int((d == d.min()).sum() > 1)
                store, seen, visit = history(False)
                for x in rng.permutation(cluster).tolist() + [y]:
                    visit(x)
        assert ties >= 12 and len(scanned) - before >= ties

    def test_nonparam_fixed_replays_across_splits(self):
        xs, vs = anchors(seed=5)
        f = RealizedPiecewiseLinear(xs, vs, 2.0)
        raw = np.random.default_rng(12).uniform(-1, 1, 2001)
        raw[0] = 0.0
        system = NonparametricSystem(L=2.0, f=f)
        ys, us, blow = kernels.nonparam_fixed(0.3, *f.table, 2.0, raw, 1.0,
                                              0.1, GUARD)
        assert blow == -1
        traj = _trajectory(ys, us, raw, system, SwitchingControl())
        assert _bits(replay_states(traj)) == _bits(ys)
        splits = _split_steps(ys[:-1].tolist())
        assert len(splits) >= 5
        for s in splits[:3]:
            for t in range(s - 1, s + 3):
                assert recompute_input(traj, t) == us[t], t

    def test_sampled_ce_replays_across_splits(self):
        xs, vs = anchors(seed=8, L=1.0)
        spec = SampledSpec(L=1.0, c=1.0, h=1.0)
        f = RealizedPiecewiseLinear(xs, vs, 1.0)
        system = SampledSystem(spec=spec, f=f)
        out, us, blow = kernels.sampled_fixed(0.7, *f.table, 1.0, 1.0, 1.0,
                                              4.0, 600, GUARD, 1)
        assert blow == -1
        traj = _trajectory(out, us, np.zeros(601), system, SampledCeControl())
        assert _bits(replay_states(traj)) == _bits(out)
        splits = _split_steps(out[:-1].tolist())
        assert len(splits) >= 3
        for s in splits[:3]:
            for t in range(s - 1, s + 3):
                assert recompute_input(traj, t) == us[t], t


def reference_nonparam(y, keys, rows, L, noise, w_bar, budget_c, eps, T):
    """The nonparametric loop with the visit through ``_visit`` and the
    switching law as a call of its own: running output extremes, the
    estimate fhat = y_{k+1} - u_k from the nearest past state k, centring
    the range beyond eps and tracking 0 within it (0.0 - fhat).  f is
    ``mcshane_eval`` where y's row holds an envelope, else the greedy
    commit from the row's cone (the budget cone on an empty store).
    Returns the states, inputs, the noises and values of the steps that
    committed, and the number of centring steps."""
    ys, us, ws, vsc = [y], [], [0.0], []
    hist = ([], [], [])
    bmin = bmax = y
    centred = 0
    for t in range(T):
        if y < bmin:
            bmin = y
        if y > bmax:
            bmax = y
        k, gap = kernels._visit(hist, y, t)
        if k < 0:
            u = 0.0
        elif gap > eps:
            u = -(ys[k + 1] - us[k]) + 0.5 * (bmin + bmax)
            centred += 1
        else:
            u = 0.0 - (ys[k + 1] - us[k])
        j = kernels._bisect(keys, y)
        if rows[j][4] is None:
            if keys:
                lo, hi = kernels._cone(rows[j], L, y)
            else:
                hi = L * abs(y) + budget_c
                lo = -hi
            v = hi if abs(hi + u) >= abs(lo + u) else lo
            if not -sys.float_info.max <= v <= sys.float_info.max:
                v = math.copysign(sys.float_info.max, v)
            w = w_bar if v + u >= 0.0 else -w_bar
            kernels._insert(keys, rows, j, y, v)
            ws.append(w)
            vsc.append(v)
        else:
            v = kernels.mcshane_eval(keys, rows, L, y)
            w = w_bar * noise[t + 1]
        y1 = v + u + w
        us.append(u)
        ys.append(y1)
        if y1 != y1 or y1 > GUARD or y1 < -GUARD:
            break
        y = y1
    return ys, us, ws, vsc, centred


class TestNonparamLoopVisit:
    """The nonparametric loop holds the history visit, compiled from the
    fragment ``_visit`` is compiled from, and the switching law in its
    body; these runs check its law and its commits against the loop
    written with calls (``reference_nonparam``), every state, input, noise
    and committed value bit for bit."""

    @staticmethod
    def tie_member(eps):
        # test_nonparam_fixed_tie_rule's member: f = -|x| and dyadic noise
        # keep every state on a dyadic grid, so states repeat and fall
        # exactly midway between two earlier ones
        f = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.0]), 1.0,
                                    modes=[1, 1])
        raw = np.random.default_rng(0).integers(-64, 65, 401) / 64.0
        raw[0] = 0.0
        ys, us, blow = kernels.nonparam_fixed(0.0, *f.table, 1.0, raw, 1.0,
                                              eps, GUARD)
        ref = reference_nonparam(0.0, *f.table, 1.0, raw.tolist(), 1.0, 0.0,
                                 eps, 400)
        assert blow == -1
        assert ys.tobytes() == np.array(ref[0]).tobytes()
        assert us.tobytes() == np.array(ref[1]).tobytes()
        assert ref[2:4] == ([0.0], [])  # a realization takes no commit
        return ys, ref[4]

    def test_tie_rule_member(self):
        ys, centred = self.tie_member(0.1)
        ties = repeats = 0
        for t in range(1, 400):
            d = np.abs(ys[t] - ys[:t])
            ties += np.unique(ys[:t][d == d.min()]).shape[0] > 1
            repeats += d.min() == 0.0
        assert ties > 10 and repeats > 100 and centred > 10
        # a smaller threshold centres the observed range at most steps
        assert self.tie_member(0.01)[1] > 100

    def test_tie_rule_member_in_small_blocks(self, monkeypatch):
        # blocks of at most 4 keys split every few steps, and tied runs
        # cross block edges; the loop and the reference's _visit both read
        # _LOAD and _tie_scan when they run
        crossed = []  # per scan, whether its tied run crossed a block edge
        scan = kernels._tie_scan

        def counted(blocks, steps, b, i, x, best):
            row = blocks[b]
            left = b and (i == 0 or x - row[0] == best) and \
                x - blocks[b - 1][-1] == best
            right = b + 1 < len(blocks) and \
                (i == len(row) or row[-1] - x == best) and \
                blocks[b + 1][0] - x == best
            crossed.append(bool(left or right))
            return scan(blocks, steps, b, i, x, best)

        monkeypatch.setattr(kernels, "_LOAD", 2)
        monkeypatch.setattr(kernels, "_tie_scan", counted)
        ys, _ = self.tie_member(0.1)
        assert len(_split_steps(ys[:-1].tolist())) > 20
        assert len(crossed) > 100 and sum(crossed) > 50

    def test_rounding_ties_near_clusters(self):
        # f = 0 (slope budget 0), and noise steered step by step through
        # the reference so the states land on a cluster of eight adjacent
        # floats, visited out of order, within an ulp or two, then one
        # state away from it, where most computed distances round to ties
        # on one side of the query (TestBlockedHistories' clusters)
        table = kernels.anchor_table(np.array([0.0]), np.array([0.0]),
                                     [0, 0])
        rng = np.random.default_rng(3)
        ties = 0
        for c in (1.0, -3.0, 2.0**40, 1e-300):
            cluster = [c]
            for _ in range(7):
                cluster.append(float(np.nextafter(cluster[-1], np.inf)))
            for m in (3.0, -3.0, 5.0, -5.0, 1.5, -1.5):
                targets = rng.permutation(cluster).tolist() + \
                    [c + m * abs(c), c]
                noise = [0.0]
                for t, y in enumerate(targets[1:]):
                    u = reference_nonparam(targets[0], *table, 0.0,
                                           noise + [0.0], 1.0, 0.0, 0.1,
                                           t + 1)[1][t]
                    noise.append(y - u)
                ys, us, blow = kernels.nonparam_fixed(
                    targets[0], *table, 0.0, np.array(noise), 1.0, 0.1,
                    GUARD)
                ref = reference_nonparam(targets[0], *table, 0.0, noise,
                                         1.0, 0.0, 0.1, len(noise) - 1)
                assert blow == -1
                assert ys.tobytes() == np.array(ref[0]).tobytes(), (c, m)
                assert us.tobytes() == np.array(ref[1]).tobytes(), (c, m)
                d = np.abs(ys[-2] - ys[:-2])
                ties += int((d == d.min()).sum() > 1)
        assert ties >= 12

    def test_duels(self):
        # bounded at L 2, where states repeat, and escaping at L 6, where
        # the history grows at one end until the guard trips
        for L, T, bounded in ((2.0, 2000, True), (6.0, 500, False)):
            out = kernels.nonparam_duel(0.4, L, 1.0, 10.0, 0.1, GUARD, T)
            keys, rows = [], [kernels._FREE]
            ys, us, ws, vsc, _ = reference_nonparam(0.4, keys, rows, L, None,
                                                    1.0, 10.0, 0.1, T)
            assert (out[-1] == -1) == bounded
            for got, want in zip(out[:4], (ys, us, ws, vsc)):
                assert got.tobytes() == np.array(want).tobytes(), L
            assert out[4].tolist() == keys and out[6] == len(keys)

    def test_nan_start(self):
        # a NaN state finds no neighbour and reads the last row
        xs, vs = anchors(seed=5)
        f = RealizedPiecewiseLinear(xs, vs, 2.0)
        raw = np.zeros(11)
        ys, us, blow = kernels.nonparam_fixed(math.nan, *f.table, 2.0, raw,
                                              1.0, 0.1, GUARD)
        ref = reference_nonparam(math.nan, *f.table, 2.0, raw.tolist(), 1.0,
                                 0.0, 0.1, 10)
        assert blow == 1 and ys.tobytes() == np.array(ref[0]).tobytes()
        assert us.tobytes() == np.array(ref[1]).tobytes()

    @pytest.mark.parametrize("fn", ["_visit", "_nonparam_episode"])
    def test_visit_compiled_shows_its_source(self, fn):
        # _visit and the nonparametric loop compile at import from the one
        # fragment _VISIT, each under its own registered name
        code = getattr(kernels, fn).__code__
        assert code.co_filename == f"<{fn}>"
        src = inspect.getsource(getattr(kernels, fn))
        assert src.startswith(f"def {fn}(")
        depth = 4 if fn == "_visit" else 8
        assert textwrap.indent(kernels._VISIT, " " * depth) in src
        assert src.count("_tie_scan(") == 1


class Uniforms:
    """Stands in for a generator, handing out the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _trajectory(states, inputs, noises, system, controller):
    return Trajectory(states=states, inputs=inputs, noises=noises,
                      system=system, realized_f=getattr(system, "f", None),
                      controller=controller)


def _assert_inputs_recomputable(traj):
    for t in range(traj.inputs.shape[0]):
        assert recompute_input(traj, t) == traj.inputs[t], t


def _assert_parametric_steps(theta, w, M, b, y0=0.0):
    """Check a parametric_episode run step by step against the model and
    controller step operations, every state and input byte for byte (a
    final NaN or inf too); returns the final state."""
    f = models.PowerGrowthFn(M, b)
    ys, us, blow = kernels.parametric_episode(
        y0, theta, w, M, b, 1.0, 1.0, GUARD)
    state = controllers.make_rls(s0=1.0, theta0=1.0)
    end = blow if blow >= 0 else w.shape[0] - 1
    assert (ys.shape[0], us.shape[0]) == (end + 1, end)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(end):
            phi = models.eval_power(f, ys[t])
            assert _bits(us[t]) == _bits(
                controllers.adaptive_mv_control(state, phi)), t
            y1 = models.step_parametric(ys[t], theta, us[t], w[t + 1], f)
            assert _bits(y1) == _bits(ys[t + 1]), t
            state = controllers.rls_update(state, phi, ys[t + 1] - us[t])
    return ys[end]


class TestEpisodeKernelsAgree:
    def test_parametric(self):
        # the kernel inlines power_eval; replay calls it.  b = 0 makes the
        # power 1 off the origin, b < 1 steepens it near 0, and M scales it
        rng = np.random.default_rng(4)
        w = rng.standard_normal(2001)
        for M in (0.5, 1.0, 3.0):
            for b in (0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 5.0):
                final = _assert_parametric_steps(1.3, w, M, b)
                if M == 1.0 and b >= 1.5:
                    assert math.isfinite(final), b
        # blow-ups whose last power overflows double precision end in NaN
        for M in (0.5, 1.0, 3.0):
            for b in (4.5, 6.0):
                finals = []
                for seed in range(40):
                    rng = np.random.default_rng(seed)
                    w = rng.standard_normal(201)
                    finals.append(_assert_parametric_steps(
                        1.0 + rng.standard_normal(), w, M, b))
                assert any(math.isnan(y) for y in finals), (M, b)

    @pytest.mark.parametrize("y0", PARAMETRIC_EDGE_STATES,
                             ids=PARAMETRIC_EDGE_IDS)
    def test_parametric_from_edge_states(self, y0):
        # each branch of the inlined power at the first step: both zeros
        # and NaN give power 0, subnormals underflow or stay tiny, and
        # 1e60 overflows from b 6 on (the next state is NaN, a blow-up)
        w = np.random.default_rng(6).standard_normal(51)
        for M in (0.5, 3.0):
            for b in (0.0, 0.5, 2.0, 6.0):
                final = _assert_parametric_steps(1.3, w, M, b, y0)
                if abs(y0) == 1e60 and b == 6.0:
                    assert math.isnan(final), (M, b)

    def test_parametric_reads_any_noise_view(self):
        # the noise is read in place: a strided view and a float32 array
        # give the bits of their contiguous float64 copies
        rng = np.random.default_rng(12)
        w2 = rng.standard_normal(2 * 401)
        w2[0] = 0.0
        for w in (w2[::2], w2[:401].astype(np.float32)):
            copy = np.ascontiguousarray(w, dtype=np.float64)
            assert not (w.flags.c_contiguous and w.dtype == np.float64)
            for b in (1.5, 6.0):
                got = kernels.parametric_episode(0.0, 1.3, w, 1.0, b, 1.0,
                                                 1.0, GUARD)
                want = kernels.parametric_episode(0.0, 1.3, copy, 1.0, b,
                                                  1.0, 1.0, GUARD)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2] == want[2]

    def test_nonparam_fixed(self):
        xs, vs = anchors(seed=5)
        f = RealizedPiecewiseLinear(xs, vs, 2.0)
        rng = np.random.default_rng(6)
        raw = rng.uniform(-1, 1, 401)
        raw[0] = 0.0
        system = NonparametricSystem(L=2.0, f=f)
        ys, us, blow = kernels.nonparam_fixed(0.3, *f.table, 2.0, raw, 1.0,
                                              0.1, GUARD)
        traj = _trajectory(ys, us, raw, system, SwitchingControl())
        _assert_inputs_recomputable(traj)
        assert check_replay(traj)

    def test_nonparam_fixed_tie_rule(self):
        # f = -|x|, the lower envelope of the one anchor (0, 0), and dyadic
        # noise keep every state on a dyadic grid: states repeat and fall
        # exactly midway between two earlier ones
        f = RealizedPiecewiseLinear(np.array([0.0]), np.array([0.0]), 1.0,
                                    modes=[1, 1])
        rng = np.random.default_rng(0)
        raw = rng.integers(-64, 65, 401) / 64.0
        raw[0] = 0.0
        system = NonparametricSystem(L=1.0, f=f)
        ys, us, blow = kernels.nonparam_fixed(0.0, *f.table, 1.0, raw, 1.0,
                                              0.1, GUARD)
        assert blow == -1
        ties = repeats = 0
        for t in range(1, 400):
            d = np.abs(ys[t] - ys[:t])
            ties += np.unique(ys[:t][d == d.min()]).shape[0] > 1
            repeats += d.min() == 0.0
        assert ties > 10 and repeats > 100
        traj = _trajectory(ys, us, raw, system, SwitchingControl())
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

    def test_sampled_fixed(self):
        xs, vs = anchors(seed=8, L=1.0)
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        f = RealizedPiecewiseLinear(xs, vs, 1.0)
        system = SampledSystem(spec=spec, f=f)
        out, us, blow = kernels.sampled_fixed(0.7, *f.table, 1.0, 1.0, 0.5,
                                              4.0, 50, GUARD, 1)
        traj = _trajectory(out, us, np.zeros(51), system, SampledCeControl())
        _assert_inputs_recomputable(traj)
        assert check_replay(traj)

    def test_sampled_fixed_leaves_the_table_as_it_is(self):
        # the sampled kernels share the duel's loop, which commits and
        # closes intervals only where a row's envelope is None; a
        # realization's table has one in every row, so a run over it, with
        # the controller on or off, keeps its keys and every row object
        rng = np.random.default_rng(23)
        cases = []
        for _ in range(10):
            f = random_envelope_member(1.5, 1.0, rng)
            cases.append((f.xs, f.vs, 1.5))
        for _ in range(10):
            # runs of slope exactly +-L, where the envelopes tie
            L = float(rng.uniform(0.5, 2.0))
            xs = np.sort(rng.uniform(-10.0, 10.0, 9))
            vs = [float(rng.uniform(-1.0, 1.0))]
            for a, b in zip(xs, xs[1:]):
                vs.append(vs[-1] + (L, -L)[rng.integers(2)] * (b - a))
            cases.append((xs, np.array(vs), L))
        crossing = left = right = 0
        for xs, vs, L in cases:
            modes = rng.integers(0, 2, xs.shape[0] + 1)
            f = RealizedPiecewiseLinear(xs, vs, L, modes=modes)
            keys, rows = f.table
            keys0, rows0 = list(keys), list(rows)
            for use_controller in (0, 1):
                out, us, blow = kernels.sampled_fixed(
                    float(rng.uniform(-12.0, 12.0)), keys, rows, L, 1.0,
                    float(rng.uniform(0.2, 2.0)), 4.0, 200, GUARD,
                    use_controller)
                assert keys == keys0 and rows == rows0
                assert all(a is b for a, b in zip(rows, rows0))
                located = set(np.searchsorted(xs, out).tolist())
                crossing += len(located) > 1
                left += 0 in located
                right += xs.shape[0] in located
        # most runs cross anchors, and some run on each tail
        assert crossing >= 30 and left and right

    def test_sampled_control_tie_rule(self):
        # the certainty-equivalence input over a sorted history with
        # repeated and equidistant samples equals the linear scan
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        rng = np.random.default_rng(9)
        xs = rng.integers(-256, 256, 301) / 16.0
        us = rng.uniform(-1, 1, 300)
        hist = ([], [], [])
        for k in range(300):
            samples = [(xs[i], us[i], xs[i + 1]) for i in range(k)]
            u = kernels._ce_input(xs, us, hist, k, xs[k], 1.0, 1.0, 0.5, 4.0)
            assert u == controllers.sampled_control(samples, xs[k], spec)

    def test_sampled_duel(self):
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 8.0))
        traj, _ = run_episode(system, SampledCeControl(),
                              SampledGreedyAdversary(), 20, seed=0)
        assert check_replay(traj)
        _assert_inputs_recomputable(traj)

    @pytest.mark.parametrize("L, c, controller", [
        (1.0, 1.0, SampledCeControl()),
        (1.0, 1.0, ZeroControl()),
        (1.5, 0.5, SampledCeControl()),
    ], ids=["ce", "zero", "ce_L1.5_c0.5"])
    def test_sampled_duel_store_is_the_reference_adversarys(self, L, c,
                                                            controller):
        # the reference commits where f is still free, on a
        # PiecewiseLinearFn that checks every commit against the whole
        # store: a sample point inside an interval no earlier period
        # swept through sampled_adversary_choose (which collapses a
        # box-inverted pinch into the box), and a sweep's endpoint beyond
        # every anchor through the envelope there (feasible_interval's
        # endpoint); the kernel's store must be the same, anchor for anchor
        spec = SampledSpec(L=L, c=c, h=1.0)
        system = SampledSystem(spec=spec)
        # a sampled duel from 0 draws no noise, so its seeds give one run
        runs = [run_episode(system, controller, SampledGreedyAdversary(), 10,
                            seed)[0] for seed in range(3)]
        traj = runs[0]
        assert traj.blow_step is None
        state = SampledAdversaryState(PiecewiseLinearFn(L=L), c)
        fn = state.fn
        swept = []
        tail_commits = 0
        for k in range(traj.inputs.shape[0]):
            x, u = float(traj.states[k]), float(traj.inputs[k])
            x1 = float(traj.states[k + 1])
            keys = fn.anchor_arrays()[0]
            # x's interval between the anchors either side of it
            a = keys[keys < x].max(initial=-math.inf)
            b = keys[keys > x].min(initial=math.inf)
            if fn.value_at(x) is None and not any(
                    max(a, lo) < min(b, hi) for lo, hi in swept):
                v = sampled_adversary_choose(state, x, u)
            else:
                v = traj.realized_f(x)
            assert _bits(v) == _bits(traj.committed[k]), k
            keys = fn.anchor_arrays()[0]
            if x1 > keys[-1] or x1 < keys[0]:
                lo, hi = feasible_interval(fn, x1)
                fn.commit(x1, hi if x1 > x else lo)
                tail_commits += 1
            swept.append((min(x, x1), max(x, x1)))
        assert tail_commits >= 1 and len(fn) > tail_commits
        xs, vs = fn.anchor_arrays()
        for run in runs:
            assert run.realized_f.xs.tobytes() == xs.tobytes()
            assert run.realized_f.vs.tobytes() == vs.tobytes()

    @pytest.mark.parametrize("L, c, h", [(1.0, 1.0, 1.3), (1.5, 0.5, 1.0)])
    def test_sampled_duel_never_commits_inside_a_swept_interval(self, L, c,
                                                                h):
        # from 0 every anchor is a state of the run; when a state first
        # appears, no earlier period swept across it
        system = SampledSystem(spec=SampledSpec(L, c, h))
        traj, verdict = run_episode(system, SampledCeControl(),
                                    SampledGreedyAdversary(), 2000, 0)
        assert verdict.blow_step is None
        x = traj.states
        first = {}
        for t, a in enumerate(x.tolist()):
            first.setdefault(a, t)
        lo = np.minimum(x[:-1], x[1:])
        hi = np.maximum(x[:-1], x[1:])
        anchors = traj.realized_f.xs.tolist()
        assert len(anchors) >= 20
        for a in anchors:
            t = first[a]
            assert not np.any((lo[:t] < a) & (a < hi[:t])), a
        assert check_replay(traj)

    def test_sampled_duel_from_zero_commits_nothing_extra(self):
        # from 0 the first sample commits the anchor at 0 itself
        system = SampledSystem(spec=SampledSpec(1.0, 1.0, 1.0))
        traj, _ = run_episode(system, ZeroControl(),
                              SampledGreedyAdversary(), 5, 0)
        assert traj.realized_f.xs[0] == 0.0
        assert traj.realized_f.vs[0] == traj.committed[0] == 1.0
        # each zero-control period sweeps the right tail and commits its
        # endpoint, the next sample point
        assert traj.realized_f.xs.tolist() == traj.states.tolist()

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
                                   rng.standard_normal((300, 2)), GUARD)
        uniforms = Uniforms(munif)
        for t in range(300):
            assert models.markov_next(int(out[2][t]) + 1, chain,
                                      uniforms) == out[2][t + 1] + 1

    def test_riccati(self):
        # scalar systems: every iterate is the reference map's bits, on a
        # 5 x 5 sub-grid of criterion 6 straddling the boundary
        compared = 0
        for delta in np.linspace(0.2, 2.8, 5):
            for p12 in np.linspace(0.15, 0.85, 5):
                chain = MarkovChain(np.array([[1 - p12, p12], [p12, 1 - p12]]))
                spec = MjlsSpec(chain=chain, A=np.array([[[0.0]], [[delta]]]),
                                B=np.ones((2, 1, 1)),
                                noise=MartingaleDiffVector(1.0, 1.0, 1))
                Ms = np.array([np.eye(1), np.eye(1)])
                for k in range(1, 25):
                    Ms = np.array([riccati_rhs(Ms, spec, i + 1)
                                   for i in range(2)])
                    out = kernels.riccati_solve(spec.A, spec.B, spec.chain.P,
                                                0.0, k, 1e12, 1e-10)
                    assert out[2] == k
                    assert out[0].tobytes() == Ms.tobytes()
                    compared += 1
        assert compared == 600

    def test_riccati_three_scalar_modes(self):
        # the scalar body beyond criterion 6's grid: three modes, one of
        # them unactuated and one with a negative input gain; every
        # iterate up to convergence and the gains are the numpy route's
        # bits.  No input gain is a power of two, so a product out of order
        # rounds differently
        P = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        spec = MjlsSpec(chain=MarkovChain(P),
                        A=np.array([0.5, 1.3, -0.9]).reshape(3, 1, 1),
                        B=np.array([0.9, 0.0, -1.7]).reshape(3, 1, 1),
                        noise=MartingaleDiffVector(1.0, 1.0, 1))
        Ms, status, iters, _, Ks = kernels.riccati_solve(
            spec.A, spec.B, P, DEFAULT_TOL, DEFAULT_MAX_ITER,
            DIVERGENCE_GUARD, SVD_RTOL)
        assert (status, iters) == (0, 137)
        assert Ks.tobytes() == numpy_gains(Ms, spec).tobytes()
        ref = np.array([np.eye(1)] * 3)
        for k in range(1, iters + 1):
            ref = np.array([riccati_rhs(ref, spec, i + 1) for i in range(3)])
            out = kernels.riccati_solve(spec.A, spec.B, P, 0.0, k, 1e12,
                                        1e-10)
            assert out[0].tobytes() == ref.tobytes(), k
        assert ref.tobytes() == Ms.tobytes()

    @pytest.mark.parametrize("P, A, B, status, iters", VECTOR_SPECS,
                             ids=VECTOR_SPEC_IDS)
    def test_riccati_vector_states(self, P, A, B, status, iters):
        # from n = 2 on, the scalar loops and the reference's BLAS products
        # round differently, so the iterates agree to rounding only
        P, A, B = np.array(P), np.array(A), np.array(B)
        N, n = A.shape[:2]
        spec = MjlsSpec(chain=MarkovChain(P), A=A, B=B,
                        noise=MartingaleDiffVector(1.0, float(n), n))
        out = kernels.riccati_solve(A, B, P, 1e-10, 10000, 1e12, 1e-10)
        assert (out[1], out[2]) == (status, iters)
        Ms = np.array([np.eye(n)] * N)
        for k in range(1, iters + 1):
            Ms = np.array([riccati_rhs(Ms, spec, i + 1) for i in range(N)])
            out = kernels.riccati_solve(A, B, P, 0.0, k, 1e12, 1e-10)
            np.testing.assert_allclose(out[0], Ms, rtol=1e-12, atol=0.0)

    def test_riccati_overflowing_iterate_diverges(self):
        # inf - inf makes the first iterate NaN, which no norm exceeds
        Ms, status, iters, delta, Ks = kernels.riccati_solve(
            np.array([[[1e200]]]), np.ones((1, 1, 1)), np.ones((1, 1)),
            1e-10, 10000, 1e12, 1e-10)
        assert (status, iters, Ks) == (1, 1, None)
        assert math.isnan(Ms[0, 0, 0])

    def test_riccati_gains_on_criterion_6_grid(self):
        # scalar systems: the gains are the bits of the numpy route's
        # S_bb^+ S_ab' at the converged iterate; unsolved points have none
        solved = 0
        for delta in np.linspace(0.0, 3.0, 20):
            for k in range(20):
                p12 = (k + 0.5) / 20.0
                chain = MarkovChain(np.array([[1 - p12, p12], [p12, 1 - p12]]))
                spec = MjlsSpec(chain=chain, A=np.array([[[0.0]], [[delta]]]),
                                B=np.ones((2, 1, 1)),
                                noise=MartingaleDiffVector(1.0, 1.0, 1))
                Ms, status, _, _, Ks = kernels.riccati_solve(
                    spec.A, spec.B, spec.chain.P, DEFAULT_TOL,
                    DEFAULT_MAX_ITER, DIVERGENCE_GUARD, SVD_RTOL)
                if status != 0:
                    assert Ks is None
                    continue
                assert Ks.tobytes() == numpy_gains(Ms, spec).tobytes()
                solved += 1
        assert 100 < solved < 400

    @pytest.mark.parametrize("P, A, B, status, iters", VECTOR_SPECS,
                             ids=VECTOR_SPEC_IDS)
    def test_riccati_gains_vector_states(self, P, A, B, status, iters):
        # from n = 2 on the scalar loops and BLAS round differently
        P, A, B = np.array(P), np.array(A), np.array(B)
        n = A.shape[1]
        spec = MjlsSpec(chain=MarkovChain(P), A=A, B=B,
                        noise=MartingaleDiffVector(1.0, float(n), n))
        Ms, status, _, _, Ks = kernels.riccati_solve(
            A, B, P, DEFAULT_TOL, DEFAULT_MAX_ITER, DIVERGENCE_GUARD,
            SVD_RTOL)
        assert status == 0 and Ks.shape == B.transpose(0, 2, 1).shape
        np.testing.assert_allclose(Ks, numpy_gains(Ms, spec), rtol=1e-10,
                                   atol=0.0)


# ---------------------------------------------------------------------------
# the jump-linear kernel against the numpy route it replaced

def numpy_mjls_episode(A, B, Kg, P, x0, mode0, munif, W, guard):
    """``mjls_episode`` as matrix products: every mode's prediction
    recomputed from the previous state and input, the estimate an argmin
    over squared residuals, the mode draw a ``searchsorted``; the arrays
    are cut after the blow step, as the kernel's are."""
    T = W.shape[0]
    N, n = A.shape[:2]
    m = B.shape[2]
    succ = np.argmax(P, axis=1)
    cum = np.cumsum(P, axis=1)
    X = np.zeros((T + 1, n))
    U = np.zeros((T, m))
    modes = np.zeros(T + 1, dtype=np.int64)
    est = np.full(T + 1, -1, dtype=np.int64)
    X[0] = x0
    modes[0] = mode0
    blow = -1
    for t in range(T):
        ihat = 0
        if t >= 1:
            preds = (A.reshape(N * n, n) @ X[t - 1]
                     + B.reshape(N * n, m) @ U[t - 1]).reshape(N, n)
            bi = np.argmin(np.sum((X[t] - preds) ** 2, axis=1))
            est[t] = bi
            ihat = succ[bi]
        U[t] = -(Kg[ihat] @ X[t])
        th = modes[t]
        X[t + 1] = A[th] @ X[t] + B[th] @ U[t] + W[t]
        modes[t + 1] = min(np.searchsorted(cum[th], munif[t], side="right"),
                           N - 1)
        if not np.max(np.abs(X[t + 1])) <= guard:
            blow = t + 1
            break
    end = blow + 1 if blow >= 0 else T + 1
    return X[:end], U[:end - 1], modes[:end], est[:end], blow


def mjls_specs():
    """The benchmark's 3-mode, 3-state, fully actuated spec, a random
    2-mode, 2-state, single-input spec, and that spec on a chain whose
    most likely successor of each mode is the other mode."""
    c, s = 0.7648, 0.6442
    rng = np.random.default_rng(9)
    A2 = rng.standard_normal((2, 2, 2)) * 0.4
    B2 = rng.standard_normal((2, 2, 1))
    return {
        "n3_m3": MjlsSpec(
            chain=MarkovChain(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                        [0.1, 0.1, 0.8]])),
            A=np.array([[[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]],
                        [[1.2 * c, -1.2 * s, 0.0], [1.2 * s, 1.2 * c, 0.0],
                         [0.0, 0.0, 0.9]],
                        [[1.5, 0.2, 0.0], [0.0, 0.3, 0.1],
                         [0.0, 0.0, -0.8]]]),
            B=np.array([np.eye(3)] * 3),
            noise=MartingaleDiffVector(1.0, 3.0, 3)),
        "n2_m1": MjlsSpec(
            chain=MarkovChain(np.array([[0.6, 0.4], [0.3, 0.7]])),
            A=A2, B=B2, noise=MartingaleDiffVector(1.0, 3.0, 2)),
        "n2_m1_switching": MjlsSpec(
            chain=MarkovChain(np.array([[0.2, 0.8], [0.9, 0.1]])),
            A=A2, B=B2, noise=MartingaleDiffVector(1.0, 3.0, 2)),
    }


def _mjls_args(spec, Kg, x0, seed, T):
    rng = np.random.default_rng(seed)
    return (spec.A, spec.B, Kg, spec.chain.P, np.asarray(x0, dtype=float),
            int(rng.integers(spec.n_modes)), rng.random(T),
            rng.standard_normal((T, spec.n_states)), GUARD)


def _assert_same_episode(args):
    with np.errstate(over="ignore", invalid="ignore"):
        want = numpy_mjls_episode(*args)
    got = kernels.mjls_episode(*args)
    for a, b in zip(got[:4], want[:4]):
        assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(got[2], want[2])
    assert np.array_equal(got[3], want[3])
    assert got[4] == want[4]
    np.testing.assert_allclose(got[0], want[0], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=1e-13)
    return got


class TestMjlsScalarKernel:
    @pytest.mark.parametrize("name", ["n3_m3", "n2_m1", "n2_m1_switching"])
    def test_agrees_with_numpy_route(self, name):
        # modes, estimates and blow step are the same; states agree to
        # rounding, since BLAS and the scalar dot round differently
        spec = mjls_specs()[name]
        Kg = solve_coupled_riccati(spec).solution.Ks
        for seed in range(8):
            out = _assert_same_episode(
                _mjls_args(spec, Kg, np.full(spec.n_states, 0.5), seed,
                           500))
            assert out[4] == -1

    def test_replays_on_benchmark_spec(self):
        spec = mjls_specs()["n3_m3"]
        controller = MjlsGainControl(solve_coupled_riccati(spec).solution)
        system = MjlsSystem(spec=spec, x0=(0.5, -0.2, 0.1))
        for seed in range(4):
            traj, _ = run_episode(system, controller, None, 300, seed)
            assert check_replay(traj)
            for t in range(0, traj.inputs.shape[0], 7):
                assert np.allclose(recompute_input(traj, t), traj.inputs[t],
                                   rtol=1e-12, atol=1e-12)

    def test_guard_trips_at_the_same_step(self):
        # uncontrolled expanding modes cross the guard after ~300 steps
        spec = MjlsSpec(chain=MarkovChain(np.array([[0.5, 0.5],
                                                    [0.5, 0.5]])),
                        A=np.array([[[3.0, 0.1], [0.0, 2.5]],
                                    [[0.0, -3.0], [3.0, 0.0]]]),
                        B=np.ones((2, 2, 1)),
                        noise=MartingaleDiffVector(1.0, 2.0, 2))
        Kg = np.zeros((2, 1, 2))
        for seed in range(4):
            out = _assert_same_episode(
                _mjls_args(spec, Kg, (1.0, 1.0), seed, 1000))
            assert 200 < out[4] < 1000
            assert not np.max(np.abs(out[0][out[4]])) <= GUARD
            assert not out[1].any()
        traj, _ = run_episode(MjlsSystem(spec=spec, x0=(1.0, 1.0)),
                              T=1000, seed=3)
        assert traj.blow_step is not None and check_replay(traj)

    def test_blow_step_records_the_drawn_mode(self):
        # the mode at the blow step is the chain's draw from the step
        # before, the last of the blow + 1 modes the kernel returns
        chain = MarkovChain(np.array([[0.1, 0.9], [0.9, 0.1]]))
        spec = MjlsSpec(chain=chain, A=np.array([[[3.0]], [[4.0]]]),
                        B=np.ones((2, 1, 1)),
                        noise=MartingaleDiffVector(1.0, 1.0, 1))
        T = 1000
        for seed in range(40):
            traj, _ = run_episode(MjlsSystem(spec=spec, x0=(1.0,)), T=T,
                                  seed=seed)
            blow = traj.blow_step
            assert blow is not None and traj.modes.shape == (blow + 1,)
            # _run_mjls draws the initial mode, then the T mode uniforms
            rng = np.random.Generator(np.random.PCG64(seed))
            rng.integers(1, 3)
            munif = rng.random(T)
            assert traj.modes[blow] == models.markov_next(
                int(traj.modes[blow - 1]), chain, Uniforms([munif[blow - 1]]))

    def test_nan_state_trips_the_guard(self):
        # the first state's products overflow to +inf and -inf: their sum
        # is NaN in the scalar dot, while a BLAS kernel that fuses the
        # second multiply-add into the first product's infinity returns
        # that infinity; either way the guard trips at step 1
        spec = MjlsSpec(chain=MarkovChain(np.array([[1.0]])),
                        A=np.array([[[1e300, -1e300], [0.0, 1.0]]]),
                        B=np.ones((1, 2, 1)),
                        noise=MartingaleDiffVector(1.0, 2.0, 2))
        args = _mjls_args(spec, np.zeros((1, 1, 2)), (1e10, 1e10), 0, 20)
        with np.errstate(over="ignore", invalid="ignore"):
            want = numpy_mjls_episode(*args)
        got = kernels.mjls_episode(*args)
        assert got[4] == want[4] == 1
        assert math.isnan(got[0][1, 0]) and not np.isfinite(want[0][1, 0])
        assert np.array_equal(got[0][:, 1], want[0][:, 1])
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(got[3], want[3])
        traj, _ = run_episode(MjlsSystem(spec=spec, x0=(1e10, 1e10)),
                              T=20, seed=0)
        assert traj.blow_step == 1 and check_replay(traj)


# ---------------------------------------------------------------------------
# the jump-linear kernel against the loop it was generated from


def _reference_dots(rows, v):
    # each row's dot with v: from 0.0, v's entries (the left factors) times
    # the row's, summed left to right
    out = []
    for row in rows:
        s = 0.0
        for a, b in zip(v, row):
            s += a * b
        out.append(s)
    return out


def reference_mjls_episode(A, B, Kg, P, x0, mode0, munif, W, guard):
    """``mjls_episode`` as one loop for every shape: the dots and the
    residuals as loops over lists, in the order and with the operations
    the kernel's generated straight-line code takes, so the returns are
    the same bits."""
    T = W.shape[0]
    n = A.shape[1]
    m = B.shape[2]
    rows = [[a + b for a, b in zip(Ai, Bi)]
            for Ai, Bi in zip(A.tolist(), B.tolist())]
    Kl = Kg.tolist()
    Wl = W.tolist()
    ul = munif.tolist()
    succ = [row.index(max(row)) for row in P.tolist()]
    cum = [list(accumulate(row[:-1])) + [math.inf] for row in P.tolist()]
    x = x0.tolist()
    th = mode0
    xs = list(x)
    us = []
    modes = [th]
    est = [-1]
    blow = -1
    for t in range(T):
        ihat = 0
        if t >= 1:
            best = math.inf
            bi = 0
            for i, pred in enumerate(preds):
                s = 0.0
                for xk, pk in zip(x, pred):
                    d = xk - pk
                    s += d * d
                if s < best:
                    best = s
                    bi = i
            est.append(bi)
            ihat = succ[bi]
        u = [-v for v in _reference_dots(Kl[ihat], x)]
        preds = [_reference_dots(mode, x + u) for mode in rows]
        x = [p + wk for p, wk in zip(preds[th], Wl[t])]
        xs.extend(x)
        us.extend(u)
        th = bisect_right(cum[th], ul[t])
        modes.append(th)
        if not all(abs(v) <= guard for v in x):
            blow = t + 1
            break
    est.append(-1)
    return (np.array(xs).reshape(-1, n), np.array(us).reshape(-1, m),
            np.array(modes, dtype=np.int64), np.array(est), blow)


def random_mjls_args(rng):
    """A random episode: N 1-4 modes, n 1-4 states, m 1-3 inputs, random
    or zero gains, starts whose entries may be +-0.0, noise that may be
    all zero, and now and then a row of +-1e300 entries (the state turns
    infinite or NaN) or a small guard."""
    N = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    A = rng.normal(0.0, 1.2 / np.sqrt(n), (N, n, n))
    B = rng.normal(0.0, 1.0, (N, n, m))
    Kg = (rng.normal(0.0, 0.5, (N, m, n)) if rng.random() < 0.7
          else np.zeros((N, m, n)))
    P = rng.dirichlet(np.ones(N), N)
    x0 = np.array([(0.0, -0.0, rng.normal())[rng.integers(3)]
                   for _ in range(n)])
    if rng.random() < 0.1:
        # a row of +-1e300 in every mode: from a start of 1e10 its
        # products overflow, to inf at n = 1 and to inf - inf beyond
        A[:, rng.integers(n)] = 1e300 * (-1.0) ** np.arange(n)
        x0 = np.full(n, 1e10)
    T = int(rng.integers(1, 80))
    W = rng.normal(0.0, 1.0, (T, n)) * (rng.random() < 0.8)
    guard = (GUARD, 1e3)[rng.random() < 0.2]
    return A, B, Kg, P, x0, int(rng.integers(N)), rng.random(T), W, guard


def _same_episode_bits(got, want):
    for a, b in zip(got[:4], want[:4]):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        assert a.tobytes() == b.tobytes()
    assert got[4] == want[4]


class TestMjlsBits:
    """The jump-linear kernel's bits, pinned by sha256 over all five
    returns: the benchmark's spec with its Riccati gains, random shapes
    from N = n = m = 1 to 4 x 4 x 3 with +-0.0 starts and zero gains,
    zero-gain blow-ups and the 1e300 spec whose state turns NaN."""

    DIGEST = ("b10a60f4d32b47653adaa92aeea6c9cf"
              "a8f5164b57a42ee488dd589e690c5df1")

    @staticmethod
    def episodes():
        spec = mjls_specs()["n3_m3"]
        Kg = solve_coupled_riccati(spec).solution.Ks
        for seed in range(4):
            yield _mjls_args(spec, Kg, (0.5, -0.2, 0.1), seed, 400)
        for x0 in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)):
            yield _mjls_args(spec, Kg, x0, 5, 50)
        one = MjlsSpec(chain=MarkovChain(np.array([[1.0]])),
                       A=np.array([[[0.5]]]), B=np.ones((1, 1, 1)),
                       noise=MartingaleDiffVector(1.0, 1.0, 1))
        for x0 in (0.0, -0.0):
            yield _mjls_args(one, np.array([[[0.3]]]), (x0,), 0, 30)
        expanding = MjlsSpec(chain=MarkovChain(np.array([[0.5, 0.5],
                                                         [0.5, 0.5]])),
                             A=np.array([[[3.0, 0.1], [0.0, 2.5]],
                                         [[0.0, -3.0], [3.0, 0.0]]]),
                             B=np.ones((2, 2, 1)),
                             noise=MartingaleDiffVector(1.0, 2.0, 2))
        for seed in range(2):
            yield _mjls_args(expanding, np.zeros((2, 1, 2)), (1.0, 1.0),
                             seed, 1000)
        huge = MjlsSpec(chain=MarkovChain(np.array([[1.0]])),
                        A=np.array([[[1e300, -1e300], [0.0, 1.0]]]),
                        B=np.ones((1, 2, 1)),
                        noise=MartingaleDiffVector(1.0, 2.0, 2))
        yield _mjls_args(huge, np.zeros((1, 1, 2)), (1e10, 1e10), 0, 20)
        rng = np.random.default_rng(41)
        for _ in range(200):
            yield random_mjls_args(rng)

    def test_episodes_keep_their_bits(self):
        h = hashlib.sha256()
        shapes = set()
        blows = 0
        for args in self.episodes():
            out = kernels.mjls_episode(*args)
            for a in out[:4]:
                h.update(a.tobytes())
            h.update(np.int64(out[4]).tobytes())
            shapes.add(args[1].shape)
            blows += out[4] >= 0
        assert (1, 1, 1) in shapes and len(shapes) > 30 and blows > 5
        assert h.hexdigest() == self.DIGEST


class TestMjlsReference:
    def test_random_specs_match_reference_bits(self):
        rng = np.random.default_rng(43)
        seen = {"blow": 0, "nan": 0, "neg_zero": 0}
        for _ in range(300):
            args = random_mjls_args(rng)
            got = kernels.mjls_episode(*args)
            _same_episode_bits(got, reference_mjls_episode(*args))
            seen["blow"] += got[4] >= 0
            seen["nan"] += bool(np.isnan(got[0]).any())
            seen["neg_zero"] += bool(np.signbit(got[1][got[1] == 0]).any())
        assert all(seen.values()), seen

    def test_generated_loop_shows_its_source(self):
        # the loop compiles under a name that gives its shape, and its
        # lines are registered where tracebacks and inspect read them
        loop = kernels._mjls_loop(3, 3, 3)
        assert loop is kernels._mjls_loop(3, 3, 3)
        assert loop.__code__.co_filename == "<mjls_episode N=3 n=3 m=3>"
        assert "N=3 n=3 m=3" in inspect.getsource(loop)
        with pytest.raises(ValueError) as err:
            loop([0.0], [], [], [], [], [], [], 0, GUARD)
        frame = traceback.extract_tb(err.tb)[-1]
        assert frame.filename == "<mjls_episode N=3 n=3 m=3>"
        assert frame.line.startswith("(a0_0_0, a0_0_1,")

    def test_generated_riccati_loop_shows_its_source(self):
        # the solve's loop, too, compiles under a name that gives its
        # shape, with its lines registered
        loop = kernels._riccati_loop(2, 1, 1)
        assert loop is kernels._riccati_loop(2, 1, 1)
        assert loop.__code__.co_filename == "<riccati_solve N=2 n=1 m=1>"
        assert "N=2 n=1 m=1" in inspect.getsource(loop)
        with pytest.raises(ValueError) as err:
            loop([], [], [], [], DEFAULT_TOL, 1, DIVERGENCE_GUARD, SVD_RTOL)
        frame = traceback.extract_tb(err.tb)[-1]
        assert frame.filename == "<riccati_solve N=2 n=1 m=1>"
        assert frame.line == "(((m0_0_0,),), ((m1_0_0,),),) = Ms"

    def test_import_compiles_no_loop(self):
        # the jump-linear and Riccati loops compile on first use, never at
        # import, so a fresh interpreter's setup compiles only the history
        # visit and the nonparametric loop, whose source has no shape
        code = ("import linecache, feedback_lab; print(sorted(k for k in "
                "linecache.cache if k.startswith(('<riccati_solve', "
                "'<mjls_episode'))))")
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    @pytest.mark.parametrize("m", [240, 3000])
    def test_long_dots_match_reference_bits(self, m):
        # one state and m inputs: each prediction is one dot of m + 1
        # terms, past the parser's nesting limit for a parenthesized
        # expression (200) and the compiler's recursion limit for a chained
        # one
        rng = np.random.default_rng(m)
        args = (rng.normal(0.0, 0.5, (1, 1, 1)),
                rng.normal(0.0, 1.0 / m, (1, 1, m)),
                rng.normal(0.0, 0.5, (1, m, 1)), np.ones((1, 1)),
                np.array([0.7]), 0, rng.random(20),
                rng.normal(0.0, 1.0, (20, 1)), GUARD)
        _same_episode_bits(kernels.mjls_episode(*args),
                           reference_mjls_episode(*args))


def sparse_mjls_args(rng, edit):
    """``random_mjls_args``, then, from a second generator, entries of A
    and B set to exactly 0.0, -0.0 or 1.0, and now and then B = I: specs
    whose loops leave out zero products and take unit ones bare."""
    A, B, *rest = random_mjls_args(rng)
    for M in (A, B):
        hit = edit.random(M.shape) < edit.uniform(0.2, 0.8)
        M[hit] = edit.choice([0.0, -0.0, 1.0], int(hit.sum()))
    if edit.random() < 0.3:
        B[:] = np.eye(*B.shape[1:])
    return (A, B, *rest)


def _one_mode_args(A, B, Kg, x0, guard=GUARD, T=6):
    # a one-mode episode over the given matrices, with unit noise
    A, B, Kg = (np.array([M], dtype=float) for M in (A, B, Kg))
    n = A.shape[1]
    rng = np.random.default_rng(n)
    return (A, B, Kg, np.ones((1, 1)), np.array(x0, dtype=float), 0,
            rng.random(T), rng.normal(0.0, 1.0, (T, n)), guard)


class TestMjlsSparseLoop:
    """The loop generated without a spec's exact-zero and unit products
    against ``reference_mjls_episode``, which keeps every term."""

    def test_sparse_specs_match_reference_bits(self, monkeypatch):
        patterns = []
        real = kernels._mjls_loop

        def recorded(N, n, m, pattern):
            patterns.append(pattern)
            return real(N, n, m, pattern)

        monkeypatch.setattr(kernels, "_mjls_loop", recorded)
        rng = np.random.default_rng(47)
        edit = np.random.default_rng(53)
        seen = dict.fromkeys(["blow", "nan", "neg_zero", "small_guard",
                              "x_zero", "u_zero", "unit"], 0)
        for _ in range(300):
            args = sparse_mjls_args(rng, edit)
            got = kernels.mjls_episode(*args)
            _same_episode_bits(got, reference_mjls_episode(*args))
            A, B = args[:2]
            n = A.shape[1]
            coefs = np.concatenate([A, B], axis=2).ravel()
            pattern = patterns[-1] or "." * coefs.shape[0]
            cols = np.arange(coefs.shape[0]) % (n + B.shape[2])
            dropped = np.array([p == "0" for p in pattern])
            assert np.array_equal(np.array([p == "1" for p in pattern]),
                                  coefs == 1.0)
            assert not (dropped & (coefs != 0.0)).any()
            seen["x_zero"] += bool((dropped & (cols < n)).any())
            seen["u_zero"] += bool((dropped & (cols >= n)).any())
            seen["unit"] += "1" in pattern
            seen["blow"] += got[4] >= 0
            seen["nan"] += bool(np.isnan(got[0]).any())
            seen["neg_zero"] += bool(np.signbit(got[1][got[1] == 0]).any())
            seen["small_guard"] += args[-1] < GUARD
        assert all(seen.values()), seen

    @pytest.mark.parametrize("A, B, Kg, x0, guard", [
        # zero gains: every input is -0.0
        ([[0.5, 0.0], [1.0, -0.0]], [[1.0, 0.0], [0.0, 1.0]],
         [[0.0, 0.0], [0.0, 0.0]], [0.3, -0.0], GUARD),
        # a start beyond the guard
        ([[0.5, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
         [[0.5, 0.0], [0.0, 0.5]], [5e3, 1.0], 1e3),
        # non-finite starts: inf or NaN times an exact zero is NaN, where
        # the inputs' terms alone would give -inf
        ([[0.5, 0.0], [0.0, 0.5]], [[1.0, 1.0], [1.0, 1.0]],
         [[0.5, 0.5], [0.5, 0.5]], [1.0, math.inf], GUARD),
        ([[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]],
         [[0.5, 0.0], [0.0, 0.5]], [1.0, math.nan], GUARD),
        # an infinite guard lets a state of inf through to the next
        # step's products
        ([[1e300, 0.0], [0.0, 0.5]], [[1.0, 1.0], [1.0, 1.0]],
         [[0.5, 0.5], [0.5, 0.5]], [1e10, 1.0], math.inf),
        # a gain of 1e300 beside an exact-zero B entry: u0 overflows to
        # -inf, and its zero products are NaN
        ([[0.5, 0.0], [0.0, 0.5]], [[0.0, 1.0], [1.0, 0.0]],
         [[1e300, 0.0], [0.0, 0.5]], [1e10, 1.0], GUARD),
        # a NaN gain after finite ones, which max() would pass over
        ([[0.5, 0.0], [0.0, 0.5]], [[0.0, 1.0], [1.0, 0.0]],
         [[0.5, 0.5], [0.5, math.nan]], [1.0, 1.0], GUARD),
    ], ids=["zero_gains", "start_beyond_guard", "inf_start", "nan_start",
            "infinite_guard", "overflowing_input", "nan_gain"])
    def test_edge_episodes_match_reference_bits(self, A, B, Kg, x0, guard):
        # every entry's bits but a NaN's sign: from a non-finite start a
        # prediction adds two NaNs of opposite signs, and which one CPython
        # 3.11 returns depends on whether it has specialized that add
        args = _one_mode_args(A, B, Kg, x0, guard)
        got = kernels.mjls_episode(*args)
        want = reference_mjls_episode(*args)
        for a, b in zip(got[:4], want[:4]):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            assert a[a == a].tobytes() == b[b == b].tobytes()
        assert got[4] == want[4]

    def test_sparse_loop_names_its_pattern(self):
        # one state, one input: the state's term is left out and the
        # input's taken bare, and the source still holds only names
        loop = kernels._mjls_loop(1, 1, 1, "01")
        name = "<mjls_episode N=1 n=1 m=1 pattern=01>"
        assert loop.__code__.co_filename == name
        src = inspect.getsource(loop)
        assert "        p0_0 = 0.0 + u0\n" in src
        assert "x0 * a0_0_0" not in src and "u0 * a0_0_1" not in src

    def test_sparse_episode_blows_up_and_replays(self):
        # B = I and zeros in A, under a gain schedule solved for the same
        # spec with A a tenth as large: the loop runs sparse, and the
        # episode escapes
        chain = MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))
        A = np.array([[[3.0, 0.0], [0.0, 2.5]], [[0.0, -3.0], [3.0, 0.0]]])
        noise = MartingaleDiffVector(1.0, 2.0, 2)
        spec = MjlsSpec(chain=chain, A=A, B=np.array([np.eye(2)] * 2),
                        noise=noise)
        tame = MjlsSpec(chain=chain, A=0.1 * A, B=spec.B, noise=noise)
        controller = MjlsGainControl(solve_coupled_riccati(tame).solution)
        traj, verdict = run_episode(MjlsSystem(spec=spec, x0=(1.0, -1.0)),
                                    controller, None, 1000, 5)
        assert verdict.blow_step is not None
        assert check_replay(traj)
        # the reference controller takes matrix products, which round as
        # BLAS does
        end = traj.inputs.shape[0]
        for t in (0, 1, end // 2, end - 1):
            assert np.allclose(recompute_input(traj, t), traj.inputs[t],
                               rtol=1e-12, atol=1e-12)


class TestZohFlowBits:
    """The flow's bits, pinned by sha256 over random members under random
    upper/lower mode tables and over sampled duels from nonzero starts;
    a change to the flow's arithmetic that moves any bit moves a digest."""

    FLOW_DIGEST = ("6fc800f4e7fa5bd9460329adf0bd87bd"
                   "bc299ba815b3215900b2f17c012fe8ff")
    DUEL_DIGEST = ("4114ddc3fe6a095eed5e2cafb3556ad5"
                   "fe7f8a5019d774e99a8da8bdbe8993f8")

    @staticmethod
    def flows(rng, n_members):
        # members with random slopes and with runs of slope exactly +-L,
        # where the line behind and the line ahead tie; starts on anchors,
        # between them and beyond both ends; periods from 0.01 to 50
        for _ in range(n_members):
            L = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
            n = int(rng.integers(1, 13))
            xs = np.unique(rng.uniform(-10.0, 10.0, n))
            vs = np.empty(xs.shape[0])
            vs[0] = rng.uniform(-3.0, 3.0)
            for i in range(1, xs.shape[0]):
                slope = (L, -L, rng.uniform(-L, L))[rng.integers(3)]
                vs[i] = vs[i - 1] + slope * (xs[i] - xs[i - 1])
            modes = rng.integers(0, 2, xs.shape[0] + 1).tolist()
            keys, rows = kernels.anchor_table(xs, vs, modes)
            starts = [float(rng.choice(xs)), rng.uniform(-12.0, 12.0),
                      xs[0] - rng.uniform(0.0, 5.0),
                      xs[-1] + rng.uniform(0.0, 5.0)]
            for x in starts:
                h = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
                for u in (0.0, rng.uniform(-3.0, 3.0) * L,
                          -kernels.mcshane_eval(keys, rows, L, x)):
                    yield keys, rows, L, x, u, h

    def test_flows_keep_their_bits(self):
        rng = np.random.default_rng(17)
        out = [kernels.zoh_flow(*case)
               for case in self.flows(rng, 3000)]
        assert len(out) == 36000
        digest = hashlib.sha256(np.array(out).tobytes()).hexdigest()
        assert digest == self.FLOW_DIGEST

    def test_sampled_duels_keep_their_bits(self):
        h = hashlib.sha256()
        for L, c, period in [(1.0, 1.0, 0.5), (1.0, 1.0, 1.3),
                             (1.5, 0.5, 1.0), (1.0, 1.0, 8.0),
                             (2.0, 0.5, 0.01)]:
            for x0 in (0.7, -1.3, 5.0, -40.0):
                for use_controller in (0, 1):
                    out = kernels.sampled_duel(x0, L, c, period, 4.0, 150,
                                               GUARD, use_controller)
                    for a in out[:6]:
                        h.update(np.asarray(a).tobytes())
                    h.update(np.array(out[6:], dtype=np.int64).tobytes())
        assert h.hexdigest() == self.DUEL_DIGEST


class TestZohFlowOverflow:
    def test_rate_past_double_range_reads_nan(self):
        # at 1e10 the right tail's upper envelope from (0, 1) at slope
        # 1e300 is inf, so against an input of -inf f(x) + u is NaN: the
        # flow has no direction, and the state reads NaN, not at rest.  A
        # NaN state stays the object it is
        keys, rows = kernels.anchor_table(np.array([0.0]), np.array([1.0]),
                                          [1, 0])
        L = 1e300
        assert kernels.mcshane_eval(keys, rows, L, 1e10) == np.inf
        assert math.isnan(kernels.zoh_flow(keys, rows, L, 1e10, -np.inf,
                                           1e-300))
        assert kernels.zoh_flow(keys, rows, L, 0.0, -1.0, 1.0) == 0.0
        nan = float("nan")
        assert kernels.zoh_flow(keys, rows, L, nan, 0.0, 1.0) is nan


def reference_sampled_episode(x, keys, rows, L, c, h, kappa, n_samples,
                              guard, use_controller):
    """``kernels._sampled_episode`` with every period's flow through the
    public ``zoh_flow``, which locates the sample and takes its cone
    again, where the kernel's loop hands the flow its own index and
    rate."""
    xs = [x]
    us = []
    vsc = []
    hist = ([], [], [])
    blow = -1
    for k in range(n_samples):
        u = 0.0
        if use_controller != 0:
            u = kernels._ce_input(xs, us, hist, k, x, L, c, h, kappa)
        j = kernels._bisect(keys, x)
        row = rows[j]
        lo, hi = kernels._cone(row, L, x)
        m = row[4]
        if m is not None or row[2] == x:
            v = lo if m == 1 else hi
        else:
            box = L * abs(x) + c
            lo = max(lo, -box)
            hi = min(hi, box)
            if lo > hi:
                lo = hi = min(max(0.5 * (lo + hi), -box), box)
            v = hi if abs(hi + u) >= abs(lo + u) else lo
            if not -sys.float_info.max <= v <= sys.float_info.max:
                v = math.copysign(sys.float_info.max, v)
            kernels._insert(keys, rows, j, x, v)
        x1 = kernels.zoh_flow(keys, rows, L, x, u, h)
        us.append(u)
        vsc.append(v)
        xs.append(x1)
        if not abs(x1) <= guard:
            blow = k + 1
            break
        x = x1
    return xs, us, vsc, blow


class TestSampledLocatesOnce:
    """The sampled loop locates each sample once and hands the flow the
    index and the rate f(x) + u it found there."""

    def test_each_period_bisects_and_takes_the_cone_once(self, monkeypatch):
        counts = {"_bisect": 0, "_cone": 0}
        for name in counts:
            def counted(*args, _real=getattr(kernels, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(kernels, name, counted)
        f = RealizedPiecewiseLinear(*anchors(seed=8, L=1.0), 1.0)
        xs, us, blow = kernels.sampled_fixed(0.7, *f.table, 1.0, 1.0, 0.5,
                                             4.0, 1000, GUARD, 1)
        assert blow == -1 and us.shape == (1000,)
        assert counts == {"_bisect": 1000, "_cone": 1000}

    @staticmethod
    def runs():
        # both kernels with the controller on and off, from NaN of either
        # sign, signed zeros and random starts, over random members'
        # tables and duels, under the guard and a small one
        rng = np.random.default_rng(29)
        nan = float("nan")
        for _ in range(12):
            f = random_envelope_member(1.5, 1.0, rng)
            for x0 in (nan, -nan, 0.0, -0.0, rng.uniform(-12.0, 12.0)):
                for use_controller in (0, 1):
                    guard = (GUARD, 30.0)[rng.integers(2)]
                    yield kernels.sampled_fixed, (
                        x0, *f.table, 1.5, 1.0, float(rng.uniform(0.2, 2.0)),
                        4.0, 200, guard, use_controller)
        for L, c, h in [(1.0, 1.0, 0.5), (1.5, 0.5, 1.0), (1.0, 1.0, 8.0)]:
            for x0 in (nan, -nan, 0.0, 0.7, -40.0):
                for use_controller in (0, 1):
                    yield kernels.sampled_duel, (x0, L, c, h, 4.0, 150,
                                                 GUARD, use_controller)

    def test_kernels_match_a_loop_through_the_public_flow(self,
                                                          monkeypatch):
        got = [kernel(*args) for kernel, args in self.runs()]
        monkeypatch.setattr(kernels, "_sampled_episode",
                            reference_sampled_episode)
        want = [kernel(*args) for kernel, args in self.runs()]
        nan_starts = 0
        for g, w in zip(got, want):
            assert len(g) == len(w)
            for a, b in zip(g, w):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            if math.isnan(g[0][0]):
                # a NaN state has no flow: it stays NaN and trips the
                # guard at once
                assert g[-1] == 1 and math.isnan(g[0][1])
                nan_starts += 1
        assert nan_starts == 4 * 12 + 4 * 3


class TestParametricBits:
    """The RLS kernel's bits, pinned by sha256 over all three returns:
    growth exponents from 0 to 20 (below, at and beyond the critical 4),
    estimates starting above, at and below 0 (so theta_hat phi + u cancels
    to +-0.0 and u is -0.0), three noise scales, and the edge starts of
    ``PARAMETRIC_EDGE_STATES``; blow-ups include ones whose power
    overflows, so that the last input is +-inf or NaN and the last state
    NaN."""

    DIGEST = ("5667c4fafd05b8f4edd49db1fecd70b5"
              "17b0f5e7ee8d5a12f3cd249c0047a379")

    @staticmethod
    def episodes():
        rng = np.random.default_rng(37)
        for b in (0.0, 0.5, 1.5, 2.0, 3.0, 3.5, 4.5, 6.0, 20.0):
            for theta0 in (1.0, 0.0, -2.0):
                for scale in (0.1, 1.0, 10.0):
                    for _ in range(3):
                        w = scale * rng.standard_normal(401)
                        w[0] = 0.0
                        theta = theta0 + rng.standard_normal()
                        yield 0.0, theta, w, 1.0, b, 1.0, theta0
                for y0 in PARAMETRIC_EDGE_STATES + [1e200, -1e200]:
                    w = rng.standard_normal(41)
                    w[0] = 0.0
                    yield y0, 1.5, w, 3.0, b, 1.0, theta0

    def test_episodes_keep_their_bits(self):
        h = hashlib.sha256()
        seen = {"bounded": 0, "blow": 0, "nan_state": 0, "inf_input": 0,
                "neg_zero_input": 0}
        for args in self.episodes():
            ys, us, blow = kernels.parametric_episode(*args, GUARD)
            h.update(ys.tobytes())
            h.update(us.tobytes())
            h.update(np.int64(blow).tobytes())
            seen["bounded" if blow < 0 else "blow"] += 1
            seen["nan_state"] += bool(np.isnan(ys[-1]))
            seen["inf_input"] += bool(np.isinf(us).any())
            seen["neg_zero_input"] += bool(np.signbit(us[us == 0.0]).any())
        assert all(v > 10 for v in seen.values()), seen
        assert h.hexdigest() == self.DIGEST


class TestNonparamBits:
    """The nearest-neighbour kernels' bits, pinned by sha256: the fixed
    kernel over random members, whose 5 000 distinct states split their
    history's blocks some 25 times each, and the duel bounded at L 2,
    whose states repeat, and escaping at L 6, whose history grows at one
    end; a change to the history search or to the evaluation of a
    realization that moves any bit moves a digest."""

    FIXED_DIGEST = ("cc08c77681f640b2f362c3e6a76d4690"
                    "ac2dc9b13f8799fdfad916e46b2c0cdc")
    DUEL_DIGEST = ("ef774a2aadbdd856f95f4f43160c398c"
                   "f0eea0d100a6e4f086ed7abd91add946")

    def test_fixed_members_keep_their_bits(self):
        rng = np.random.default_rng(31)
        h = hashlib.sha256()
        for _ in range(3):
            f = random_lipschitz_member(2.0, RandomMember(), rng)
            raw = rng.uniform(-1.0, 1.0, 5001)
            raw[0] = 0.0
            ys, us, blow = kernels.nonparam_fixed(
                float(rng.normal()), *f.table, 2.0, raw, 1.0, 0.1, GUARD)
            assert blow == -1 and us.shape == (5000,)
            assert len(_split_steps(ys[:-1].tolist())) >= 20
            h.update(ys.tobytes())
            h.update(us.tobytes())
        assert h.hexdigest() == self.FIXED_DIGEST

    def test_duels_keep_their_bits(self):
        h = hashlib.sha256()
        blows = []
        for L, T in ((2.0, 2000), (6.0, 500)):
            out = kernels.nonparam_duel(0.4, L, 1.0, 10.0, 0.1, GUARD, T)
            for a in out[:6]:
                h.update(a.tobytes())
            h.update(np.array(out[6:], dtype=np.int64).tobytes())
            blows.append(out[-1])
        assert blows[0] == -1 and blows[1] > 0
        assert h.hexdigest() == self.DUEL_DIGEST


class TestGridSolveBits:
    """Criterion 6's 20 x 20 grid (A = (0, delta), B = 1, switching
    probability p12 both ways; the benchmark's deltas and p12s), pinned
    by sha256 over every return of each solve: the scalar loop's bits."""

    DIGEST = ("204564109745c353cb489191a9c0793b"
              "af6ce4e1d639e3af14d47ad1232a8656")

    def test_solves_keep_their_bits(self):
        h = hashlib.sha256()
        statuses = []
        for delta in np.linspace(0.0, 3.0, 20):
            for k in range(20):
                p12 = (k + 0.5) / 20.0
                Ms, status, iters, step, Ks = kernels.riccati_solve(
                    np.array([[[0.0]], [[delta]]]), np.ones((2, 1, 1)),
                    np.array([[1 - p12, p12], [p12, 1 - p12]]), DEFAULT_TOL,
                    DEFAULT_MAX_ITER, DIVERGENCE_GUARD, SVD_RTOL)
                h.update(Ms.tobytes())
                h.update(np.array([status, iters], dtype=np.int64).tobytes())
                h.update(np.float64(step).tobytes())
                h.update(b"-" if Ks is None else Ks.tobytes())
                statuses.append(status)
        assert statuses.count(0) == 324 and statuses.count(1) == 76
        assert h.hexdigest() == self.DIGEST


class TestRiccatiSolveBits:
    """The solve's bits, pinned by sha256 over every return of random
    solves at one input (so no LAPACK call is made, as in
    ``test_golden.py``): one to three modes, one to four states, with
    edge entries, zeroed input columns and capped iterations, so that
    overflowing and NaN iterates, the rising-step verdict, convergence
    with gains, convergence on an input block that overflows
    (indeterminate, no gains) and the pseudo-inverse's NaN error all
    occur."""

    DIGEST = ("40c6c4b25b4cf0d605e7d46bac221861"
              "df6b71d64e13c44e7e5be268c7e8117c")
    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200,
             1e-200, -1e-200, 5e-324, -3e-320]

    @classmethod
    def solves(cls, rng, count):
        for _ in range(count):
            N = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            scale = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
            A = rng.normal(0.0, scale / np.sqrt(n), (N, n, n))
            B = rng.normal(0.0, 1.0, (N, n, 1))
            P = rng.dirichlet(np.ones(N), N)
            if rng.random() < 0.2:
                B[rng.integers(N)] = 0.0
            if rng.random() < 0.3:
                for M in (A, B, P)[:int(rng.integers(1, 4))]:
                    M.flat[rng.integers(M.size)] = \
                        cls.EDGES[rng.integers(len(cls.EDGES))]
            tol = (0.0, DEFAULT_TOL)[rng.integers(2)]
            max_iter = int(rng.integers(1, 60))
            yield A, B, P, tol, max_iter

    def test_solves_keep_their_bits(self):
        rng = np.random.default_rng(29)
        h = hashlib.sha256()
        seen = {"solved": 0, "guard": 0, "nan": 0, "rising": 0,
                "indeterminate": 0, "overflowed": 0, "raised": 0}
        for A, B, P, tol, max_iter in self.solves(rng, 1000):
            try:
                Ms, status, iters, delta, Ks = kernels.riccati_solve(
                    A, B, P, tol, max_iter, DIVERGENCE_GUARD, SVD_RTOL)
            except np.linalg.LinAlgError:
                h.update(b"LinAlgError")
                seen["raised"] += 1
                continue
            h.update(Ms.tobytes())
            h.update(np.array([status, iters], dtype=np.int64).tobytes())
            h.update(np.float64(delta).tobytes())
            h.update(b"-" if Ks is None else Ks.tobytes())
            if status == 0:
                seen["solved"] += 1
                assert Ks.shape == (A.shape[0], 1, A.shape[1])
            elif status == 2:
                assert Ks is None
                seen["indeterminate" if iters == max_iter
                     else "overflowed"] += 1
            elif np.isnan(Ms).any():
                seen["nan"] += 1
            elif np.abs(Ms).max() > DIVERGENCE_GUARD:
                seen["guard"] += 1
            else:
                assert iters == max_iter
                seen["rising"] += 1
        assert all(seen.values()), seen
        assert h.hexdigest() == self.DIGEST
