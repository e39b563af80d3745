"""Every kernel against a reference route that does not share its body.

Each kernel has one body, so the references live elsewhere: full-cone
scans written here for the neighbour-only envelope and interval,
linear-scan controllers (``recompute_input``) for the sorted-history
nearest-neighbour choice, the model step operations (replay) for the
states, the reference adversary for the duel's committed values,
``riccati_rhs`` for the fixed-point iterates and the matrix-product
gains for the solver's gains, and the matrix-product route it replaced
for the jump-linear episode.
"""

import hashlib
import math

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
        # the n = m = 1 body drops the loops' 0.0 + terms; on entries drawn
        # from signed zeros, infinities, extremes and subnormals it gives
        # the generic body's bits (NaN too) or raises where it raises
        rng = np.random.default_rng(8)
        pool = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200, -1e-200, 1e200,
                -1e200, math.inf, -math.inf, 3e-320]

        def draw(k):
            return [pool[j] if j < len(pool) else float(rng.normal(0, 2))
                    for j in rng.integers(0, 2 * len(pool), k)]

        def nested(xs):
            # each entry as the 1 x 1 matrix (its own transpose)
            return [[[x]] for x in xs]

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
                        kernels._scalar_riccati_map(A, B, P, Ms, SVD_RTOL)
                    raised += 1
                    continue
                got = kernels._scalar_riccati_map(A, B, P, Ms, SVD_RTOL)
                assert [_bits(x) for x in got] == \
                    [_bits(M[0][0]) for M in want]
        assert 0 < raised < 3000

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


def _split_steps(states):
    """The steps whose visit split a history block, recording ``states``
    through ``_visit`` as the episode kernels do."""
    hist = ([], [])
    steps = {}
    out = []
    for t, y in enumerate(states):
        n = len(hist[0])
        kernels._visit(hist, steps, y, t)
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
    """A store is a sorted key list, blocked in a history with a dict from
    each key to its first-visit step, and for an anchor store one row per
    interval, which holds the anchors either side and their values."""

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
        hist = ([], [])
        steps = {}
        assert kernels._visit(hist, steps, -0.0, 0) == (-1, np.inf)
        assert kernels._visit(hist, steps, 1.0, 1) == (0, 1.0)
        k, gap = kernels._visit(hist, steps, 0.0, 2)
        assert (k, gap) == (0, 0.0)
        keys = _history_keys(hist)
        assert keys == [0.0, 1.0] and math.copysign(1.0, keys[0]) == -1.0
        assert steps == {0.0: 0, 1.0: 1}
        assert math.copysign(1.0, next(iter(steps))) == -1.0

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
        store = ([], [])
        steps = {}
        hist = controllers.NnHistory()
        ties = repeats = 0
        for t, y in enumerate(states.tolist()):
            k, gap = kernels._visit(store, steps, y, t)
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
        assert [steps[y] for y in keys] == \
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
            store = ([], [])
            steps = {}
            hist = controllers.NnHistory()
            seen = []

            def visit(y):
                t = len(seen)
                k, gap = kernels._visit(store, steps, y, t)
                if t == 0:
                    assert (k, gap) == (-1, np.inf)
                else:
                    d = np.abs(y - np.array(seen))
                    assert (k, gap) == (int(np.argmin(d)), d.min()), t
                    if estimate:
                        assert controllers.nn_estimate(hist, y) == \
                            (hist.ynexts[k] - hist.us[k], gap), t
                blocks, maxes = store
                assert maxes == [block[-1] for block in blocks], t
                assert all(0 < len(b) <= 2 * kernels._LOAD
                           for b in blocks), t
                seen.append(y)
                if estimate:
                    hist.append(y, 0.5 * t, float(t))

            return store, steps, seen, visit

        def check_keys(store, steps, seen):
            keys = _history_keys(store)
            assert np.array_equal(keys, np.unique(seen))
            assert [steps[y] for y in keys] == \
                np.unique(seen, return_index=True)[1].tolist()
            return keys

        states = (rng.integers(-1024, 1024, 3000) / 16.0).tolist()
        states[:0] = [-0.0]
        states[1500:1500] = [0.0, -0.0]
        store, steps, seen, visit = history(True)
        for y in states:
            visit(y)
        blocks, maxes = store
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
        keys = check_keys(store, steps, seen)
        assert math.copysign(1.0, keys[keys.index(0.0)]) == -1.0

        store, steps, seen, visit = history(False)
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
        check_keys(store, steps, seen)
        # NaN into a history of many blocks and into one of one key: no
        # nearest state, and the key goes last
        for hist in (store, ([[1.0]], [1.0])):
            nan = float("nan")
            k, gap = kernels._visit(hist, {1.0: 0}, nan, len(seen))
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
            store, steps, seen, visit = history(False)
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
                store, steps, seen, visit = history(False)
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
        traj = _trajectory("nonparametric", ys, us, raw, system,
                           SwitchingControl())
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
        traj = _trajectory("sampled", out, us, np.zeros(601), system,
                           SampledCeControl())
        assert _bits(replay_states(traj)) == _bits(out)
        splits = _split_steps(out[:-1].tolist())
        assert len(splits) >= 3
        for s in splits[:3]:
            for t in range(s - 1, s + 3):
                assert recompute_input(traj, t) == us[t], t


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

    def test_nonparam_fixed(self):
        xs, vs = anchors(seed=5)
        f = RealizedPiecewiseLinear(xs, vs, 2.0)
        rng = np.random.default_rng(6)
        raw = rng.uniform(-1, 1, 401)
        raw[0] = 0.0
        system = NonparametricSystem(L=2.0, f=f)
        ys, us, blow = kernels.nonparam_fixed(0.3, *f.table, 2.0, raw, 1.0,
                                              0.1, GUARD)
        traj = _trajectory("nonparametric", ys, us, raw, system,
                           SwitchingControl())
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

    def test_sampled_fixed(self):
        xs, vs = anchors(seed=8, L=1.0)
        spec = SampledSpec(L=1.0, c=1.0, h=0.5)
        f = RealizedPiecewiseLinear(xs, vs, 1.0)
        system = SampledSystem(spec=spec, f=f)
        out, us, blow = kernels.sampled_fixed(0.7, *f.table, 1.0, 1.0, 0.5,
                                              4.0, 50, GUARD, 1)
        traj = _trajectory("sampled", out, us, np.zeros(51), system,
                           SampledCeControl())
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
        hist = ([], [])
        steps = {}
        for k in range(300):
            samples = [(xs[i], us[i], xs[i + 1]) for i in range(k)]
            u = kernels._ce_input(xs, us, hist, steps, k, xs[k], 1.0, 1.0, 0.5,
                                  4.0)
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
