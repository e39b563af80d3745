"""Hot numeric kernels, one body each.

Every episode loop and the coupled fixed-point solver live here as plain
Python functions.  The episode kernels read their input arrays once as
lists (``.tolist()``), keep states in Python lists of Python floats,
anchor stores in sorted key lists with one row per interval, and
nearest-neighbour histories in sorted blocks with a dict of first-visit
steps (see below), and build their numpy return arrays once, when they
return.  A list read costs about a third of a numpy-scalar read, and
both follow IEEE double arithmetic, so results are the same bits.  The one difference is overflow: ``x ** b``
raises ``OverflowError`` on Python floats where float64 gives inf.
``power_eval`` defines how a state is raised to a power: it never
raises, and returns what float64 arithmetic gives.  The RLS kernel
inlines it branch for branch (the call would cost about a sixth of a
step), and the model step operations that replay the kernel call it.

The small-matrix kernels, ``riccati_solve`` and ``mjls_episode``, read
their matrices once into lists of Python floats, where each numpy call
would cost more than the arithmetic, and form every matrix entry as one
dot (``_row_dots``): from 0.0, the left factor's row times the right
factor's column, summed left to right in an explicit loop (builtin
``sum()`` over floats is compensated from Python 3.12 on).  From n = 2
on, such a dot rounds differently from BLAS's small-matrix kernels
(which may fuse multiply-adds), so results differ from the numpy routes
in the last bits but do not depend on the CPU's BLAS dispatch.
``riccati_solve`` takes each mode's transposes A_j' and B_j' once per
solve as nested rows and keeps the order of the matrix expression,
``(A_j' (p M_j)) A_j`` summed over j in order (``_mode_sums``); it reads
p M_j's columns as its rows, which gives the same bits because every
iterate it feeds back is exactly symmetric and finite.  At m = 1 its
pseudo-inverse is 1/x in closed form (``_pinv1``), so 1 x 1 iterates are
the bits of the numpy route (``riccati.riccati_rhs``), and for m > 1 it
goes through LAPACK's SVD, which never sees a non-finite matrix (it may
not return on one).  At n = m = 1 each iterate is a few lines of
scalar arithmetic on flat lists with the same products in the same
order (``_scalar_riccati_map``), under a tenth of the generic body's
time at two modes; every other shape runs the dots (``_riccati_map``),
and one iteration loop around either tracks the step, the norm and the
verdict.
On convergence it returns, as a fifth element, the gains
K_i = S_bb^+ S_ab' of the final iterate, from the same sums and
pseudo-inverse (None otherwise).  Where a converged iterate's S_bb holds
a non-finite entry, its pseudo-inverse drops the overflowed inputs
whatever the exact map does, so the verdict turns indeterminate and no
gains are returned.  ``mjls_episode`` computes each mode's
prediction ``A_i x + B_i u`` once per step, one dot over the row
``[A_i | B_i]`` and ``(x, u)``; the true step adds the noise to the
current mode's, the next step's mode estimate reads the same
predictions, and ``mjls_step`` (replay) takes the same dot.  States and
inputs go into flat ``array('d')`` buffers.

Conventions: noise arrays have length T+1 with slot 0 unused, Markov
modes are 0-based inside kernels, blowup is reported as the 1-based step
index at which the guard tripped (-1 means the horizon was reached).

Piecewise-linear functions are passed as anchor stores ``(keys, rows)``
with slope budget L: ``keys`` lists the sorted, distinct abscissas as
Python floats, and ``rows[j] = (left, v_left, right, v_right,
envelope)`` describes interval j, the one at located index j: the
anchors either side of it (None for a tail's missing one), their values
and its envelope.  Envelope 0 is the upper envelope
``min_i(v_i + L|x - x_i|)``, 1 the lower ``max_i(v_i - L|x - x_i|)``,
and None marks an interval where a duel's f is still free.  For
L-consistent anchors both envelopes at x are fixed by the two anchors
either side of x (McShane 1934), so every access reads one row: the cone
arithmetic (``_cone``) gives the interval of values consistent with the
store, ``mcshane_eval`` the envelope's side of it, in ``_cone``'s order,
and ``zoh_flow`` integrates the flow over the rows in closed form, one
linear piece at a time.  An exact anchor hit returns the stored value,
so replaying a stored trajectory through the same anchors is
reproducible to the last bit.  A realization builds its table once
(``anchor_table``), with an envelope in every row; the duels start from
the one free row of an empty store and grow it.  ``interval`` reads the
reference adversary's sorted keys and value dict instead, building the
one row it needs.

An anchor store is one flat key list and its rows, since ``zoh_flow``
walks the rows by index and the store stays small in every workload.  A
commit (``_insert``) inserts the key and splits its row into two that
keep the row's envelope, and a flow that closes a free interval rewrites
its row.  A nearest-neighbour history (``_visit``) keeps sorted keys
plus a dict from each distinct past state to the step of its first
visit, the keys in sorted blocks of at most 2 * ``_LOAD`` keys with each
block's last key alongside, so a commit moves the tail of one block, not
of a list of 10^4 keys (criterion 4's episodes).  A commit at a key
already stored keeps the first value: among equal computed distances the
smallest step wins, and a repeat of a state can never beat its first
visit.  Keys compare as floats, so a +0.0 visit finds a stored -0.0 and
keeps it and its value.  A NaN key equals no key and sorts after every
key, so a NaN commit appends (to a history's last block); the dict finds
it by identity, and the rows either side hold the NaN object itself, so
reads through the key list get its value back.

Every anchor-store access finds x's index once, by bisection
(``_bisect``), and uses it for both the lookup and the insertion: the
index j of the first key >= x (``len(keys)`` if none, and for NaN), which
is what ``np.searchsorted(keys, x)`` returns.  A history visit bisects
the block maxima, then the one block, which locates x at the same place
in the joined blocks.  Where one neighbour is strictly nearer than the
other and the key beyond it lies in x's block, or there is none, and is
strictly farther, the visit returns that neighbour's step directly (x
past the last key or before the first included); NaN and every tie, and
a key beyond in the next block, go through the one tie handler, a scan
of the tied runs across block edges (``_tie_scan``).

Both sampled kernels run one loop (``_sampled_episode``), the duel's: it
commits only where x's row has no envelope, so over a realization's
table, where every row has one, it commits and closes nothing.

The episode kernels return arrays of the entries their episode produced:
T + 1 states and T inputs, or blow + 1 and blow where the guard tripped
at step blow; ``mjls_episode``'s mode estimates, one per state, start
and end in -1 (no estimate).  The duel kernels also return their store
as sorted key and value arrays and its size.
"""

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

_INF = float("inf")
_NEG_INF = -_INF
# a nearest-neighbour history block splits in halves beyond 2 * _LOAD keys
_LOAD = 128
# the one row of an empty store: no anchors, f free everywhere
_FREE = (None, None, None, None, None)


# ---------------------------------------------------------------------------
# scalar helpers and sorted stores

def power_eval(M, b, y):
    """Odd extension M*sign(y)*|y|^b, 0 at y = 0 (and NaN) for every b >= 0.

    Never raises: where |y|^b overflows (Python floats raise
    OverflowError there) the power is taken as inf, the float64 result.
    """
    if y > 0.0:
        a = y
    elif y < 0.0:
        a = -y
    else:
        return 0.0
    try:
        p = a**b
    except OverflowError:
        p = np.inf
    v = M * p
    return v if y > 0.0 else -v


def _bisect(keys, x):
    """The index ``np.searchsorted(keys, x)`` returns: the first i with
    keys[i] >= x, else len(keys).  NaN sorts after every key, where
    ``bisect_left`` would return 0."""
    if x != x:
        return len(keys)
    return bisect_left(keys, x)


def _cone(row, L, x):
    # the interval at x from the anchors of x's row: the stored value on
    # its right anchor, else the intersection of the two anchors' cones
    left, vl, right, vr, _ = row
    if right == x:
        return vr, vr
    lo = _NEG_INF
    hi = _INF
    if left is not None:
        d = x - left
        lo = vl - L * d
        hi = vl + L * d
    if right is not None:
        d = right - x
        a = vr - L * d
        c = vr + L * d
        if a > lo:
            lo = a
        if c < hi:
            hi = c
    return lo, hi


def anchor_table(xs, vs, modes):
    """The store form of the anchor arrays ``(xs, vs)``: the sorted keys
    as a list of Python floats, and one row ``(left, v_left, right,
    v_right, envelope)`` per located index j, the anchors either side of
    interval j (None for a tail's missing one), their values and the
    envelope ``modes`` lists for it, left tail first (0 the upper, 1 the
    lower, None where f is still free)."""
    keys = xs.tolist()
    ends = [None] + keys + [None]
    vals = [None] + vs.tolist() + [None]
    return keys, list(zip(ends, vals, ends[1:], vals[1:], modes))


def interval(keys, vals, L, x):
    """Values at x consistent with the anchors whose sorted keys and
    value dict are given: the single stored value on an anchor, else the
    intersection of the neighbours' cones."""
    j = _bisect(keys, x)
    left = keys[j - 1] if j else None
    right = keys[j] if j < len(keys) else None
    return _cone((left, vals.get(left), right, vals.get(right), None), L, x)


def mcshane_eval(keys, rows, L, x):
    """Envelope value at x of the function whose sorted keys and rows are
    given: the upper envelope or the lower, as x's row takes.  The
    arithmetic is ``_cone``'s, in its order."""
    left, vl, right, vr, lower = rows[bisect_left(keys, x) if x == x
                                      else len(keys)]
    if right == x:
        return vr
    if lower:
        v = _NEG_INF
        if left is not None:
            v = vl - L * (x - left)
        if right is not None:
            a = vr - L * (right - x)
            if a > v:
                v = a
    else:
        v = _INF
        if left is not None:
            v = vl + L * (x - left)
        if right is not None:
            c = vr + L * (right - x)
            if c < v:
                v = c
    return v


def _insert(keys, rows, j, key, val):
    """Insert key at its located index j in the sorted keys with value
    val, splitting row j into two rows that keep its envelope, unless key
    is already there: a store keeps its first value."""
    left, vl, right, vr, m = rows[j]
    if right == key:
        return
    keys.insert(j, key)
    rows[j] = (left, vl, key, val, m)
    rows.insert(j + 1, (key, val, right, vr, m))


def _visit(hist, steps, x, t):
    """Look up the stored state nearest to x, then record x at step t.

    ``hist`` is ``(blocks, maxes)``: the distinct past states in sorted
    blocks of at most 2 * ``_LOAD`` keys, in order, and each block's last
    key.  ``steps`` maps each stored state to the step of its first visit.
    Returns the step k of the nearest state (-1 for an empty history) and
    its distance.  Computed distances grow monotonically away from the
    insertion point on either side, so the entries tied at the minimum
    form one run on each side of it, which may cross block edges; the
    smallest step among them wins.  Where one neighbour is strictly
    nearer and the key beyond it, in x's block or absent, strictly
    farther, that neighbour is the run (the direct path); NaN and every
    tie go through the scan (``_tie_scan``).  The joined blocks are the
    flat sorted list ``_bisect`` and ``_insert`` would keep, NaN last.
    """
    blocks, maxes = hist
    if not blocks:
        blocks.append([x])
        maxes.append(x)
        steps[x] = t
        return -1, _INF
    # the first block whose last key is >= x, else the end of the last
    b = bisect_left(maxes, x) if x == x else len(maxes)
    if b == len(maxes):
        b -= 1
        blk = blocks[b]
        i = len(blk)
    else:
        blk = blocks[b]
        i = bisect_left(blk, x)
    n = len(blk)
    # the neighbours' distances, inf where there is none
    dr = blk[i] - x if i < n else _INF
    if i:
        dl = x - blk[i - 1]
    elif b:
        dl = x - maxes[b - 1]
    else:
        dl = _INF
    if dr < dl and (blk[i + 1] - x > dr if i + 1 < n
                    else b + 1 == len(blocks)):
        best = dr
        k = steps[blk[i]]
    elif dl < dr and (x - blk[i - 2] > dl if i > 1 else i == 1 and not b):
        best = dl
        k = steps[blk[i - 1]]
    else:
        best = dr if dr < dl else dl
        k = _tie_scan(blocks, steps, b, i, x, best)
    if i < n and blk[i] == x:
        return k, best  # a revisit keeps the first key and its step
    blk.insert(i, x)
    steps[x] = t
    if i == n:
        maxes[b] = x
    if n >= 2 * _LOAD:
        h = (n + 1) >> 1
        blocks.insert(b + 1, blk[h:])
        del blk[h:]
        maxes.insert(b, blk[-1])
    return k, best


def _tie_scan(blocks, steps, b, i, x, best):
    # the smallest step over the keys at distance best: the runs left of
    # x's index i in block b and from it on, across block edges
    k = -1
    c, row, r = b, blocks[b], i
    while True:
        if not r:
            if not c:
                break
            c -= 1
            row = blocks[c]
            r = len(row)
        r -= 1
        key = row[r]
        if x - key != best:
            break
        s = steps[key]
        if k < 0 or s < k:
            k = s
    c, row, r = b, blocks[b], i
    while True:
        if r == len(row):
            c += 1
            if c == len(blocks):
                break
            row = blocks[c]
            r = 0
        key = row[r]
        if key - x != best:
            break
        s = steps[key]
        if k < 0 or s < k:
            k = s
        r += 1
    return k


def _switching_input(ys, us, hist, hk, t, y, eps, bmin, bmax):
    # nearest-neighbour estimate fhat = y_{k+1} - u_k, then range-centring
    # far from every past output and tracking 0 close to one (0.0 - fhat,
    # which is +0.0 where -fhat is -0.0); y is recorded in the history
    k, gap = _visit(hist, hk, y, t)
    if k < 0:
        return 0.0
    fhat = ys[k + 1] - us[k]
    if gap > eps:
        return -fhat + 0.5 * (bmin + bmax)
    return 0.0 - fhat


def _ce_input(xs, us, hist, sk, k, x, L, c, h, kappa):
    # certainty equivalence on the nearest past sample, clipped to
    # |u| <= kappa (L|x| + c); x is recorded in the history
    i, _ = _visit(hist, sk, x, k)
    if i < 0:
        return 0.0
    ftilde = (xs[i + 1] - xs[i]) / h - us[i]
    u = -ftilde - x / h
    cap = kappa * (L * abs(x) + c)
    if u > cap:
        u = cap
    if u < -cap:
        u = -cap
    return u


def _arrays(keys, rows):
    # a store's keys and values as float64 arrays in sorted order: each
    # key's value is its row's right one
    return np.array(keys), np.array([row[3] for row in rows[:-1]])


# ---------------------------------------------------------------------------
# parametric episode: recursive least squares + minimum variance input

def parametric_episode(y0, theta, w, M, b, s0, theta0, guard):
    theta = float(theta)
    M = float(M)
    b = float(b)
    s = float(s0)
    th = float(theta0)
    y = float(y0)
    ys = [y]
    us = []
    blow = -1
    for wt in w[1:].tolist():
        # power_eval(M, b, y) inlined, branch for branch: the call alone
        # would cost about a sixth of the step
        if y > 0.0:
            a = y
        elif y < 0.0:
            a = -y
        else:
            a = None  # 0 and NaN
        if a is None:
            phi = 0.0
        else:
            try:
                phi = M * a**b
            except OverflowError:
                phi = M * _INF
            if y < 0.0:
                phi = -phi
        u = -th * phi
        y1 = theta * phi + u + wt
        us.append(u)
        ys.append(y1)
        if not -guard <= y1 <= guard:
            # also true for NaN
            blow = len(us)
            break
        s = s + phi * phi
        th = th + phi * ((y1 - u) - th * phi) / s
        y = y1
    return np.array(ys), np.array(us), blow


# ---------------------------------------------------------------------------
# nonparametric episode, fixed realized f + switching NN controller

def nonparam_fixed(y0, fkeys, frows, L, ws, w_bar, eps, guard):
    T = ws.shape[0] - 1
    ws = ws.tolist()
    y = float(y0)
    ys = [y]
    us = []
    hist = ([], [])
    hk = {}
    bmin = y
    bmax = y
    blow = -1
    for t in range(T):
        if y < bmin:
            bmin = y
        if y > bmax:
            bmax = y
        u = _switching_input(ys, us, hist, hk, t, y, eps, bmin, bmax)
        y1 = mcshane_eval(fkeys, frows, L, y) + u + w_bar * ws[t + 1]
        us.append(u)
        ys.append(y1)
        if y1 != y1 or y1 > guard or y1 < -guard:
            blow = t + 1
            break
        y = y1
    return np.array(ys), np.array(us), blow


# ---------------------------------------------------------------------------
# nonparametric duel: greedy anchor-committing opponent vs the controller

def nonparam_duel(y0, L, w_bar, budget_c, eps, guard, T):
    y = float(y0)
    ys = [y]
    us = []
    ws = [0.0]
    vsc = []
    keys = []
    rows = [_FREE]
    hist = ([], [])
    hk = {}
    bmin = y
    bmax = y
    blow = -1
    for t in range(T):
        if y < bmin:
            bmin = y
        if y > bmax:
            bmax = y
        u = _switching_input(ys, us, hist, hk, t, y, eps, bmin, bmax)
        j = _bisect(keys, y)
        if not keys:
            hi = L * abs(y) + budget_c
            lo = -hi
        else:
            lo, hi = _cone(rows[j], L, y)
        v = hi if abs(hi + u) >= abs(lo + u) else lo
        w = w_bar if (v + u) >= 0.0 else -w_bar
        _insert(keys, rows, j, y, v)
        y1 = v + u + w
        us.append(u)
        ws.append(w)
        vsc.append(v)
        ys.append(y1)
        if y1 != y1 or y1 > guard or y1 < -guard:
            blow = t + 1
            break
        y = y1
    return (np.array(ys), np.array(us), np.array(ws), np.array(vsc),
            *_arrays(keys, rows), len(keys), blow)


# ---------------------------------------------------------------------------
# exact zero-order-hold flow of dx/dt = f(x) + u over one sampling period

def _exp(a):
    # e^a, inf where it overflows (math.exp raises there)
    try:
        return math.exp(a)
    except OverflowError:
        return _INF


def zoh_flow(keys, rows, L, x, u, h):
    """State after one period h of dx/dt = f(x) + u from x, u held.

    f takes on each interval between adjacent keys, and on each tail,
    the envelope its row holds: the upper, a minimum of upward cones, or
    the lower, a maximum of downward ones, each linear between kinks
    with slope +-L.  On a piece of slope a the flow is
    x* + (x - x*) e^{a t}, x* its equilibrium; it moves one way, the
    sign of f(x) + u, and never crosses an equilibrium.  Across an
    interval the envelope runs on the line through the anchor behind the
    motion, then from a kink on, on the line through the anchor ahead.
    A piece's endpoint (one ``exp``) stands where the line in use is
    still the active one there, by the two lines' values compared at the
    endpoint, and the anchor ahead is not passed; else the flow crosses
    the kink or the anchor (one ``log``) and goes on.  The envelope's
    sign rides in its slope, ``eL`` = L for the upper and -L for the
    lower, so one expression serves both: negating a product or a
    divisor is exact.

    A row whose envelope is None is an interval no period swept, where
    the sampled duel's f is still free: the flow takes the envelope that
    pushes it on, the upper moving right and the lower moving left, and
    closes the interval by rewriting its row with it.  The duel enters
    such an interval only at an anchor, where both envelopes take the
    stored value.  On a free tail it commits the endpoint with the
    active line's value, the expression a later flow compares there, so
    a replay through the final store gets the same bits.
    """
    j = _bisect(keys, x)
    row = rows[j]
    lo, hi = _cone(row, L, x)
    g = (lo if row[4] == 1 else hi) + u
    if not (g > 0.0 or g < 0.0):
        return x  # at rest, or NaN
    s = 1.0 if g > 0.0 else -1.0
    if s > 0.0 and row[2] == x:
        j += 1
    tau = h
    enter = True
    while True:
        if enter:
            # interval j: its anchor behind the motion (p0, q0) and the
            # one ahead (p1, q1); a tail lacks one
            left, vl, right, vr, m = rows[j]
            if s > 0.0:
                p0, q0, p1, q1 = left, vl, right, vr
            else:
                p0, q0, p1, q1 = right, vr, left, vl
            has0, has1 = p0 is not None, p1 is not None
            free = m is None
            if free:
                m = 0 if s > 0.0 else 1
                if has0 and has1:
                    rows[j] = (left, vl, right, vr, m)
            eL = L if m == 0 else -L
            # whether the envelope runs on the line through the anchor
            # behind; at a tie, on the one ahead
            on = has0
            if has0 and has1:
                a = q0 + eL * ((x - p0) * s)
                b = q1 + eL * ((p1 - x) * s)
                on = a < b if m == 0 else a > b
            enter = False
        # the piece: the line through (p, q) of slope beta
        p, q, beta = (p0, q0, s * eL) if on else (p1, q1, -s * eL)
        xs = p - (q + u) / beta
        d = x - xs
        x_end = xs + d * _exp(beta * tau) if d else x
        ok = not has1 or (x_end - p1) * s <= 0.0
        if ok and on and has1:
            a = q0 + eL * ((x_end - p0) * s)
            b = q1 + eL * ((p1 - x_end) * s)
            ok = a <= b if m == 0 else a >= b
        if ok:
            break
        # the nearest event ahead: the kink where the envelope leaves the
        # line behind, else the anchor ahead
        y = p1
        kink = False
        if on:
            k = 0.5 * (p0 + p1) + s * (q1 - q0) / (2.0 * eL)
            if (k - y) * s < 0.0:
                y, kink = k, True
        if (y - x) * s < 0.0:
            y = x
        r = (y - xs) / d if d else -1.0
        ty = math.log(r) / beta if r > 0.0 else _INF
        if not 0.0 <= ty < tau:
            break  # rounding put the event at or past the period's end
        tau -= ty
        x = y
        if kink:
            on = False
        else:
            j += 1 if s > 0.0 else -1
            enter = True
    if free and not has1 and 0.0 < (x_end - p0) * s < _INF:
        # the swept piece of the tail closes (moving left, the right one
        # of the split); the new tail beyond stays free
        _insert(keys, rows, j, x_end, q0 + eL * ((x_end - p0) * s))
        if s < 0.0:
            j += 1
        left, vl, right, vr, _ = rows[j]
        rows[j] = (left, vl, right, vr, m)
    return x_end


# ---------------------------------------------------------------------------
# sampled-data episodes: certainty-equivalence controller against a fixed
# f, or against the duel's opponent, which commits where f is still free,
# at a sample point inside an interval no period swept and at the end of
# a sweep along a tail; each period's flow closes the intervals it sweeps
# with the envelope (upper or lower) that pushed it

def _sampled_episode(x, keys, rows, L, c, h, kappa, n_samples, guard,
                     use_controller):
    # f is fixed where a row holds an envelope, so over a realization's
    # table, where every row does, the loop commits nothing
    xs = [x]
    us = []
    vsc = []
    hist = ([], [])
    sk = {}
    blow = -1
    for k in range(n_samples):
        u = 0.0
        if use_controller != 0:
            u = _ce_input(xs, us, hist, sk, k, x, L, c, h, kappa)
        j = _bisect(keys, x)
        row = rows[j]
        lo, hi = _cone(row, L, x)
        m = row[4]
        if m is not None or row[2] == x:
            # a swept interval, or an anchor: f is fixed there
            v = lo if m == 1 else hi
        else:
            box = L * abs(x) + c
            if lo < -box:
                lo = -box
            if hi > box:
                hi = box
            if lo > hi:
                # a pinch one rounding step outside the box collapses
                # into it, as adversary.sampled_adversary_choose does
                lo = hi = min(max(0.5 * (lo + hi), -box), box)
            v = hi if abs(hi + u) >= abs(lo + u) else lo
            _insert(keys, rows, j, x, v)
        x1 = zoh_flow(keys, rows, L, x, u, h)
        us.append(u)
        vsc.append(v)
        xs.append(x1)
        if x1 != x1 or x1 > guard or x1 < -guard:
            blow = k + 1
            break
        x = x1
    return xs, us, vsc, blow


def sampled_fixed(x0, fkeys, frows, L, c, h, kappa, n_samples, guard,
                  use_controller):
    xs, us, _, blow = _sampled_episode(float(x0), fkeys, frows, L, c, h,
                                       kappa, n_samples, guard,
                                       use_controller)
    return np.array(xs), np.array(us), blow


def sampled_duel(x0, L, c, h, kappa, n_samples, guard, use_controller):
    x = float(x0)
    keys = []
    rows = [_FREE]
    if x != 0.0:
        # an anchor at 0 inside [-c, c] keeps every envelope value inside
        # |f(x)| <= L|x| + c; it leans the way the start lies
        _insert(keys, rows, 0, 0.0, c if x > 0.0 else -c)
    xs, us, vsc, blow = _sampled_episode(x, keys, rows, L, c, h, kappa,
                                         n_samples, guard, use_controller)
    # intervals no period swept: a tail realizes as the envelope a sweep
    # out along it takes (the lower on the left, the upper on the right),
    # and the others as the upper one
    amodes = [0 if row[4] is None else row[4] for row in rows]
    if rows[0][4] is None:
        amodes[0] = 1
    return (np.array(xs), np.array(us), np.array(vsc), *_arrays(keys, rows),
            np.array(amodes), len(keys), blow)


# ---------------------------------------------------------------------------
# Markov jump linear episode with residual-matching mode estimation

def _row_dots(rows, v):
    # each row's dot with v: from 0.0, v's entries times the row's, summed
    # left to right.  v's entry is the left factor, as in the matrix
    # expressions the callers spell (IEEE products commute, except in
    # which NaN's payload a product of two NaNs carries)
    out = []
    for row in rows:
        s = 0.0
        for a, b in zip(v, row):
            s += a * b
        out.append(s)
    return out


def mjls_step(Ai, Bi, x, u, w):
    """x' = A_i x + B_i u + w, summed in the order ``mjls_episode`` takes."""
    rows = [a + b for a, b in zip(Ai.tolist(), Bi.tolist())]
    pred = _row_dots(rows, x.tolist() + u.tolist())
    return np.array([p + wk for p, wk in zip(pred, w.tolist())])


def mjls_episode(A, B, Kg, P, x0, mode0, munif, W, guard):
    T = W.shape[0]
    n = A.shape[1]
    m = B.shape[2]
    # each mode's rows [A_i | B_i]
    rows = [[a + b for a, b in zip(Ai, Bi)]
            for Ai, Bi in zip(A.tolist(), B.tolist())]
    Kl = Kg.tolist()
    Wl = W.tolist()
    ul = munif.tolist()
    # most likely successor (the first maximum) of each mode, and the
    # running-sum rows the mode draw bisects, each ending in inf: a draw
    # at or past a row's rounded total lands on the last mode
    succ = [row.index(max(row)) for row in P.tolist()]
    cum = [list(accumulate(row[:-1])) + [np.inf] for row in P.tolist()]
    x = x0.tolist()
    th = mode0
    xs = array("d", x)
    us = array("d")
    modes = [th]
    est = [-1]
    blow = -1
    for t in range(T):
        ihat = 0
        if t >= 1:
            # residuals against the predictions made one step earlier
            best = np.inf
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
        u = [-v for v in _row_dots(Kl[ihat], x)]
        preds = [_row_dots(mode, x + u) for mode in rows]
        x = [p + wk for p, wk in zip(preds[th], Wl[t])]
        xs.extend(x)
        us.extend(u)
        # the mode of step t + 1 is drawn before the guard, so a blow-up
        # records the mode it ends in
        th = bisect_right(cum[th], ul[t])
        modes.append(th)
        if not all(abs(v) <= guard for v in x):
            blow = t + 1
            break
    est.append(-1)
    return (np.array(xs).reshape(-1, n), np.array(us).reshape(-1, m),
            np.array(modes, dtype=np.int64), np.array(est), blow)


# ---------------------------------------------------------------------------
# coupled fixed-point solver for the jump-linear stabilizability equations

def _svd_pinv(S, rtol):
    # Moore-Penrose inverse of the nested m x m matrix S by SVD,
    # truncating singular values at or below rtol times the largest.
    # LAPACK may never return on a matrix holding inf, so none reaches
    # it: NaN raises, as the SVD does, and inf without NaN gives 0, what
    # LAPACK's NaN singular values truncate to where it does return
    m = len(S)
    S = np.array(S)
    pinv = np.zeros((m, m))
    if not np.isfinite(S).all():
        if np.isnan(S).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv.tolist()
    U, s, Vt = np.linalg.svd(S)
    if s[0] > 0.0:
        cut = rtol * s[0]
        for a in range(m):
            if s[a] > cut:
                pinv = pinv + (1.0 / s[a]) * np.outer(Vt[a], U[:, a])
    return pinv.tolist()


def _pinv1(x, rtol):
    """``_svd_pinv`` of the 1 x 1 matrix x in closed form: 1/x, but 0 at
    +-0 and +-inf (LAPACK's singular value of inf is NaN), and
    ``LinAlgError`` at NaN, as the SVD raises.  The bits are the SVD
    route's wherever LAPACK does not rescale (about 6.7e-139 <= |x| <=
    1.5e138); beyond, its singular value can be an ulp off |x| and the
    closed form stays the correctly rounded 1/x."""
    if x != x:
        raise np.linalg.LinAlgError("SVD did not converge")
    s = abs(x)
    return 1.0 / x if s > 0.0 and s > rtol * s else 0.0


def _pinv(S, rtol):
    # the pseudo-inverse of the nested m x m matrix S, in closed form at
    # m = 1
    if len(S) > 1:
        return _svd_pinv(S, rtol)
    return [[_pinv1(S[0][0], rtol)]]


def _mode_sums(At, Bt, Prow, Ms):
    # S_aa = sum_j A_j' p_ij M_j A_j, S_ab = ... B_j and S_bb = B_j' ... B_j
    # for the mode i whose row of P is Prow, from the transposes A_j' and
    # B_j'; each term in the order (A_j' (p M_j)) A_j, a row at a time, and
    # summed over j in order.  A row of A_j' (p M_j) dots a row of A_j'
    # with p M_j's columns, read here as its rows: that gives the same bits
    # because every iterate the solve feeds back is exactly symmetric (the
    # start is I, each iterate is 0.5 * (X_ab + X_ba) and IEEE addition
    # commutes) and finite (the solve stops at a NaN iterate and at one
    # beyond its divergence guard)
    n = len(At[0])
    m = len(Bt[0])
    S_aa = [[0.0] * n for _ in range(n)]
    S_ab = [[0.0] * m for _ in range(n)]
    S_bb = [[0.0] * m for _ in range(m)]
    for p, M, Aj, Bj in zip(Prow, Ms, At, Bt):
        pm = [[p * v for v in row] for row in M]
        # the rows of A_j' (p M_j) and of B_j' (p M_j)
        ra = [_row_dots(pm, row) for row in Aj]
        rb = [_row_dots(pm, row) for row in Bj]
        for S, rows, right in ((S_aa, ra, Aj), (S_ab, ra, Bj),
                               (S_bb, rb, Bj)):
            for Srow, row in zip(S, rows):
                Srow[:] = [s + d for s, d in zip(Srow, _row_dots(right, row))]
    return S_aa, S_ab, S_bb


def _riccati_map(At, Bt, P, Ms, rtol):
    # one iterate M_i <- S_aa - (S_ab S_bb^+) S_ab' + I, symmetrized, for
    # every mode; every product and sum keeps the order of the matrix
    # expression
    Mnew = []
    for Prow in P:
        S_aa, S_ab, S_bb = _mode_sums(At, Bt, Prow, Ms)
        cols = list(zip(*_pinv(S_bb, rtol)))  # the columns of S_bb^+
        G = [_row_dots(cols, row) for row in S_ab]
        X = [[s - d for s, d in zip(Srow, _row_dots(S_ab, Grow))]
             for Srow, Grow in zip(S_aa, G)]
        for a, row in enumerate(X):
            row[a] += 1.0
        Mnew.append([[0.5 * (x + y) for x, y in zip(row, col)]
                     for row, col in zip(X, zip(*X))])
    return Mnew


def _scalar_riccati_map(A, B, P, Ms, rtol):
    # _riccati_map at n = m = 1, on flat lists: the same products in the
    # same order.  Its one-term dots add x to 0.0, which changes x only at
    # -0.0, and each such term then goes into a sum that began at +0.0 and
    # so is never -0.0; adding or subtracting a zero of either sign leaves
    # such a sum as it is, so without the 0.0 + every bit stays the same
    Mnew = []
    for Prow in P:
        S_aa = S_ab = S_bb = 0.0
        for p, M, a, b in zip(Prow, Ms, A, B):
            pm = p * M
            row = a * pm
            S_aa += row * a
            S_ab += row * b
            S_bb += b * pm * b
        X = S_aa - S_ab * _pinv1(S_bb, rtol) * S_ab + 1.0
        Mnew.append(0.5 * (X + X))
    return Mnew


def riccati_solve(A, B, P, tol, max_iter, div_guard, svd_rtol):
    # lists of Python floats (see the module docstring): flat at
    # n = m = 1, else each mode's transposes and iterate as nested rows
    N, n = A.shape[:2]
    m = B.shape[2]
    scalar = n == m == 1
    P = P.tolist()
    At = A.transpose(0, 2, 1).tolist()
    Bt = B.transpose(0, 2, 1).tolist()
    if scalar:
        Af = A.ravel().tolist()
        Bf = B.ravel().tolist()
        Ms = old = [1.0] * N
    else:
        Ms = [np.eye(n).tolist()] * N
        old = [v for M in Ms for row in M for v in row]
    status = 2
    iters = max_iter
    delta = np.inf
    rises = 0  # consecutive iterations whose step delta grew
    for k in range(max_iter):
        prev = delta
        if scalar:
            Ms = new = _scalar_riccati_map(Af, Bf, P, Ms, svd_rtol)
        else:
            Ms = _riccati_map(At, Bt, P, Ms, svd_rtol)
            new = [v for M in Ms for row in M for v in row]
        delta = 0.0
        nrm = 0.0
        for v, w in zip(new, old):
            if v != v:
                # NaN comes from an overflow (inf - inf), and no norm
                # comparison would see it: count it as infinite
                v = np.inf
            d = abs(v - w)
            if d > delta:
                delta = d
            v = abs(v)
            if v > nrm:
                nrm = v
        old = new
        rises = rises + 1 if delta > prev else 0
        if nrm > div_guard:
            status = 1
            iters = k + 1
            break
        if delta < tol:
            status = 0
            iters = k + 1
            break
    if status == 2 and 0 < min(100, max_iter - 1) <= rises:
        # the step grew over each of the last min(100, max_iter - 1)
        # iterations: the iterate is moving away, not settling
        status = 1
    Ms = np.array(Ms).reshape((N, n, n))
    Ks = None
    if status == 0:
        # the gains K_i = S_bb^+ S_ab' of the final iterate.  An S_bb that
        # overflowed inverts to 0 and drops every input, which says
        # nothing about the exact map: the verdict is indeterminate
        Ml = Ms.tolist()
        Ks = []
        for Prow in P:
            _, S_ab, S_bb = _mode_sums(At, Bt, Prow, Ml)
            if not all(abs(v) < np.inf for row in S_bb for v in row):
                status = 2
                Ks = None
                break
            Ks.append([_row_dots(S_ab, row) for row in _pinv(S_bb, svd_rtol)])
        else:
            Ks = np.array(Ks)
    return Ms, status, iters, delta, Ks


def warm_up():
    """Nothing to prepare: the kernels are plain Python.  Kept only for
    its two callers, ``perfbench/run.py`` and ``perfbench/fresh_setup.py``."""
