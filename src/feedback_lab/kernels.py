"""Hot numeric kernels, one body each.

Every episode loop and the coupled fixed-point solver live here as plain
Python functions.  The episode kernels read their input arrays once as
lists (``.tolist()``), except the RLS kernel, which reads its noise in
place through a ``memoryview``: the same doubles, one at a time, with no
list of T floats built.  They keep states in Python lists of Python floats,
anchor stores in sorted key lists with one row per interval, and
nearest-neighbour histories in sorted blocks, each with a list of
first-visit steps beside it (see below), and build their numpy return
arrays once, when they return.  A list of floats becomes an array
through ``_array``: ``np.empty`` of its length, filled by one
``struct.pack_into`` of native doubles, which copies each float's bits
(signed zeros and NaN payloads too) and took half the time of
``np.fromiter`` (about 70 against 140 us for the 5 001 states of a
T 5 000 episode on a 2-vCPU x86_64 host), which in turn skips
``np.array``'s dtype discovery over the list.  A list read costs about a
third of a numpy-scalar read, and both follow IEEE double arithmetic, so
results are the same bits.  The one difference is overflow: ``x ** b``
raises ``OverflowError`` on Python floats where float64 gives inf.
``power_eval`` defines how a state is raised to a power: it never
raises, and returns what float64 arithmetic gives, so an overflowing
power reads +-inf and the divergence guard turns the state that follows
into a blow-up.  The RLS kernel inlines it, one branch per sign of the
state with the same operations (the call would cost about a sixth of a
step), and the model step operations that replay the kernel call it; a
Tier-1 test replays every kernel state through them bit for bit.

The small-matrix kernels, ``riccati_solve`` and ``mjls_episode``, read
their matrices once into lists of Python floats, where each numpy call
would cost more than the arithmetic, and form every matrix entry as one
dot (``_row_dots``, or its straight-line form in ``mjls_episode``): from
0.0, the left factor's row times the right factor's column, summed left
to right one addition at a time (builtin ``sum()`` over floats is
compensated from Python 3.12 on).  From n = 2
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
not return on one).  The iteration is generated once per shape from one
template (``_riccati_loop``), in the way ``mjls_episode``'s loop is (see
below), and compiled on first use under the name
``<riccati_solve N=.. n=.. m=..>``: the rules around the map (NaN counts
as inf in the step and the norm, the divergence guard, the tolerance and
the rising-step verdict at the cap) are written once, in the template,
as straight-line statements over every iterate entry.  At n = m = 1 the
map itself is straight-line code on local floats with the same products
in the same order, ``_pinv1``'s rules inline; every other shape calls
the dots (``_riccati_map``).  Over criterion 6's 400 two-mode solves
the generated loop took about half the time of the loop over lists it
replaced (38 against 74 ms on a 2-vCPU x86_64 host).
On convergence it returns, as a fifth element, the gains
K_i = S_bb^+ S_ab' of the final iterate, from the same sums and
pseudo-inverse (None otherwise), formed in the generated code as well:
one straight-line pass at n = m = 1, ``_riccati_gains`` at every other
shape.  Where a converged iterate's S_bb holds
a non-finite entry, its pseudo-inverse drops the overflowed inputs
whatever the exact map does, so the verdict turns indeterminate and no
gains are returned.  ``mjls_episode`` computes each mode's
prediction ``A_i x + B_i u`` once per step, one dot over the row
``[A_i | B_i]`` and ``(x, u)``; the true step adds the noise to the
current mode's, the next step's mode estimate reads the same
predictions, and ``mjls_step`` (replay) takes the same dot.  The mode
of each step is drawn before the guard check, so a blown-up trajectory
records the mode its last step landed in.  States and inputs go into
flat ``array('d')`` buffers.  The loop is generated once
per shape (N modes, n states, m inputs) from one template
(``_mjls_loop``) and compiled on first use: every entry of [A_i | B_i]
and of the scheduled gain is a local variable, and every dot, residual,
the guard and the mode draw is a straight-line statement: the nested
``zip`` loops it replaced took about 3.5 times as long over the
benchmark's 3 x 3 x 3 episodes.

A spec's exact zeros and ones shape the loop too: each call marks every
[A_i | B_i] entry (the pattern), and the loop, compiled once per shape
and pattern, leaves out a prediction term whose coefficient is exactly
+-0 and takes one whose coefficient is exactly 1 as its factor alone.
Neither moves a bit.  Every dot starts from 0.0 +, so a running sum is
never -0.0 (an IEEE sum is -0.0 only when both addends are), and adding
a zero of either sign leaves such a sum as it is; a finite factor times
+-0 is a zero, and u * 1.0 is u for every u.  Every state a prediction
reads is the start or passed the guard, so zero state terms go when
every start entry and the guard are finite.  Every input is then finite
when every gain entry is and n * max(guard, max|x0|) * max|K| < max
double / 2, and zero input terms go only then; otherwise they stay, as
an infinite input times 0 is NaN, which leaving the term out would
lose.  Finiteness is tested entry by entry, since ``max`` over a list
holding NaN depends on its order.  Over the benchmark's spec, where 39
of the 54 coefficients are 0 or 1 (B_i = I, four zeros in each A_i), a
call took about a fifth less time per step (2 950 against 2 330 ns over
twenty T 2 000 episodes on a 2-vCPU x86_64 host).  The source holds only
names built from N, n, m and the pattern, never an input value.  It is
compiled under the name ``<mjls_episode N=.. n=.. m=..>``, or
``<mjls_episode N=.. n=.. m=.. pattern=..>`` where the pattern holds a 0
or a 1, and registered in ``linecache`` (``_compile``, which
``_riccati_loop`` and the history visit use as well), so tracebacks,
profiles and ``inspect`` show its lines; replay still runs ``_row_dots``
over every term and so checks the generated code independently.

A NaN's sign and payload are outside the reproducibility contract: where
a step adds two NaNs of opposite sign, CPython may return either one,
depending on whether it has specialized the addition, so a direct call
of ``mjls_episode`` from a NaN start can return NaNs of either sign.
``run_episode`` starts a jump-linear episode only from a finite state,
and ``check_replay`` compares a NaN as NaN, whatever its bits.

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
store, ``_envelope`` the envelope's side of it, in ``_cone``'s order
(``mcshane_eval`` locates x's row and reads it there), and ``zoh_flow``
integrates the flow over the rows in closed form, one linear piece at a
time.  An exact anchor hit returns the stored value,
so replaying a stored trajectory through the same anchors is
reproducible to the last bit.  A realization builds its table once
(``anchor_table``), with an envelope in every row; the duels start from
the one free row of an empty store and grow it.  ``interval`` reads the
reference adversary's sorted keys and value dict instead, building the
one row it needs.

An anchor store is one flat key list and its rows, since ``zoh_flow``
walks the rows by index and the store stays small in every workload
(50 anchors over both sampled duels of the benchmark).  A
commit (``_insert``) inserts the key and splits its row into two that
keep the row's envelope, and a flow that closes a free interval rewrites
its row.  A nearest-neighbour history (``_visit``) keeps the distinct
past states in sorted blocks of at most 2 * ``_LOAD`` keys, with each
block's last key alongside (the layout of Grant Jenks's
SortedContainers), so a commit moves the tail of one block, not of a
list of 10^4 keys (criterion 4's episodes).  Beside each block a
list holds the step of each key's first visit, in the block's order, so
a visit reads its nearest key's step by the index it found the key at,
and an insert or a split moves keys and steps together; no state is
hashed.  A dict from state to step cost two hashes of a float per
visit: reading by index cut the traced ``nonparam_fixed`` time per step
by about 15 % (1.79 to 1.52 us on a 2-vCPU x86_64 host).  A commit at a key already stored keeps the first value: among
equal computed distances the smallest step wins, and a repeat of a state
can never beat its first visit.  Keys compare as floats, so a +0.0 visit
finds a stored -0.0 and keeps it and its value.  A NaN key equals no key
and sorts after every key, so a NaN commit appends (to a history's last
block, its step to that block's step list); the rows either side hold
the NaN object itself, so reads through the key list get its value back.

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

Each pair of kernels, fixed and duel, runs one loop, the duel's
(``_nonparam_episode``, ``_sampled_episode``): it commits only where the
state's row has no envelope, so over a realization's table, where every
row has one, it commits and closes nothing.  The nonparametric loop
locates the state once, reads a fixed row through ``_envelope``, and
holds the switching law and the history visit in its body, with no call
and no tuple per step.  The visit is written once, as the source
fragment ``_VISIT``, and compiled at import both into ``_visit`` and into
the loop (``_NONPARAM_LOOP``), each in this module's namespace and
registered in ``linecache`` under ``<_visit>`` and
``<_nonparam_episode>``; the sampled loop calls ``_visit``.  The
nonparametric step took about 10 % less than one that made those two
calls, over random members and duels on a 2-vCPU x86_64 host.  The
sampled loop locates each sample once: it hands the flow (``_flow``,
``zoh_flow``'s body) the index it found and the rate v + u it formed,
which is ``zoh_flow``'s f(x) + u there, so a period bisects and takes a
cone once, not twice.  No anchor ever lands inside a swept interval, so
a replay through the final store evaluates every piece from the same
two anchors and envelope as the run did.  Classical RK4 over full
anchor scans, the reference route in ``tests/test_models.py``, agrees
with the flow to 1.1e-8 relative at 4 096 substeps and to 5.8e-5 at 64.

The episode kernels return arrays of the entries their episode produced:
T + 1 states and T inputs, or blow + 1 and blow where the guard tripped
at step blow; ``mjls_episode``'s mode estimates, one per state, start
and end in -1 (no estimate).  The duel kernels also return their store
as sorted key and value arrays and its size.

``tests/test_kernels.py`` checks each kernel against a reference route
that does not share its body: full-cone scans, the linear-scan
controllers, replay, the reference adversary, ``riccati.riccati_rhs``,
and the matrix-product route the jump-linear episode replaced.
"""

import functools
import linecache
import math
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

_INF = float("inf")
_NEG_INF = -_INF
_MAX = sys.float_info.max
# a nearest-neighbour history block splits in halves beyond 2 * _LOAD keys
_LOAD = 128
# the one row of an empty store: no anchors, f free everywhere
_FREE = (None, None, None, None, None)


# ---------------------------------------------------------------------------
# generated code: templates filled and compiled

def _tuple(names):
    # a tuple display that stays a tuple at one element
    return "(" + ", ".join(names) + ",)"


def _block(lines, depth):
    return "\n".join(" " * depth + line for line in lines)


def _compile(name, src, scope):
    # src executed in scope under name, its lines registered so that
    # tracebacks, profiles and inspect show them; returns the scope
    linecache.cache[name] = (len(src), None, src.splitlines(True), name)
    exec(compile(src, name, "exec"), scope)
    return scope


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


def _envelope(row, L, x):
    # the envelope value at x of x's row: the upper or the lower, as the
    # row takes, from its two anchors in _cone's arithmetic and order
    left, vl, right, vr, lower = row
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


def mcshane_eval(keys, rows, L, x):
    """Envelope value at x of the function whose sorted keys and rows are
    given: the upper envelope or the lower, as x's row takes
    (``_envelope``)."""
    return _envelope(rows[bisect_left(keys, x) if x == x else len(keys)],
                     L, x)


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


# The history visit, written once and compiled into ``_visit`` and into the
# nonparametric loop (``_NONPARAM_LOOP``), which takes it with no call and
# no tuple per step.  It looks up the stored state nearest to x, sets k to
# that state's step (-1 for an empty history, and for NaN, which no key is
# nearest) and best to its distance, then records x at step t.  It reads
# the history ``blocks``, ``maxes`` and ``steps``: the distinct past states
# in sorted blocks of at most ``split`` = 2 * ``_LOAD`` keys, in order,
# each block's last key, and beside each block a list of the same length
# whose entry i is the step of the first visit to the block's key i.
# Computed distances grow monotonically away from the insertion point on
# either side, so the entries tied at the minimum form one run on each
# side of it, which may cross block edges; the smallest step among them
# wins.  Where one neighbour is strictly nearer and the key beyond it, in
# x's block or absent, strictly farther, that neighbour is the run (the
# direct path); NaN and every tie go through the scan (``_tie_scan``).
# The joined blocks are the flat sorted list ``_bisect`` and ``_insert``
# would keep, NaN last.  Both compiled functions read ``_LOAD`` and
# ``_tie_scan`` from this module when they run
_VISIT = """\
if not blocks:
    blocks.append([x])
    maxes.append(x)
    steps.append([t])
    k = -1
    best = _INF
else:
    # the first block whose last key is >= x, else the end of the last
    b = bisect_left(maxes, x) if x == x else len(maxes)
    if b == len(maxes):
        b -= 1
        blk = blocks[b]
        i = len(blk)
    else:
        blk = blocks[b]
        i = bisect_left(blk, x)
    stp = steps[b]
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
        k = stp[i]
    elif dl < dr and (x - blk[i - 2] > dl if i > 1 else i == 1 and not b):
        best = dl
        k = stp[i - 1]
    else:
        best = dr if dr < dl else dl
        k = _tie_scan(blocks, steps, b, i, x, best)
    if i == n or blk[i] != x:
        # a revisit keeps the first key and its step
        blk.insert(i, x)
        stp.insert(i, t)
        if i == n:
            maxes[b] = x
        if n >= split:
            h = (n + 1) >> 1
            blocks.insert(b + 1, blk[h:])
            steps.insert(b + 1, stp[h:])
            del blk[h:]
            del stp[h:]
            maxes.insert(b, blk[-1])"""

_VISIT_FN = """\
def _visit(hist, x, t):
    \"\"\"(k, best) of x's visit at step t to hist (``_VISIT``)\"\"\"
    blocks, maxes, steps = hist
    split = 2 * _LOAD
{visit}
    return k, best
"""

_visit = _compile("<_visit>", _VISIT_FN.format(
    visit=_block(_VISIT.splitlines(), 4)), globals())["_visit"]


def _tie_scan(blocks, steps, b, i, x, best):
    # the smallest step over the keys at distance best: the runs left of
    # x's index i in block b and from it on, across block edges
    k = -1
    c, row, stp, r = b, blocks[b], steps[b], i
    while True:
        if not r:
            if not c:
                break
            c -= 1
            row = blocks[c]
            stp = steps[c]
            r = len(row)
        r -= 1
        if x - row[r] != best:
            break
        s = stp[r]
        if k < 0 or s < k:
            k = s
    c, row, stp, r = b, blocks[b], steps[b], i
    while True:
        if r == len(row):
            c += 1
            if c == len(blocks):
                break
            row = blocks[c]
            stp = steps[c]
            r = 0
        if row[r] - x != best:
            break
        s = stp[r]
        if k < 0 or s < k:
            k = s
        r += 1
    return k


def _ce_input(xs, us, hist, k, x, L, c, h, kappa):
    # certainty equivalence on the nearest past sample, clipped to
    # |u| <= kappa (L|x| + c); x is recorded in the history
    i, _ = _visit(hist, x, k)
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


def _array(xs):
    # a list of Python floats as a float64 array, packed in one call (see
    # the module docstring)
    n = len(xs)
    a = np.empty(n)
    struct.pack_into(f"{n}d", a, 0, *xs)
    return a


def _arrays(keys, rows):
    # a store's keys and values as float64 arrays in sorted order: each
    # key's value is its row's right one
    return _array(keys), _array([row[3] for row in rows[:-1]])


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
    ys_append = ys.append
    us_append = us.append
    lo = -guard
    blow = -1
    # the noise read in place: the same doubles as w[1:].tolist(), with no
    # list built
    for wt in memoryview(w)[1:]:
        # power_eval(M, b, y) inlined, one branch per sign of y: the call
        # alone would cost about a sixth of the step
        try:
            if y > 0.0:
                phi = M * y**b
            elif y < 0.0:
                phi = -(M * (-y)**b)
            else:
                phi = 0.0  # 0 and NaN
        except OverflowError:
            phi = M * _INF if y > 0.0 else -(M * _INF)
        u = -th * phi
        y1 = theta * phi + u + wt
        us_append(u)
        ys_append(y1)
        if not lo <= y1 <= guard:
            # also true for NaN
            blow = len(us)
            break
        # y1 is finite, so th * phi is too, and it is exactly -u
        s = s + phi * phi
        th = th + phi * ((y1 - u) + u) / s
        y = y1
    return _array(ys), _array(us), blow


# ---------------------------------------------------------------------------
# nonparametric episodes: the switching nearest-neighbour controller against
# a fixed realized f, or against the greedy opponent, which commits an anchor
# at every state where f is still free

# the loop of nonparam_fixed and nonparam_duel, with the visit (``_VISIT``)
# in its body.  f is fixed where x's row holds an envelope, so over a
# realization's table, where every row does, the loop commits nothing; ws
# and vsc hold the noise and the value of each step that committed (every
# step of a duel).  The switching law estimates fhat = x_{k+1} - u_k from
# the nearest past state k, centres the observed range far from every past
# output and tracks 0 close to one (0.0 - fhat, which is +0.0 where -fhat
# is -0.0).  The observed range is the history's first and last key once
# x is recorded, since a revisit keeps the first key, as a running minimum
# and maximum do
_NONPARAM_LOOP = """\
def _nonparam_episode(x, keys, rows, L, noise, w_bar, budget_c, eps, guard,
                      T):
    \"\"\"states, inputs, noises, values committed and the blow step\"\"\"
    split = 2 * _LOAD
    ys = [x]
    us = []
    ws = [0.0]
    vsc = []
    ys_append = ys.append
    us_append = us.append
    ws_append = ws.append
    vsc_append = vsc.append
    blocks = []
    maxes = []
    steps = []
    lo_guard = -guard
    blow = -1
    for t in range(T):
{visit}
        if k < 0:
            u = 0.0  # the first step, or x is NaN, which no key is nearest
        elif best > eps:
            u = -(ys[k + 1] - us[k]) + 0.5 * (blocks[0][0] + maxes[-1])
        else:
            u = 0.0 - (ys[k + 1] - us[k])
        j = bisect_left(keys, x) if x == x else len(keys)
        row = rows[j]
        if row[4] is None:
            # the opponent's greedy pick from the values consistent with
            # the store: its budget cone while the store is empty
            if keys:
                lo, hi = _cone(row, L, x)
            else:
                hi = L * abs(x) + budget_c
                lo = -hi
            v = hi if abs(hi + u) >= abs(lo + u) else lo
            # a value past double range commits at its edge, as
            # ``adversary.adversary_choose`` does, so the store stays finite
            if not -_MAX <= v <= _MAX:
                v = math.copysign(_MAX, v)
            w = w_bar if (v + u) >= 0.0 else -w_bar
            _insert(keys, rows, j, x, v)
            ws_append(w)
            vsc_append(v)
        else:
            v = _envelope(row, L, x)
            w = w_bar * noise[t + 1]
        x1 = v + u + w
        us_append(u)
        ys_append(x1)
        if not lo_guard <= x1 <= guard:
            # also true for NaN
            blow = t + 1
            break
        x = x1
    return ys, us, ws, vsc, blow
"""

_nonparam_episode = _compile("<_nonparam_episode>", _NONPARAM_LOOP.format(
    visit=_block(_VISIT.splitlines(), 8)), globals())["_nonparam_episode"]


def nonparam_fixed(y0, fkeys, frows, L, ws, w_bar, eps, guard):
    # a realization has no free row, so no budget cone is read (0.0)
    ys, us, _, _, blow = _nonparam_episode(
        float(y0), fkeys, frows, L, ws.tolist(), w_bar, 0.0, eps, guard,
        ws.shape[0] - 1)
    return _array(ys), _array(us), blow


def nonparam_duel(y0, L, w_bar, budget_c, eps, guard, T):
    keys = []
    rows = [_FREE]
    ys, us, ws, vsc, blow = _nonparam_episode(
        float(y0), keys, rows, L, None, w_bar, budget_c, eps, guard, T)
    return (_array(ys), _array(us), _array(ws), _array(vsc),
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
    a replay through the final store gets the same bits; where that
    value is past double range, the whole tail closes instead.
    """
    j = _bisect(keys, x)
    row = rows[j]
    lo, hi = _cone(row, L, x)
    return _flow(keys, rows, L, j, x, u, (lo if row[4] == 1 else hi) + u, h)


def _flow(keys, rows, L, j, x, u, g, h):
    # zoh_flow from x's located index j and the rate g = f(x) + u there,
    # which the sampled loop has at hand
    if not (g > 0.0 or g < 0.0):
        # at rest, or NaN: a NaN state stays as it is, and an f(x) + u
        # past double range (inf - inf) has no flow, so the state reads NaN
        return g if g != g and x == x else x
    s = 1.0 if g > 0.0 else -1.0
    if s > 0.0 and rows[j][2] == x:
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
        # of the split); the new tail beyond stays free.  Where the value
        # at the endpoint lies past double range, so does every value
        # beyond it: the whole tail closes, and no anchor is committed
        # there, since one at +-max would bend the envelope the flow took
        v = q0 + eL * ((x_end - p0) * s)
        if -_MAX <= v <= _MAX:
            _insert(keys, rows, j, x_end, v)
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
    hist = ([], [], [])
    blow = -1
    for k in range(n_samples):
        u = 0.0
        if use_controller != 0:
            u = _ce_input(xs, us, hist, k, x, L, c, h, kappa)
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
            # a value past double range commits at its edge, as in
            # ``nonparam_duel``, so the store stays finite
            if not -_MAX <= v <= _MAX:
                v = math.copysign(_MAX, v)
            _insert(keys, rows, j, x, v)
        # the flow from x's index j at zoh_flow's rate v + u: a fixed v is
        # the envelope's side of x's cone, and a commit leaves row j ending
        # at x, where the cone is v alone.  A NaN state has no flow, and the
        # clip would give it a rate, so it passes its NaN
        x1 = _flow(keys, rows, L, j, x, u, v + u if x == x else x, h)
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
    return _array(xs), _array(us), blow


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
    return (_array(xs), _array(us), _array(vsc), *_arrays(keys, rows),
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


# the loop of mjls_episode for one shape; the fields are filled with names
# built from the shape alone (``_mjls_loop``)
_MJLS_LOOP = """\
def mjls_loop(ab, gain, sched, cum, Wl, ul, x, th, guard):
    \"\"\"mjls_episode for {shape}: modes, states, inputs\"\"\"
    {ab} = ab
    {x} = x
    xs = array("d", x)
    us = array("d")
    modes = [th]
    est = [-1]
    xs_extend = xs.extend
    us_extend = us.extend
    modes_append = modes.append
    est_append = est.append
    blow = -1
    for t, ({w}, v) in enumerate(zip(Wl, ul)):
        if t:
            # residuals against the predictions made one step earlier
            best = _INF
            bi = 0
{residuals}
            est_append(bi)
            gain = sched[bi]
        {k} = gain
{dots}
        {x} = {preds}[th]
{noise}
        xs_extend({x})
        us_extend({u})
        # the mode of step t + 1 is drawn before the guard, so a blow-up
        # records the mode it ends in
        th = bisect_right(cum[th], v)
        modes_append(th)
        if not ({inside}):
            blow = t + 1
            break
    est_append(-1)
    return xs, us, modes, est, blow
"""


def _dot(target, factors, coefs, pattern=None):
    # a dot as one statement per term, from 0.0 and left to right: a
    # single expression of a few hundred terms would exceed the parser's
    # nesting limit or the compiler's recursion limit.  A pattern marks
    # each coefficient: "0" leaves its term out, "1" takes the factor
    # alone, "." the product (see the module docstring)
    pattern = pattern or "." * len(coefs)
    products = [a if p == "1" else f"{a} * {b}"
                for a, b, p in zip(factors, coefs, pattern) if p != "0"]
    if not products:
        return [f"{target} = 0.0"]
    first, *rest = products
    return [f"{target} = 0.0 + {first}"] + [
        f"{target} = {target} + {p}" for p in rest]


@functools.cache
def _mjls_loop(N, n, m, pattern=None):
    """``mjls_episode``'s loop for N modes, n states and m inputs:
    ``_MJLS_LOOP`` filled with names built from those three integers
    alone, compiled once per shape and pattern.  A pattern holds one
    character per [A_i | B_i] entry, mode by mode and row by row: "0"
    leaves its prediction term out, "1" takes the term's factor alone,
    "." keeps the product; without one every product stays."""
    xv = [f"x{k}" for k in range(n)]
    uv = [f"u{j}" for j in range(m)]
    wv = [f"w{k}" for k in range(n)]
    pv = [[f"p{i}_{k}" for k in range(n)] for i in range(N)]
    kv = [[f"k{j}_{k}" for k in range(n)] for j in range(m)]
    ab = [[[f"a{i}_{k}_{c}" for c in range(n + m)] for k in range(n)]
          for i in range(N)]
    residuals = []
    for i in range(N):
        # mode i's squared residual against its prediction one step back
        for k in range(n):
            residuals += [f"d = {xv[k]} - {pv[i][k]}",
                          "s = s + d * d" if k else "s = 0.0 + d * d"]
        residuals += ["if s < best:", "    best = s", f"    bi = {i}"]
    dots = []
    for j in range(m):
        dots += _dot(uv[j], xv, kv[j]) + [f"{uv[j]} = -{uv[j]}"]
    for i in range(N):
        for k in range(n):
            row = (i * n + k) * (n + m)
            dots += _dot(pv[i][k], xv + uv, ab[i][k],
                         pattern and pattern[row:row + n + m])
    shape = f"N={N} n={n} m={m}"
    if pattern:
        shape += f" pattern={pattern}"
    src = _MJLS_LOOP.format(
        shape=shape, ab=_tuple(v for M in ab for row in M for v in row),
        x=_tuple(xv), u=_tuple(uv), w=_tuple(wv), k=_tuple(sum(kv, [])),
        preds=_tuple(map(_tuple, pv)), residuals=_block(residuals, 12),
        dots=_block(dots, 8),
        noise=_block([f"{x} = {x} + {w}" for x, w in zip(xv, wv)], 8),
        inside=" and ".join(f"abs({x}) <= guard" for x in xv))
    return _compile(f"<mjls_episode {shape}>", src, {
        "array": array, "bisect_right": bisect_right,
        "_INF": _INF})["mjls_loop"]


def mjls_episode(A, B, Kg, P, x0, mode0, munif, W, guard):
    N, n = A.shape[:2]
    m = B.shape[2]
    # each mode's rows [A_i | B_i], and each mode's gain, flat
    ab = [v for Ai, Bi in zip(A.tolist(), B.tolist())
          for a, b in zip(Ai, Bi) for v in a + b]
    gains = [[v for row in Ki for v in row] for Ki in Kg.tolist()]
    # most likely successor (the first maximum) of each mode, whose gain
    # an estimate of that mode schedules, and the running-sum rows the
    # mode draw bisects, each ending in inf: a draw at or past a row's
    # rounded total lands on the last mode
    sched = [gains[row.index(max(row))] for row in P.tolist()]
    cum = [list(accumulate(row[:-1])) + [_INF] for row in P.tolist()]
    x = x0.tolist()
    # the products the loop may leave out (see the module docstring): an
    # exact 1 always, an exact 0 times a state where every state it reads
    # is finite, and times an input where every input is too
    flat = [v for g in gains for v in g]
    xfin = guard < _INF and all(abs(v) < _INF for v in x)
    ufin = (xfin and all(abs(v) < _INF for v in flat)
            and n * max(guard, *map(abs, x)) * max(map(abs, flat))
            < 0.5 * _MAX)
    pattern = "".join(
        "1" if v == 1.0 else
        "0" if v == 0.0 and (xfin if c % (n + m) < n else ufin) else "."
        for c, v in enumerate(ab))
    if not pattern.strip("."):
        pattern = None  # every product stays
    xs, us, modes, est, blow = _mjls_loop(N, n, m, pattern)(
        ab, gains[0], sched, cum, W.tolist(), munif.tolist(), x, mode0,
        guard)
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


# the iteration of riccati_solve for one shape; the fields are filled with
# names built from the shape alone (``_riccati_loop``).  ``Ms`` is the
# start iterate as nested (N, n, n) lists; the last iterate returns flat,
# and the gains as nested (N, m, n) lists
_RICCATI_LOOP = """\
def riccati_loop(At, Bt, P, Ms, tol, max_iter, div_guard, rtol):
    \"\"\"riccati_solve for {shape}: iterate, status, iterations, step,
    gains\"\"\"
{load}
    status = 2
    iters = max_iter
    delta = _INF
    rises = 0  # consecutive iterations whose step delta grew
    for k in range(max_iter):
        prev = delta
{map}
        delta = 0.0
        nrm = 0.0
{steps}
        {old} = {new}
        if delta > prev:
            rises += 1
        else:
            rises = 0
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
    Ks = None
    if status == 0:
{gains}
    return {old}, status, iters, delta, Ks
"""

# one entry's share of the step and the norm.  NaN comes from an overflow
# (inf - inf), and no norm comparison would see it: it counts as inf
_RICCATI_STEP = """\
v = {new}
if v != v:
    v = _INF
d = abs(v - {old})
if d > delta:
    delta = d
v = abs(v)
if v > nrm:
    nrm = v"""


def _scalar_sums(N, i, saa, sab, sbb):
    # mode i's S_aa, S_ab and S_bb at n = m = 1 into the names given (no
    # S_aa where saa is None), from the iterate m{j}_0_0: _mode_sums's
    # products in its order
    lines = []
    for j in range(N):
        acc = ("{0} = 0.0 + " if j == 0 else "{0} = {0} + ").format
        a, b = f"a{j}_0_0", f"b{j}_0_0"
        lines += [f"pm = p{i}_{j} * m{j}_0_0", f"row = {a} * pm"]
        if saa:
            lines.append(acc(saa) + f"row * {a}")
        lines += [acc(sab) + f"row * {b}", acc(sbb) + f"{b} * pm * {b}"]
    return lines


def _scalar_map(N):
    # _riccati_map at n = m = 1 on local floats: the same products in the
    # same order, every mode from the previous iterate, and _pinv1 inline.
    # Its one-term dots add x to 0.0, which changes x only at -0.0, and
    # each such term then goes into a sum that began at +0.0 and so is
    # never -0.0; adding or subtracting a zero of either sign leaves such
    # a sum as it is, so without the 0.0 + every bit stays the same
    lines = []
    for i in range(N):
        lines += _scalar_sums(N, i, "saa", "sab", "sbb")
        lines += ["if sbb != sbb:",
                  '    raise LinAlgError("SVD did not converge")',
                  "s = abs(sbb)",
                  "pinv = 1.0 / sbb if s > 0.0 and s > rtol * s else 0.0",
                  "X = saa - sab * pinv * sab + 1.0",
                  f"x{i}_0_0 = 0.5 * (X + X)"]
    return lines


def _scalar_gains(N):
    # _riccati_gains at n = m = 1 on the final iterate: the same sums,
    # _pinv1's rules inline and K_i = 0.0 + pinv * S_ab, _row_dots's
    # one-term dot.  Every S_bb is finite here, or the verdict turns
    # indeterminate, so none raises
    lines = []
    for i in range(N):
        lines += _scalar_sums(N, i, None, f"sab{i}", f"sbb{i}")
    lines.append("if " + " and ".join(f"abs(sbb{i}) < _INF"
                                      for i in range(N)) + ":")
    for i in range(N):
        lines += [f"    s = abs(sbb{i})",
                  f"    pinv = 1.0 / sbb{i} if s > 0.0 and s > rtol * s "
                  "else 0.0",
                  f"    k{i} = 0.0 + pinv * sab{i}"]
    return lines + ["    Ks = [" + ", ".join(f"[[k{i}]]" for i in range(N))
                    + "]", "else:", "    status = 2"]


def _riccati_gains(At, Bt, P, Ms, rtol):
    # the gains K_i = S_bb^+ S_ab' of the iterate Ms, nested; None where
    # an S_bb holds a non-finite entry.  Such an S_bb inverts to 0 and
    # drops every input, which says nothing about the exact map
    Ks = []
    for Prow in P:
        _, S_ab, S_bb = _mode_sums(At, Bt, Prow, Ms)
        if not all(abs(v) < _INF for row in S_bb for v in row):
            return None
        Ks.append([_row_dots(S_ab, row) for row in _pinv(S_bb, rtol)])
    return Ks


@functools.cache
def _riccati_loop(N, n, m):
    """``riccati_solve``'s iteration for N modes, n states and m inputs:
    ``_RICCATI_LOOP`` filled with names built from those three integers
    alone, compiled once per shape.  At n = m = 1 the map and the gains
    are straight-line code on local floats; at every other shape they are
    ``_riccati_map`` and ``_riccati_gains``."""
    def nested(prefix):
        # N n x n matrices as a nested target
        return _tuple(_tuple(_tuple(f"{prefix}{i}_{r}_{c}" for c in range(n))
                             for r in range(n)) for i in range(N))

    old = [f"m{i}_{r}_{c}" for i in range(N) for r in range(n)
           for c in range(n)]
    new = ["x" + v[1:] for v in old]
    load = [nested("m") + " = Ms"]
    if n == m == 1:
        load += [nested("a") + " = At", nested("b") + " = Bt",
                 _tuple(_tuple(f"p{i}_{j}" for j in range(N))
                        for i in range(N)) + " = P"]
        body = _scalar_map(N)
        gains = _scalar_gains(N)
    else:
        body = ["Ms = _riccati_map(At, Bt, P, Ms, rtol)", nested("x") + " = Ms"]
        # at convergence Ms is the final iterate
        gains = ["Ks = _riccati_gains(At, Bt, P, Ms, rtol)",
                 "if Ks is None:", "    status = 2"]
    steps = [line for x, v in zip(new, old)
             for line in _RICCATI_STEP.format(new=x, old=v).splitlines()]
    shape = f"N={N} n={n} m={m}"
    src = _RICCATI_LOOP.format(
        shape=shape, load=_block(load, 4), map=_block(body, 8),
        steps=_block(steps, 8), gains=_block(gains, 8), old=_tuple(old),
        new=_tuple(new))
    return _compile(f"<riccati_solve {shape}>", src, {
        "_INF": _INF, "LinAlgError": np.linalg.LinAlgError,
        "_riccati_map": _riccati_map,
        "_riccati_gains": _riccati_gains})["riccati_loop"]


def riccati_solve(A, B, P, tol, max_iter, div_guard, svd_rtol):
    # each mode's transposes and iterate as nested rows of Python floats
    # (see the module docstring), iterated from I by the shape's loop
    N, n = A.shape[:2]
    m = B.shape[2]
    P = P.tolist()
    At = A.transpose(0, 2, 1).tolist()
    Bt = B.transpose(0, 2, 1).tolist()
    Ms, status, iters, delta, Ks = _riccati_loop(N, n, m)(
        At, Bt, P, [np.eye(n).tolist()] * N, tol, max_iter, div_guard,
        svd_rtol)
    return (np.array(Ms).reshape((N, n, n)), status, iters, delta,
            None if Ks is None else np.array(Ks))


def warm_up():
    """Nothing to prepare: the kernels are plain Python.  Kept only for
    its two callers, ``perfbench/run.py`` and ``perfbench/fresh_setup.py``."""
