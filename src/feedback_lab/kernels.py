"""Hot numeric kernels, one body each.

Every episode loop and the coupled fixed-point solver live here as plain
functions over float64 arrays.  Each is written once, inside numba's
nopython subset (scalar loops, 1-D/2-D slices, ``np.searchsorted`` on
the jump-linear transition rows, and 2-D ``@``), and compiled with
``@njit`` when numba imports (see ``_accel``); otherwise the same body
runs as Python over numpy arrays.

Conventions: noise arrays have length T+1 with slot 0 unused, Markov
modes are 0-based inside kernels, blowup is reported as the 1-based step
index at which the guard tripped (-1 means the horizon was reached).

Piecewise-linear functions are passed as anchor arrays ``(xs, vs)``
holding ``n`` sorted, distinct abscissas with slope budget L; extension
mode 0 evaluates the upper envelope ``min_i(v_i + L|x - x_i|)``, mode 1
the lower envelope ``max_i(v_i - L|x - x_i|)``, mode 2 their midpoint.
For L-consistent anchors both envelopes at x are fixed by the two
anchors either side of x (McShane 1934), so evaluation reads only those
two.  An exact anchor hit returns the stored value, so replaying a
stored trajectory through the same anchors is reproducible to the last
bit.

Anchor stores (``_insert``) and nearest-neighbour histories (``_visit``)
grow by sorted insertion.  A history keeps each distinct past state
once, with the step of its first visit: among equal computed distances
the smallest step wins, and a repeat of a state can never beat its first
visit.

Every store access finds x's index once and uses it for both the lookup
and the insertion: the index j of the first key >= x (n if none, and n
for NaN), which is what ``np.searchsorted(xs[:n], x)`` returns.  It is
the one j with ``(j == 0 or xs[j-1] < x) and (j == n or xs[j] >= x)``
(the bracket invariant).  Successive RK4 stages, and successive steps
over a fixed function, mostly land in the bracket of the access before,
so ``_locate`` checks that guess and its right neighbour before falling
back to a scalar-loop bisection (``_bisect``); histories, fed random
states, bisect at once.  The invariant fixes the index whatever the
guess, and the cone arithmetic at it (``_cone``) is the same as without
a guess, so trajectories, stores and reports do not depend on how the
index was found.
"""

import numpy as np

from ._accel import njit_compile

EXT_UPPER = 0
EXT_LOWER = 1
EXT_MIDPOINT = 2


# ---------------------------------------------------------------------------
# scalar helpers and sorted stores

@njit_compile
def power_eval(M, b, y):
    # odd extension M*sign(y)*|y|^b; value 0 at y=0 for every b >= 0
    if y > 0.0:
        return M * y**b
    if y < 0.0:
        return -(M * (-y) ** b)
    return 0.0


@njit_compile
def _bisect(xs, n, x):
    """The index ``np.searchsorted(xs[:n], x)`` returns: the first i < n
    with xs[i] >= x, else n; NaN sorts after every key."""
    if x != x:
        return n
    lo = 0
    hi = n
    while lo < hi:
        mid = (lo + hi) >> 1
        if xs[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit_compile
def _locate(xs, n, x, j):
    """``_bisect(xs, n, x)``, trying the guess j and then j + 1 first.

    A guess is taken only where it brackets x, which fixes the index
    uniquely, so the result does not depend on the guess.
    """
    if 0 <= j <= n and (j == 0 or xs[j - 1] < x) and (j == n or xs[j] >= x):
        return j
    j += 1
    if 0 <= j <= n and (j == 0 or xs[j - 1] < x) and (j == n or xs[j] >= x):
        return j
    return _bisect(xs, n, x)


@njit_compile
def _cone(xs, vs, n, L, x, j):
    # the interval at x from the anchors either side of its index j
    if j < n and xs[j] == x:
        return vs[j], vs[j]
    lo = -np.inf
    hi = np.inf
    if j > 0:
        d = x - xs[j - 1]
        lo = vs[j - 1] - L * d
        hi = vs[j - 1] + L * d
    if j < n:
        d = xs[j] - x
        a = vs[j] - L * d
        c = vs[j] + L * d
        if a > lo:
            lo = a
        if c < hi:
            hi = c
    return lo, hi


@njit_compile
def _extend(lo, hi, mode):
    # the extension rule's pick from the interval
    if mode == 0:
        return hi
    if mode == 1:
        return lo
    return 0.5 * (lo + hi)


@njit_compile
def interval(xs, vs, n, L, x):
    """Values at x consistent with the first n anchors: the single stored
    value on an anchor, else the intersection of the neighbours' cones."""
    return _cone(xs, vs, n, L, x, _bisect(xs, n, x))


@njit_compile
def mcshane_eval(xs, vs, n, L, mode, x):
    """Extension-rule value at x: upper envelope (mode 0), lower (1) or
    their midpoint (2)."""
    lo, hi = interval(xs, vs, n, L, x)
    return _extend(lo, hi, mode)


@njit_compile
def _mcshane_from(xs, vs, n, L, mode, x, j):
    # mcshane_eval located from the guess j; returns the value and index
    j = _locate(xs, n, x, j)
    lo, hi = _cone(xs, vs, n, L, x, j)
    return _extend(lo, hi, mode), j


@njit_compile
def _shift_in(keys, vals, n, j, key, val):
    # the explicit copy keeps the shift right whether or not slice
    # assignment buffers an overlapping source
    keys[j + 1:n + 1] = keys[j:n].copy()
    vals[j + 1:n + 1] = vals[j:n].copy()
    keys[j] = key
    vals[j] = val


@njit_compile
def _insert(keys, vals, n, j, key, val):
    """Insert (key, val) at key's located index j in the sorted store of n
    entries unless key is already there or the store is full; returns the
    new count."""
    if (j < n and keys[j] == key) or n == keys.shape[0]:
        return n
    _shift_in(keys, vals, n, j, key, val)
    return n + 1


@njit_compile
def _visit(keys, steps, n, x, t):
    """Look up the stored state nearest to x, then record x at step t.

    Returns the step k of the nearest state (-1 for an empty history),
    its distance, and the new count.  Computed distances grow
    monotonically away from the insertion point on either side, so the
    entries tied at the minimum form one run on each side of it; the
    smallest step among them wins.
    """
    j = _bisect(keys, n, x)
    best = np.inf
    if j > 0:
        best = x - keys[j - 1]
    if j < n and keys[j] - x < best:
        best = keys[j] - x
    k = -1
    i = j - 1
    while i >= 0 and x - keys[i] == best:
        if k < 0 or steps[i] < k:
            k = steps[i]
        i -= 1
    i = j
    while i < n and keys[i] - x == best:
        if k < 0 or steps[i] < k:
            k = steps[i]
        i += 1
    if not (j < n and keys[j] == x):
        _shift_in(keys, steps, n, j, x, t)
        n += 1
    return k, best, n


@njit_compile
def _switching_input(ys, us, hy, hk, nh, t, y, eps, ystar, bmin, bmax):
    # nearest-neighbour estimate fhat = y_{k+1} - u_k, then range-centring
    # far from every past output and tracking close to one; returns the
    # input and the history count once y is recorded
    k, gap, nh = _visit(hy, hk, nh, y, t)
    if k < 0:
        return 0.0, nh
    fhat = ys[k + 1] - us[k]
    if gap > eps:
        return -fhat + 0.5 * (bmin + bmax), nh
    return -fhat + ystar, nh


@njit_compile
def _ce_input(xs, us, sx, sk, ns, k, x, L, c, h, kappa):
    # certainty equivalence on the nearest past sample, clipped to
    # |u| <= kappa (L|x| + c); returns the input and the history count
    # once x is recorded
    i, _, ns = _visit(sx, sk, ns, x, k)
    if i < 0:
        return 0.0, ns
    ftilde = (xs[i + 1] - xs[i]) / h - us[i]
    u = -ftilde - x / h
    cap = kappa * (L * abs(x) + c)
    if u > cap:
        u = cap
    if u < -cap:
        u = -cap
    return u, ns


# ---------------------------------------------------------------------------
# parametric episode: recursive least squares + minimum variance input

@njit_compile
def parametric_episode(y0, theta, w, M, b, s0, theta0, guard):
    T = w.shape[0] - 1
    ys = np.zeros(T + 1)
    us = np.zeros(T)
    ths = np.zeros(T + 1)
    ys[0] = y0
    ths[0] = theta0
    y = y0
    s = s0
    th = theta0
    blow = -1
    for t in range(T):
        if y > 0.0:
            phi = M * y**b
        elif y < 0.0:
            phi = -(M * (-y) ** b)
        else:
            phi = 0.0
        u = -th * phi
        y1 = theta * phi + u + w[t + 1]
        us[t] = u
        ys[t + 1] = y1
        if y1 != y1 or y1 > guard or y1 < -guard:
            blow = t + 1
            break
        s = s + phi * phi
        th = th + phi * ((y1 - u) - th * phi) / s
        ths[t + 1] = th
        y = y1
    return ys, us, ths, blow


# ---------------------------------------------------------------------------
# nonparametric episode, fixed realized f + switching NN controller

@njit_compile
def nonparam_fixed(y0, fxs, fvs, L, ext_mode, ws, w_bar, eps, ystar,
                   guard, use_controller):
    T = ws.shape[0] - 1
    nf = fxs.shape[0]
    ys = np.zeros(T + 1)
    us = np.zeros(T)
    hy = np.zeros(T)
    hk = np.zeros(T, dtype=np.int64)
    nh = 0
    ys[0] = y0
    y = y0
    bmin = y0
    bmax = y0
    blow = -1
    j = 0
    for t in range(T):
        if y < bmin:
            bmin = y
        if y > bmax:
            bmax = y
        u = 0.0
        if use_controller != 0:
            u, nh = _switching_input(ys, us, hy, hk, nh, t, y, eps, ystar,
                                     bmin, bmax)
        fy, j = _mcshane_from(fxs, fvs, nf, L, ext_mode, y, j)
        y1 = fy + u + w_bar * ws[t + 1]
        us[t] = u
        ys[t + 1] = y1
        if y1 != y1 or y1 > guard or y1 < -guard:
            blow = t + 1
            break
        y = y1
    return ys, us, blow


# ---------------------------------------------------------------------------
# nonparametric duel: greedy anchor-committing opponent vs the controller

@njit_compile
def nonparam_duel(y0, L, w_bar, budget_c, eps, ystar, guard, T,
                  use_controller):
    ys = np.zeros(T + 1)
    us = np.zeros(T)
    ws = np.zeros(T + 1)
    vsc = np.zeros(T)
    axs = np.zeros(T + 1)
    avs = np.zeros(T + 1)
    na = 0
    hy = np.zeros(T)
    hk = np.zeros(T, dtype=np.int64)
    nh = 0
    ys[0] = y0
    y = y0
    bmin = y0
    bmax = y0
    blow = -1
    for t in range(T):
        if y < bmin:
            bmin = y
        if y > bmax:
            bmax = y
        u = 0.0
        if use_controller != 0:
            u, nh = _switching_input(ys, us, hy, hk, nh, t, y, eps, ystar,
                                     bmin, bmax)
        j = _bisect(axs, na, y)
        if na == 0:
            hi = L * abs(y) + budget_c
            lo = -hi
        else:
            lo, hi = _cone(axs, avs, na, L, y, j)
        v = hi if abs(hi + u) >= abs(lo + u) else lo
        w = w_bar if (v + u) >= 0.0 else -w_bar
        na = _insert(axs, avs, na, j, y, v)
        y1 = v + u + w
        us[t] = u
        ws[t + 1] = w
        vsc[t] = v
        ys[t + 1] = y1
        if y1 != y1 or y1 > guard or y1 < -guard:
            blow = t + 1
            break
        y = y1
    return ys, us, ws, vsc, axs, avs, na, blow


# ---------------------------------------------------------------------------
# zero-order-hold integration of dx/dt = f(x) + u over one sampling period

@njit_compile
def rk4_mcshane(fxs, fvs, nf, L, ext_mode, x0, u, h, substeps, guard):
    # the stages of one step and the steps of one period stay close, so
    # each evaluation is located from the index of the one before
    dt = h / substeps
    xx = x0
    j = _bisect(fxs, nf, x0)
    for _ in range(substeps):
        f1, j = _mcshane_from(fxs, fvs, nf, L, ext_mode, xx, j)
        k1 = f1 + u
        f2, j = _mcshane_from(fxs, fvs, nf, L, ext_mode, xx + 0.5 * dt * k1, j)
        k2 = f2 + u
        f3, j = _mcshane_from(fxs, fvs, nf, L, ext_mode, xx + 0.5 * dt * k2, j)
        k3 = f3 + u
        f4, j = _mcshane_from(fxs, fvs, nf, L, ext_mode, xx + dt * k3, j)
        k4 = f4 + u
        xx = xx + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if xx != xx or xx > guard or xx < -guard:
            return xx
    return xx


# ---------------------------------------------------------------------------
# sampled-data episode, fixed f + certainty-equivalence controller

@njit_compile
def sampled_fixed(x0, fxs, fvs, L, ext_mode, c, h, substeps, kappa,
                  n_samples, guard, use_controller):
    nf = fxs.shape[0]
    xs = np.zeros(n_samples + 1)
    us = np.zeros(n_samples)
    sx = np.zeros(n_samples)
    sk = np.zeros(n_samples, dtype=np.int64)
    ns = 0
    xs[0] = x0
    x = x0
    blow = -1
    for k in range(n_samples):
        u = 0.0
        if use_controller != 0:
            u, ns = _ce_input(xs, us, sx, sk, ns, k, x, L, c, h, kappa)
        x1 = rk4_mcshane(fxs, fvs, nf, L, ext_mode, x, u, h, substeps, guard)
        us[k] = u
        xs[k + 1] = x1
        if x1 != x1 or x1 > guard or x1 < -guard:
            blow = k + 1
            break
        x = x1
    return xs, us, blow


# ---------------------------------------------------------------------------
# sampled-data duel: the opponent commits an anchor at every sample point
# and at every integrator evaluation, and drives each period with the
# envelope (upper or lower) that continues the current push direction

@njit_compile
def _env_commit(axs, avs, na, L, mode, x, j):
    # evaluate the envelope at x and commit it there, both at the index
    # located from the guess j; returns the value, the count and the index
    v, j = _mcshane_from(axs, avs, na, L, mode, x, j)
    return v, _insert(axs, avs, na, j, x, v), j


@njit_compile
def sampled_duel(x0, L, c, h, substeps, kappa, n_samples, guard,
                 use_controller, cap_anchors):
    xs = np.zeros(n_samples + 1)
    us = np.zeros(n_samples)
    vsc = np.zeros(n_samples)
    axs = np.zeros(cap_anchors)
    avs = np.zeros(cap_anchors)
    na = 0
    sx = np.zeros(n_samples)
    sk = np.zeros(n_samples, dtype=np.int64)
    ns = 0
    xs[0] = x0
    x = x0
    blow = -1
    dt = h / substeps
    # index of the last store access; the next one lands next to it
    j = 0
    for k in range(n_samples):
        u = 0.0
        if use_controller != 0:
            u, ns = _ce_input(xs, us, sx, sk, ns, k, x, L, c, h, kappa)
        box = L * abs(x) + c
        j = _locate(axs, na, x, j)
        lo, hi = _cone(axs, avs, na, L, x, j)
        if lo < -box:
            lo = -box
        if hi > box:
            hi = box
        v = hi if abs(hi + u) >= abs(lo + u) else lo
        na = _insert(axs, avs, na, j, x, v)
        mode = 0 if (v + u) >= 0.0 else 1
        xx = x
        for _ in range(substeps):
            f1, na, j = _env_commit(axs, avs, na, L, mode, xx, j)
            k1 = f1 + u
            f2, na, j = _env_commit(axs, avs, na, L, mode, xx + 0.5 * dt * k1,
                                    j)
            k2 = f2 + u
            f3, na, j = _env_commit(axs, avs, na, L, mode, xx + 0.5 * dt * k2,
                                    j)
            k3 = f3 + u
            f4, na, j = _env_commit(axs, avs, na, L, mode, xx + dt * k3, j)
            k4 = f4 + u
            xx = xx + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if xx != xx or xx > guard or xx < -guard:
                break
        x1 = xx
        us[k] = u
        vsc[k] = v
        xs[k + 1] = x1
        if x1 != x1 or x1 > guard or x1 < -guard:
            blow = k + 1
            break
        x = x1
    return xs, us, vsc, axs, avs, na, blow


# ---------------------------------------------------------------------------
# Markov jump linear episode with residual-matching mode estimation

@njit_compile
def mjls_step(Ai, Bi, x, u, w):
    return Ai @ x + Bi @ u + w


@njit_compile
def mjls_episode(A, B, Kg, P, x0, mode0, munif, W, guard, use_controller):
    T = W.shape[0]
    N = A.shape[0]
    n = A.shape[1]
    m = B.shape[2]
    # every mode's one-step prediction in one product per matrix
    A2 = A.reshape(N * n, n)
    B2 = B.reshape(N * n, m)
    # most likely successor of each mode and the cumulative transition
    # rows the mode draw bisects
    succ = np.zeros(N, dtype=np.int64)
    cum = np.zeros((N, N))
    for i in range(N):
        succ[i] = np.argmax(P[i])
        cum[i] = np.cumsum(P[i])
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
            preds = (A2 @ X[t - 1] + B2 @ U[t - 1]).reshape(N, n)
            bi = np.argmin(np.sum((X[t] - preds) ** 2, axis=1))
            est[t] = bi
            ihat = succ[bi]
        if use_controller != 0:
            U[t] = -(Kg[ihat] @ X[t])
        th = modes[t]
        x1 = mjls_step(A[th], B[th], X[t], U[t], W[t])
        X[t + 1] = x1
        if not np.max(np.abs(x1)) <= guard:
            blow = t + 1
            break
        modes[t + 1] = min(np.searchsorted(cum[th], munif[t], side="right"),
                           N - 1)
    return X, U, modes, est, blow


# ---------------------------------------------------------------------------
# coupled fixed-point solver for the jump-linear stabilizability equations

@njit_compile
def riccati_solve(A, B, P, tol, max_iter, div_guard, svd_rtol):
    N = A.shape[0]
    n = A.shape[1]
    m = B.shape[2]
    Ms = np.zeros((N, n, n))
    for i in range(N):
        for a in range(n):
            Ms[i, a, a] = 1.0
    hist = np.zeros(max_iter)
    status = 2
    iters = max_iter
    delta = np.inf
    for k in range(max_iter):
        Mnew = np.zeros((N, n, n))
        for i in range(N):
            S_aa = np.zeros((n, n))
            S_ab = np.zeros((n, m))
            S_bb = np.zeros((m, m))
            for j in range(N):
                p = P[i, j]
                pm = p * Ms[j]
                S_aa = S_aa + A[j].T @ pm @ A[j]
                S_ab = S_ab + A[j].T @ pm @ B[j]
                S_bb = S_bb + B[j].T @ pm @ B[j]
            U, s, Vt = np.linalg.svd(S_bb)
            pinv = np.zeros((m, m))
            if s[0] > 0.0:
                cut = svd_rtol * s[0]
                for a in range(m):
                    if s[a] > cut:
                        pinv = pinv + (1.0 / s[a]) * np.outer(Vt[a], U[:, a])
            X = S_aa - S_ab @ pinv @ S_ab.T
            for a in range(n):
                X[a, a] += 1.0
            Mnew[i] = 0.5 * (X + X.T)
        delta = 0.0
        nrm = 0.0
        for i in range(N):
            for a in range(n):
                for bcol in range(n):
                    d = Mnew[i, a, bcol] - Ms[i, a, bcol]
                    if d < 0.0:
                        d = -d
                    if d > delta:
                        delta = d
                    v = Mnew[i, a, bcol]
                    if v < 0.0:
                        v = -v
                    if v > nrm:
                        nrm = v
        Ms = Mnew
        hist[k] = nrm
        if nrm > div_guard:
            status = 1
            iters = k + 1
            break
        if delta < tol:
            status = 0
            iters = k + 1
            break
    if status == 2:
        lookback = 100
        if max_iter < lookback + 1:
            lookback = max_iter - 1
        growing = lookback > 0
        for k in range(max_iter - lookback, max_iter):
            if hist[k] <= hist[k - 1]:
                growing = False
                break
        if growing:
            status = 1
    return Ms, status, iters, delta


def warm_up():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    xs = np.array([0.0, 1.0])
    vs = np.array([0.0, 1.0])
    power_eval(1.0, 2.0, 1.5)
    mcshane_eval(xs, vs, 2, 1.0, 0, 0.5)
    interval(xs, vs, 2, 1.0, 0.5)
    parametric_episode(0.0, 1.0, np.zeros(3), 1.0, 2.0, 1.0, 1.0, 1e150)
    nonparam_fixed(0.0, xs, vs, 1.0, 0, np.zeros(3), 1.0, 0.1, 0.0, 1e150, 1)
    nonparam_duel(0.1, 1.0, 1.0, 10.0, 0.1, 0.0, 1e150, 3, 1)
    rk4_mcshane(xs, vs, 2, 1.0, 0, 0.5, 0.0, 0.1, 2, 1e150)
    sampled_fixed(0.5, xs, vs, 1.0, 0, 1.0, 0.1, 2, 4.0, 2, 1e150, 1)
    sampled_duel(0.0, 1.0, 1.0, 0.1, 2, 4.0, 2, 1e150, 1, 64)
    A = np.zeros((1, 1, 1))
    Bm = np.ones((1, 1, 1))
    Kg = np.zeros((1, 1, 1))
    P = np.ones((1, 1))
    mjls_episode(A, Bm, Kg, P, np.zeros(1), 0, np.zeros(2), np.zeros((2, 1)),
                 1e150, 1)
    mjls_step(A[0], Bm[0], np.zeros(1), np.zeros(1), np.zeros(1))
    riccati_solve(A, Bm, P, 1e-10, 5, 1e12, 1e-10)
