"""Hot numeric kernels.

The Gram builders, pairwise sup-distances and the shattering scan exist
twice: a numba ``@njit`` build of the loop-style source (suffix ``_src``) and
a vectorized pure-numpy build (suffix ``_np``). The unsuffixed module-level
name is an alias for whichever path is active.

Path selection happens once, at import time:

* ``MTKL_DISABLE_NUMBA=1`` in the environment forces the numpy path;
* if numba cannot be imported the numpy path is used automatically.

The hinge solver (``hinge_pgd`` and its stacked form ``hinge_pgd_batch``) is
numpy only. Everything here is deterministic for a fixed input.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "rbf_gram",
    "rbf_cross",
    "linear_gram",
    "linear_cross",
    "poly_gram",
    "poly_cross",
    "metric_gram",
    "metric_cross",
    "hinge_pgd",
    "hinge_pgd_batch",
    "chebyshev_pdist",
    "shatter_scan",
    "implementations",
]


def _numba_disabled_by_env() -> bool:
    return os.environ.get("MTKL_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")


if _numba_disabled_by_env():
    _njit = None
else:
    try:
        from numba import njit as _njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _njit = None

NUMBA_ENABLED = _njit is not None


# ---------------------------------------------------------------------------
# Loop-style sources (compiled with numba when the fast path is active).
# Gram builders fill the upper triangle and mirror it, so symmetry is exact.
# ---------------------------------------------------------------------------


def _rbf_gram_src(X, bandwidth):
    m, d = X.shape
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    G = np.empty((m, m))
    for i in range(m):
        G[i, i] = 1.0
        for j in range(i + 1, m):
            s = 0.0
            for t in range(d):
                diff = X[i, t] - X[j, t]
                s += diff * diff
            v = math.exp(-s * inv)
            G[i, j] = v
            G[j, i] = v
    return G


def _rbf_cross_src(X, Z, bandwidth):
    m, d = X.shape
    p = Z.shape[0]
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    G = np.empty((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(d):
                diff = X[i, t] - Z[j, t]
                s += diff * diff
            G[i, j] = math.exp(-s * inv)
    return G


def _linear_gram_src(X, scale):
    m, d = X.shape
    G = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            s = 0.0
            for t in range(d):
                s += X[i, t] * X[j, t]
            v = scale * s
            G[i, j] = v
            G[j, i] = v
    return G


def _linear_cross_src(X, Z, scale):
    m, d = X.shape
    p = Z.shape[0]
    G = np.empty((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(d):
                s += X[i, t] * Z[j, t]
            G[i, j] = scale * s
    return G


def _poly_gram_src(X, scale, coef0, degree):
    m, d = X.shape
    G = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            s = 0.0
            for t in range(d):
                s += X[i, t] * X[j, t]
            v = (scale * s + coef0) ** degree
            G[i, j] = v
            G[j, i] = v
    return G


def _poly_cross_src(X, Z, scale, coef0, degree):
    m, d = X.shape
    p = Z.shape[0]
    G = np.empty((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(d):
                s += X[i, t] * Z[j, t]
            G[i, j] = (scale * s + coef0) ** degree
    return G


def _metric_gram_src(X, M):
    m, d = X.shape
    G = np.empty((m, m))
    for i in range(m):
        G[i, i] = 1.0
        for j in range(i + 1, m):
            q = 0.0
            for a in range(d):
                row = 0.0
                for b in range(d):
                    row += M[a, b] * (X[i, b] - X[j, b])
                q += (X[i, a] - X[j, a]) * row
            v = math.exp(-0.5 * q)
            G[i, j] = v
            G[j, i] = v
    return G


def _metric_cross_src(X, Z, M):
    m, d = X.shape
    p = Z.shape[0]
    G = np.empty((m, p))
    for i in range(m):
        for j in range(p):
            q = 0.0
            for a in range(d):
                row = 0.0
                for b in range(d):
                    row += M[a, b] * (X[i, b] - Z[j, b])
                q += (X[i, a] - Z[j, a]) * row
            G[i, j] = math.exp(-0.5 * q)
    return G


def _chebyshev_pdist_src(V):
    n, d = V.shape
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            best = 0.0
            for t in range(d):
                diff = abs(V[i, t] - V[j, t])
                if diff > best:
                    best = diff
            D[i, j] = best
            D[j, i] = best
    return D


def _shatter_scan_src(masks, counts, valid, max_combos):
    # masks: (total_candidates, n_words) uint64 bitmask over members for each
    # per-pair threshold candidate (candidates of pair i occupy the slice
    # [offsets[i], offsets[i] + counts[i])); counts: per-pair candidate counts;
    # valid: (n_words,) mask of real member bits (complements must not leak
    # phantom high bits). Odometer search over threshold combos; a combo
    # shatters when all 2^p sign-pattern cells are non-empty. Returns
    # (status, chosen candidate index per pair); status 1 found, 0 not found,
    # -1 budget exceeded.
    p = counts.shape[0]
    n_words = valid.shape[0]
    offsets = np.zeros(p, dtype=np.int64)
    acc = 0
    for i in range(p):
        offsets[i] = acc
        acc += counts[i]
    choice = np.zeros(p, dtype=np.int64)
    n_cells = 1 << p
    tried = 0
    while True:
        tried += 1
        if tried > max_combos:
            return -1, choice
        ok = True
        for cell in range(n_cells):
            empty = True
            for w in range(n_words):
                inter = valid[w]
                for i in range(p):
                    mask = masks[offsets[i] + choice[i], w]
                    if (cell >> i) & 1:
                        inter &= mask
                    else:
                        inter &= ~mask
                if inter != np.uint64(0):
                    empty = False
                    break
            if empty:
                ok = False
                break
        if ok:
            return 1, choice
        # advance odometer
        pos = 0
        while pos < p:
            choice[pos] += 1
            if choice[pos] < counts[pos]:
                break
            choice[pos] = 0
            pos += 1
        if pos == p:
            return 0, choice


# ---------------------------------------------------------------------------
# Vectorized numpy builds.
# ---------------------------------------------------------------------------


def _sq_dists(X, Z):
    xx = np.sum(X * X, axis=1)[:, None]
    zz = np.sum(Z * Z, axis=1)[None, :]
    d2 = xx + zz - 2.0 * (X @ Z.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _mirror_upper(G):
    iu = np.triu_indices(G.shape[0], k=1)
    G[(iu[1], iu[0])] = G[iu]
    return G


def _rbf_gram_np(X, bandwidth):
    d2 = _sq_dists(X, X)
    G = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    np.fill_diagonal(G, 1.0)
    return _mirror_upper(G)


def _rbf_cross_np(X, Z, bandwidth):
    return np.exp(-_sq_dists(X, Z) / (2.0 * bandwidth * bandwidth))


def _linear_gram_np(X, scale):
    return _mirror_upper(scale * (X @ X.T))


def _linear_cross_np(X, Z, scale):
    return scale * (X @ Z.T)


def _poly_gram_np(X, scale, coef0, degree):
    return _mirror_upper((scale * (X @ X.T) + coef0) ** degree)


def _poly_cross_np(X, Z, scale, coef0, degree):
    return (scale * (X @ Z.T) + coef0) ** degree


def _metric_gram_np(X, M):
    diff = X[:, None, :] - X[None, :, :]
    q = np.einsum("ijk,kl,ijl->ij", diff, M, diff)
    G = np.exp(-0.5 * q)
    np.fill_diagonal(G, 1.0)
    return _mirror_upper(G)


def _metric_cross_np(X, Z, M):
    diff = X[:, None, :] - Z[None, :, :]
    q = np.einsum("ijk,kl,ijl->ij", diff, M, diff)
    return np.exp(-0.5 * q)


# ---------------------------------------------------------------------------
# Hinge solver (numpy only).
#
# Projected subgradient descent on
#   f(a) = (1/m) sum_j max(0, 1 - y_j (K a)_j / gamma)
# over the RKHS unit ball a^T K a <= 1, with monotone backtracking: each
# iteration takes the first step step0 * 2^-k, k < MAX_HALVINGS, whose
# projected candidate does not raise f. Candidate steps reuse v = K a and K g,
# so a trial is O(m), and HALVING_BLOCK trials run in one vectorised pass.
# Halving is exact in binary floating point, so trial k is the step after k
# repeated halvings, and each trial does the one-at-a-time loop's arithmetic
# in the same order: results are bit-identical to that loop.
#
# hinge_pgd solves one problem; hinge_pgd_batch runs a stack of them in
# lockstep. The stacked bookkeeping makes a one-problem stack of m = 256 take
# a fifth to a half more time per iteration than hinge_pgd (2-vCPU x86 host,
# one BLAS thread), so one-problem callers use hinge_pgd.
# Stacked products go through np.matmul, which makes the same BLAS call per
# problem (gemv for K @ x, ddot for x @ z) as the 2-D code, so a problem's
# result does not depend on the stack it is solved in.
# ---------------------------------------------------------------------------

MAX_HALVINGS = 60
HALVING_BLOCK = 16
_HALVINGS = np.ldexp(1.0, -np.arange(MAX_HALVINGS))


def _hinge(y, v, gamma):
    # np.mean's sum and division, without its Python-level overhead
    h = y * v
    h /= gamma
    np.subtract(1.0, h, out=h)
    np.maximum(0.0, h, out=h)
    return np.add.reduce(h, axis=-1) / h.shape[-1]


def _trials(start, step0, y, v, Kg, aKa, gKa, gKg, gamma):
    """The block of trial steps from halving ``start``, for one problem
    (aKa, gKa, gKg scalars; y, v, Kg of shape (m,)) or a stack of them (one
    leading axis more). Returns steps (s,) and, per problem, q and scale
    (s,), candidate v (s, m) and candidate objective (s,)."""
    steps = step0 * _HALVINGS[start:start + HALVING_BLOCK]
    q = aKa[..., None] - 2.0 * steps * gKa[..., None]
    q += steps * steps * gKg[..., None]
    np.maximum(q, 0.0, out=q)
    scale = np.where(q > 1.0, 1.0 / np.sqrt(np.maximum(q, 1.0)), 1.0)
    v_cand = steps[:, None] * Kg[..., None, :]
    np.subtract(v[..., None, :], v_cand, out=v_cand)
    v_cand *= scale[..., None]
    return steps, q, scale, v_cand, _hinge(y[..., None, :], v_cand, gamma)


def hinge_pgd(K, y, gamma, alpha0, max_iters, tol, step0):
    """Minimise the hinge objective above from ``alpha0`` for one (m, m) K.

    Stops converged when no sample is inside the margin, no trial step
    improves, or the gain falls below ``tol``; otherwise after ``max_iters``
    iterations, not converged. Returns (alpha, objective, iterations,
    converged)."""
    m = K.shape[0]
    alpha = np.array(alpha0, dtype=np.float64)
    v = K @ alpha
    aKa = alpha @ v
    obj = _hinge(y, v, gamma)
    it, converged = 0, False
    for it in range(1, max_iters + 1):
        active = (1.0 - y * v / gamma) > 0.0
        if not active.any():
            converged = True
            break
        g = K @ (-(y * active) / (m * gamma))
        Kg = K @ g
        gKa, gKg = g @ v, g @ Kg
        for start in range(0, MAX_HALVINGS, HALVING_BLOCK):
            steps, q, scale, v_cand, cand = _trials(start, step0, y, v, Kg, aKa,
                                                    gKa, gKg, gamma)
            k = int((cand <= obj).argmax())
            if cand[k] <= obj:
                break
        else:
            converged = True
            break
        alpha = scale[k] * (alpha - steps[k] * g)
        v, aKa = v_cand[k], scale[k] * scale[k] * q[k]
        gain = obj - cand[k]
        obj = cand[k]
        if gain < tol:
            converged = True
            break
    return alpha, float(obj), it, converged


def _first_improving(start, step0, y, v, Kg, aKa, gKa, gKg, obj, gamma):
    """Per stacked problem: whether a trial step of the block from halving
    ``start`` does not raise the objective, and for the first such step the
    step, scale, new aKa, candidate v and candidate objective."""
    steps, q, scale, v_cand, cand = _trials(start, step0, y, v, Kg, aKa, gKa,
                                            gKg, gamma)
    ok = cand <= obj[:, None]
    first = ok.argmax(axis=1)
    rows = np.arange(len(first))
    chosen = scale[rows, first]
    return (ok[rows, first], steps[first], chosen,
            chosen * chosen * q[rows, first], v_cand[rows, first],
            cand[rows, first])


def _line_search(step0, y, v, Kg, aKa, gKa, gKg, obj, gamma):
    """``_first_improving`` over every block of trial steps, each block on
    the problems that no earlier block settled. Values are meaningless where
    the first returned array (found) is False."""
    found, *out = _first_improving(0, step0, y, v, Kg, aKa, gKa, gKg, obj, gamma)
    todo = np.flatnonzero(~found)
    for start in range(HALVING_BLOCK, MAX_HALVINGS, HALVING_BLOCK):
        if todo.size == 0:
            break
        hit, *picked = _first_improving(start, step0, y[todo], v[todo], Kg[todo],
                                        aKa[todo], gKa[todo], gKg[todo],
                                        obj[todo], gamma)
        found[todo] = hit
        for dest, values in zip(out, picked):
            dest[todo] = values
        todo = todo[~hit]
    return (found, *out)


def _matvec(K, x):
    return np.matmul(K, x[:, :, None])[:, :, 0]


def _rowdot(x, z):
    return np.matmul(x[:, None, :], z[:, :, None])[:, 0, 0]


def hinge_pgd_batch(K, y, gamma, alpha0, max_iters, tol, step0):
    """``hinge_pgd`` on a stack of problems in lockstep: K is (B, m, m), y
    and alpha0 are (B, m). A problem leaves the working stack when it stops.
    Returns alpha (B, m), objective (B,), iterations (B,) and converged (B,),
    each entry bit-identical to ``hinge_pgd`` on that problem alone."""
    n_problems, m = y.shape
    alpha = np.array(alpha0, dtype=np.float64)
    obj = np.empty(n_problems)
    iters = np.full(n_problems, max_iters, dtype=np.int64)
    converged = np.zeros(n_problems, dtype=bool)

    live = np.arange(n_problems)
    a = alpha.copy()
    v = _matvec(K, a)
    aKa = _rowdot(a, v)
    f = _hinge(y, v, gamma)
    for it in range(1, max_iters + 1):
        active = (1.0 - y * v / gamma) > 0.0
        g = _matvec(K, -(y * active) / (m * gamma))
        Kg = _matvec(K, g)
        found, step, scale, aKa_new, v_new, f_new = _line_search(
            step0, y, v, Kg, aKa, _rowdot(g, v), _rowdot(g, Kg), f, gamma)
        moved = found & active.any(axis=1)
        gain = f - f_new
        a_new = scale[:, None] * (a - step[:, None] * g)
        if moved.all():
            a, v, aKa, f = a_new, v_new, aKa_new, f_new
        else:  # these problems stop at their current iterate
            a = np.where(moved[:, None], a_new, a)
            v = np.where(moved[:, None], v_new, v)
            aKa = np.where(moved, aKa_new, aKa)
            f = np.where(moved, f_new, f)
        stop = ~moved | (gain < tol)
        if stop.any():
            done = live[stop]
            alpha[done], obj[done] = a[stop], f[stop]
            iters[done], converged[done] = it, True
            keep = ~stop
            live, K, y, a, v, aKa, f = (live[keep], K[keep], y[keep], a[keep],
                                        v[keep], aKa[keep], f[keep])
            if live.size == 0:
                break
    alpha[live], obj[live] = a, f
    return alpha, obj, iters, converged


def _chebyshev_pdist_np(V):
    n = V.shape[0]
    D = np.zeros((n, n))
    # chunk the broadcast so candidate sets of a few thousand stay in cache
    chunk = max(1, int(2**22 // max(V.shape[1] * n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        D[start:stop] = np.max(np.abs(V[start:stop, None, :] - V[None, :, :]), axis=2)
    return D


def _shatter_scan_np(masks, counts, valid, max_combos):
    p = counts.shape[0]
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    total = int(np.prod(counts.astype(np.float64)))
    if total > max_combos:
        return -1, np.zeros(p, dtype=np.int64)
    n_cells = 1 << p
    combo_ids = np.arange(total, dtype=np.int64)
    # mixed-radix digits, least-significant pair first (matches the odometer)
    digits = np.empty((total, p), dtype=np.int64)
    rem = combo_ids
    for i in range(p):
        digits[:, i] = rem % counts[i]
        rem = rem // counts[i]
    ok = np.ones(total, dtype=bool)
    for cell in range(n_cells):
        inter = np.broadcast_to(valid, (total, valid.shape[0])).copy()
        for i in range(p):
            mask = masks[offsets[i] + digits[:, i]]
            if (cell >> i) & 1:
                inter &= mask
            else:
                inter &= ~mask
        nonempty = (inter != 0).any(axis=1)
        ok &= nonempty
        if not ok.any():
            return 0, np.zeros(p, dtype=np.int64)
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return 0, np.zeros(p, dtype=np.int64)
    return 1, digits[hits[0]].copy()


# ---------------------------------------------------------------------------
# Path selection.
# ---------------------------------------------------------------------------

_SOURCES = {
    "rbf_gram": (_rbf_gram_src, _rbf_gram_np),
    "rbf_cross": (_rbf_cross_src, _rbf_cross_np),
    "linear_gram": (_linear_gram_src, _linear_gram_np),
    "linear_cross": (_linear_cross_src, _linear_cross_np),
    "poly_gram": (_poly_gram_src, _poly_gram_np),
    "poly_cross": (_poly_cross_src, _poly_cross_np),
    "metric_gram": (_metric_gram_src, _metric_gram_np),
    "metric_cross": (_metric_cross_src, _metric_cross_np),
    "chebyshev_pdist": (_chebyshev_pdist_src, _chebyshev_pdist_np),
    "shatter_scan": (_shatter_scan_src, _shatter_scan_np),
}

_IMPLS: dict[str, dict[str, object]] = {}
for _name, (_src, _np_impl) in _SOURCES.items():
    _nb_impl = _njit(cache=True)(_src) if NUMBA_ENABLED else None
    _IMPLS[_name] = {"numba": _nb_impl, "numpy": _np_impl}
    globals()[_name] = _nb_impl if NUMBA_ENABLED else _np_impl


def implementations(name: str) -> dict[str, object]:
    """Both builds of a kernel, keyed 'numba'/'numpy' (numba may be None)."""
    return dict(_IMPLS[name])
