"""Hot numeric kernels, in numpy: the Gram and cross-Gram builders, the hinge
solver (``hinge_pgd`` and its stacked form ``hinge_pgd_batch``), pairwise
sup-distances and the shattering scan. Gram builders mirror the upper
triangle, so symmetry is exact. Everything here is deterministic for a fixed
input; ``tests/test_accel.py`` checks each function against an independent
oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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
]


# ---------------------------------------------------------------------------
# Gram and cross-Gram builders.
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


def rbf_gram(X, bandwidth):
    d2 = _sq_dists(X, X)
    G = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    np.fill_diagonal(G, 1.0)
    return _mirror_upper(G)


def rbf_cross(X, Z, bandwidth):
    return np.exp(-_sq_dists(X, Z) / (2.0 * bandwidth * bandwidth))


def linear_gram(X, scale):
    return _mirror_upper(scale * (X @ X.T))


def linear_cross(X, Z, scale):
    return scale * (X @ Z.T)


def poly_gram(X, scale, coef0, degree):
    return _mirror_upper((scale * (X @ X.T) + coef0) ** degree)


def poly_cross(X, Z, scale, coef0, degree):
    return (scale * (X @ Z.T) + coef0) ** degree


def metric_gram(X, M):
    diff = X[:, None, :] - X[None, :, :]
    q = np.einsum("ijk,kl,ijl->ij", diff, M, diff)
    G = np.exp(-0.5 * q)
    np.fill_diagonal(G, 1.0)
    return _mirror_upper(G)


def metric_cross(X, Z, M):
    diff = X[:, None, :] - Z[None, :, :]
    q = np.einsum("ijk,kl,ijl->ij", diff, M, diff)
    return np.exp(-0.5 * q)


# ---------------------------------------------------------------------------
# Hinge solver.
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


def chebyshev_pdist(V):
    """(n, n) matrix of sup-norm distances max_t |V[i, t] - V[j, t]|."""
    n = V.shape[0]
    D = np.zeros((n, n))
    # chunk the broadcast so candidate sets of a few thousand stay in cache
    chunk = max(1, int(2**22 // max(V.shape[1] * n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        D[start:stop] = np.max(np.abs(V[start:stop, None, :] - V[None, :, :]), axis=2)
    return D


def shatter_scan(masks, counts, valid, max_combos):
    """Search threshold combinations for one that shatters the members.

    ``counts[i]`` is the number of threshold candidates of pair i, and rows
    ``offsets[i] .. offsets[i] + counts[i]`` of ``masks`` (uint64, one column
    per 64 members) mark the members above each candidate. ``valid`` marks
    the real member bits, so complements leak no phantom high bits. A combo
    shatters when all 2^p sign-pattern cells are non-empty. Combos are taken
    in odometer order, pair 0's index moving fastest, and the first hit wins.

    Returns (status, chosen candidate index per pair): status 1 found, 0 not
    found, -1 over budget. The budget rule: the search gives up (-1) whenever
    the product of ``counts`` exceeds ``max_combos``, before testing any
    combo, even if an early combo would shatter.
    """
    p = counts.shape[0]
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    total = int(np.prod(counts.astype(np.float64)))
    if total > max_combos:
        return -1, np.zeros(p, dtype=np.int64)
    n_cells = 1 << p
    combo_ids = np.arange(total, dtype=np.int64)
    # mixed-radix digits, least-significant pair first
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
    return 1, digits[ok.argmax()].copy()
