"""Hot numeric kernels: the cross-Gram builders and the hinge solver
(``hinge_pgd`` and its stacked form ``hinge_pgd_batch``) in numpy, and the
pruned shattering search. A Gram is a cross-Gram of one array with itself (see
``BaseKernel.gram``). Everything here is deterministic for a fixed input;
``tests/test_accel.py`` checks each function against an independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Cross-Gram builders.
# ---------------------------------------------------------------------------

# Bytes of xx + zz that _sq_dists holds at once. Two full (m, N) buffers per
# call, freed together at the top of the heap, can make glibc trim and
# re-fault them on every block that Kernel.expand scores: a (32, 4096) RBF
# block then took 1.13 ms and about 500 page faults instead of 0.55 ms. With
# one full buffer it took 0.51-0.53 ms either way, and calls on a few points
# about 1 us more (2-vCPU Xeon, glibc 2.36, one OpenBLAS thread).
SUM_BLOCK_BYTES = 1 << 18


def _sq_dists(X, Z):
    # max((xx + zz) - 2·(X Zᵀ), 0) by the operations of that expression in
    # its order, so the values are the same bits, in one (m, N) buffer: the
    # rows of xx + zz are formed SUM_BLOCK_BYTES at a time
    xx = np.sum(X * X, axis=1)[:, None]
    zz = np.sum(Z * Z, axis=1)[None, :]
    d2 = X @ Z.T
    d2 *= 2.0
    step = max(1, SUM_BLOCK_BYTES // (8 * d2.shape[1]))
    for r in range(0, len(d2), step):
        part = d2[r:r + step]
        np.subtract(xx[r:r + step] + zz, part, out=part)
    np.maximum(d2, 0.0, out=d2)
    return d2


def rbf_cross(X, Z, bandwidth):
    # exp(-d2 / (2 bw²)) in place: negate, divide, exp, in that order
    K = _sq_dists(X, Z)
    np.negative(K, out=K)
    K /= 2.0 * bandwidth * bandwidth
    np.exp(K, out=K)
    return K


def linear_cross(X, Z, scale):
    return scale * (X @ Z.T)


def poly_cross(X, Z, scale, coef0, degree):
    return (scale * (X @ Z.T) + coef0) ** degree


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
# iteration takes the first step 2^-k, k < MAX_HALVINGS, whose
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


def _trials(start, y, v, Kg, aKa, gKa, gKg, gamma):
    """The block of trial steps from halving ``start``, for one problem
    (aKa, gKa, gKg scalars; y, v, Kg of shape (m,)) or a stack of them (one
    leading axis more). Returns steps (s,) and, per problem, q and scale
    (s,), candidate v (s, m) and candidate objective (s,)."""
    steps = _HALVINGS[start:start + HALVING_BLOCK]
    q = aKa[..., None] - 2.0 * steps * gKa[..., None]
    q += steps * steps * gKg[..., None]
    np.maximum(q, 0.0, out=q)
    scale = np.where(q > 1.0, 1.0 / np.sqrt(np.maximum(q, 1.0)), 1.0)
    v_cand = steps[:, None] * Kg[..., None, :]
    np.subtract(v[..., None, :], v_cand, out=v_cand)
    v_cand *= scale[..., None]
    return steps, q, scale, v_cand, _hinge(y[..., None, :], v_cand, gamma)


def hinge_pgd(K, y, gamma, alpha0, max_iters, tol):
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
            steps, q, scale, v_cand, cand = _trials(start, y, v, Kg, aKa, gKa,
                                                    gKg, gamma)
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


def _first_improving(start, y, v, Kg, aKa, gKa, gKg, obj, gamma):
    """Per stacked problem: whether a trial step of the block from halving
    ``start`` does not raise the objective, and for the first such step the
    step, scale, new aKa, candidate v and candidate objective."""
    steps, q, scale, v_cand, cand = _trials(start, y, v, Kg, aKa, gKa, gKg,
                                            gamma)
    ok = cand <= obj[:, None]
    first = ok.argmax(axis=1)
    rows = np.arange(len(first))
    chosen = scale[rows, first]
    return (ok[rows, first], steps[first], chosen,
            chosen * chosen * q[rows, first], v_cand[rows, first],
            cand[rows, first])


def _line_search(y, v, Kg, aKa, gKa, gKg, obj, gamma):
    """``_first_improving`` over every block of trial steps, each block on
    the problems that no earlier block settled. Values are meaningless where
    the first returned array (found) is False."""
    found, *out = _first_improving(0, y, v, Kg, aKa, gKa, gKg, obj, gamma)
    todo = np.flatnonzero(~found)
    for start in range(HALVING_BLOCK, MAX_HALVINGS, HALVING_BLOCK):
        if todo.size == 0:
            break
        hit, *picked = _first_improving(start, y[todo], v[todo], Kg[todo],
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


def hinge_pgd_batch(K, y, gamma, alpha0, max_iters, tol):
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
            y, v, Kg, aKa, _rowdot(g, v), _rowdot(g, Kg), f, gamma)
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


def shatter_scan(sets, counts, max_combos, n_members):
    """Search threshold combinations for one that shatters the members.

    ``counts[i]`` is the number of threshold candidates of pair i; the next
    ``counts[i]`` ints of ``sets`` (pair 0's first) hold the members above
    each candidate, bit j for member j of ``n_members``. A combo shatters
    when each of its 2^p sign-pattern cells holds a member. The search fixes
    pair p-1 first and pair 0 last, each in ascending candidate order, and
    drops a partial combo once a cell holds fewer than 2^i members with i
    pairs left to fix. That skips only combos that cannot shatter, so the
    first hit is the first in odometer order (pair 0's index fastest).

    Returns (status, chosen candidate index per pair or None): status 1
    found, 0 not found, -1 when the product of ``counts`` exceeds
    ``max_combos``, before any combo is tested, even one that would shatter.
    """
    counts = [int(c) for c in counts]
    if math.prod(counts) > max_combos:
        return -1, None
    it = iter(sets)
    groups = [[next(it) for _ in range(c)] for c in counts]

    def search(i, cells):
        # the first choice for pairs 0..i leaving no final cell empty, or None
        if i < 0:
            return []
        need = 1 << i
        for c, above in enumerate(groups[i]):
            split = []
            for cell in cells:
                up, down = cell & above, cell & ~above
                if up.bit_count() < need or down.bit_count() < need:
                    break
                split += (up, down)
            else:
                rest = search(i - 1, split)
                if rest is not None:
                    return rest + [c]
        return None

    choice = search(len(counts) - 1, [(1 << n_members) - 1])
    return (0, None) if choice is None else (1, choice)
