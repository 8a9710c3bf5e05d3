"""Independent oracles used by the test suite.

These deliberately share no code with the package: bound formulas are
re-evaluated term by term in mpmath arbitrary precision, covers are found by
exhaustive subset search, shattering by naive pattern enumeration (and the
packed threshold scan by a brute-force scan over Python integer sets), and
tiny fits by dense grids over the dual coefficients. The scalar hinge solver is
the one-problem, one-trial-step-at-a-time loop that the vectorised solver in
``mtkl._accel`` must reproduce bit for bit.
"""

import itertools
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 60


def clog(x, base2=False):
    x = mp.mpf(x)
    if x <= 1:
        return mp.mpf(0)
    return mp.log(x, 2) if base2 else mp.log(x)


def mp_cover_bound_hn(n, m, B, d_phi, epsilon, log2_exponent=False):
    n, m, B, d, e = map(mp.mpf, (n, m, B, d_phi, epsilon))
    return (n * mp.log(2)
            + d * clog(4 * mp.e * n**2 * m**3 * B / (e**2 * d))
            + (64 * B * n / e**2) * clog(mp.e * e * m / (8 * mp.sqrt(B)),
                                         base2=log2_exponent)
            * clog(16 * m * B / e**2))


def mp_cover_bound_fk(m, B, epsilon):
    m, B, e = map(mp.mpf, (m, B, epsilon))
    return mp.log(2) + (16 * B / e**2) * clog(e * mp.e * m / (4 * mp.sqrt(B)),
                                              base2=True) * clog(4 * m * B / e**2)


def mp_cover_bound_kernel_nm(n, m, B, d_phi, epsilon):
    n, m, B, d, e = map(mp.mpf, (n, m, B, d_phi, epsilon))
    return d * mp.log(mp.e * n**2 * m**2 * B / (e * d))


def mp_cover_bound_kernel_dn(n, d_phi, B, epsilon, C=1.0):
    n, d, B, e, C = map(mp.mpf, (n, d_phi, B, epsilon, C))
    return d * (mp.log(C) + 5 * mp.log(n) + 5 * mp.log(d)
                + 17 * mp.log(mp.sqrt(B) / e))


def mp_appendix_sample_size(d_phi, B, epsilon, c=1.0):
    d, B, e, c = map(mp.mpf, (d_phi, B, epsilon, c))
    return c * d**2 * B**mp.mpf("2.5") / e**5


def mp_multitask_epsilon(n, m, d_phi, B, gamma, delta):
    n, m, d, B, g, dl = map(mp.mpf, (n, m, d_phi, B, gamma, delta))
    total = ((2 * mp.log(2) - mp.log(dl)) / n + mp.log(2)
             + (d / n) * clog(128 * mp.e * n**2 * m**3 * B / (g**2 * d))
             + (256 * B / g**2) * clog(g * mp.e * m / (8 * mp.sqrt(B)))
             * clog(128 * m * B / g**2))
    return mp.sqrt(8 * total / m)


def mp_lifelong_log_terms(n, m, d_phi, B, gamma, epsilon, C=1.0):
    n, m, d, B, g, e, C = map(mp.mpf, (n, m, d_phi, B, gamma, epsilon, C))
    log_sample = ((n + 2) * mp.log(2)
                  + d * clog(512 * mp.e * n**2 * m**3 * B / (g**2 * d))
                  + (1024 * B * n / g**2) * clog(mp.e * g * m / (16 * mp.sqrt(B)))
                  * clog(512 * m * B / g**2)
                  - n * m * e**2 / 32)
    log_env = (mp.log(4) + d * (mp.log(32 * C) + 5 * mp.log(n) + 5 * mp.log(d)
                                + 17 * mp.log(64 * mp.sqrt(B) / (e * g)))
               - n * e**2 / 128)
    return log_sample, log_env


def mp_lifelong_delta(n, m, d_phi, B, gamma, epsilon, C=1.0):
    ls, le = mp_lifelong_log_terms(n, m, d_phi, B, gamma, epsilon, C)
    return min(mp.e**ls + mp.e**le, mp.mpf(1))


def rel_err(value, oracle) -> float:
    oracle = mp.mpf(oracle)
    if oracle == 0:
        return abs(float(value))
    return float(abs(mp.mpf(float(value)) - oracle) / abs(oracle))


# ---------------------------------------------------------------------------
# combinatorial oracles
# ---------------------------------------------------------------------------


def min_cover_size(D: np.ndarray, epsilon: float, max_size: int) -> int:
    """Smallest subset of candidates covering all of them within epsilon."""
    n = D.shape[0]
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(n), size):
            if np.min(D[list(subset)], axis=0).max() <= epsilon:
                return size
    raise AssertionError(f"no cover of size <= {max_size}")


def shattered_naive(V: np.ndarray) -> bool:
    """Naive oracle: try every midpoint threshold combination and count
    realized sign patterns by brute force."""
    n_members, p = V.shape
    per_pair = []
    for i in range(p):
        distinct = np.unique(V[:, i])
        if len(distinct) < 2:
            return False
        per_pair.append(((distinct[1:] + distinct[:-1]) / 2.0).tolist())
    for combo in itertools.product(*per_pair):
        patterns = {tuple(1 if V[j, i] > combo[i] else -1 for i in range(p))
                    for j in range(n_members)}
        if len(patterns) == 2 ** p:
            return True
    return False


def shatter_scan_reference(masks, counts, valid, max_combos):
    """Brute-force threshold-combination scan with the contract of
    ``mtkl._accel.shatter_scan``: member sets as Python integers, combos in
    odometer order (pair 0 fastest), status -1 when the grid exceeds the
    budget, else 1 with the first shattering combo or 0."""
    p = len(counts)
    if math.prod(int(c) for c in counts) > max_combos:
        return -1, None
    sets = [sum(int(w) << (64 * k) for k, w in enumerate(row)) for row in masks]
    members = sum(int(w) << (64 * k) for k, w in enumerate(valid))
    offsets = [sum(int(c) for c in counts[:i]) for i in range(p)]
    for combo in itertools.product(*(range(int(c)) for c in reversed(counts))):
        choice = combo[::-1]
        above = [sets[offsets[i] + choice[i]] for i in range(p)]
        cells = [members] * 2 ** p
        for cell in range(2 ** p):
            for i in range(p):
                cells[cell] &= above[i] if (cell >> i) & 1 else ~above[i]
        if all(cells):
            return 1, list(choice)
    return 0, None


def _ball_grid(dim: int, steps: int) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, steps)] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return pts[np.einsum("ni,ni->n", pts, pts) <= 1.0 + 1e-12]


def grid_kernel_deviation(G1: np.ndarray, G2: np.ndarray,
                          steps: int = 25) -> float:
    """Dense-grid oracle for the symmetrized max-min mean deviation between
    the unit balls of two Gram matrices (3-point samples only). The inner
    minimum is polished by staged local grid refinement around the coarse
    argmin, so its bias shrinks geometrically."""
    assert G1.shape[0] <= 3

    def sqrtm(G):
        w, V = np.linalg.eigh(G)
        return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T

    def inner_min(u, Bm, m):
        ball = _ball_grid(m, steps)
        vals = np.abs(ball @ Bm.T - u[None, :]).mean(axis=1)
        best = int(np.argmin(vals))
        best_val, center = float(vals[best]), ball[best]
        span = 2.0 / (steps - 1)
        local_axes = [np.linspace(-1.0, 1.0, 11)] * m
        offsets = np.stack(np.meshgrid(*local_axes, indexing="ij"),
                           axis=-1).reshape(-1, m)
        for _ in range(4):
            pts = center[None, :] + span * offsets
            pts = pts[np.einsum("ni,ni->n", pts, pts) <= 1.0 + 1e-12]
            if len(pts) == 0:
                break
            vals = np.abs(pts @ Bm.T - u[None, :]).mean(axis=1)
            best = int(np.argmin(vals))
            if vals[best] < best_val:
                best_val, center = float(vals[best]), pts[best]
            span *= 0.2
        return best_val

    def one_way(Ga, Gb):
        m = Ga.shape[0]
        A, Bm = sqrtm(Ga), sqrtm(Gb)
        sphere = _ball_grid(m, steps)
        norms = np.linalg.norm(sphere, axis=1)
        shell = sphere[norms > 1.0 - 2.0 / steps] / \
            norms[norms > 1.0 - 2.0 / steps][:, None]
        return max(inner_min(u, Bm, m) for u in shell @ A.T)

    return max(one_way(G1, G2), one_way(G2, G1))


def grid_best_margin_error(K: np.ndarray, y: np.ndarray, gamma: float,
                           pitch: float = 0.01) -> float:
    """Exhaustive search over dual coefficients of a 2-point problem for the
    smallest 0-1 margin error inside the unit K-ball. The grid radius adapts
    to the smallest eigenvalue (the ball stretches along near-null
    directions)."""
    assert K.shape == (2, 2)
    lam_min = max(float(np.linalg.eigvalsh(K).min()), 1e-6)
    radius = min(1.0 / np.sqrt(lam_min) + pitch, 8.0)
    grid = np.arange(-radius, radius + pitch / 2, pitch)
    A0, A1 = np.meshgrid(grid, grid, indexing="ij")
    alphas = np.stack([A0.ravel(), A1.ravel()], axis=1)
    norms = np.einsum("ni,ij,nj->n", alphas, K, alphas)
    feasible = alphas[norms <= 1.0 + 1e-12]
    margins = (feasible @ K) * y[None, :]
    errors = np.mean(margins < gamma, axis=1)
    return float(errors.min())


# ---------------------------------------------------------------------------
# solver oracle
# ---------------------------------------------------------------------------


def hinge_pgd_reference(K, y, gamma, alpha0, max_iters, tol, step0):
    """Projected subgradient descent on (1/m) sum_j max(0, 1 - y_j (K a)_j /
    gamma) over a^T K a <= 1, backtracking one halving at a time from
    ``step0`` (at most 60). Returns (alpha, objective, iterations, converged)."""
    m = K.shape[0]
    alpha = alpha0.copy()
    v = K @ alpha
    aKa = float(alpha @ v)

    def hinge(values):
        return float(np.mean(np.maximum(0.0, 1.0 - y * values / gamma)))

    obj = hinge(v)
    it = 0
    converged = False
    for it in range(1, max_iters + 1):
        active = (1.0 - y * v / gamma) > 0.0
        if not active.any():
            converged = True
            break
        g = K @ (-(y * active) / (m * gamma))
        Kg = K @ g
        gKg = float(g @ Kg)
        gKa = float(g @ v)

        step = step0
        improved = False
        scale = 1.0
        new_obj = obj
        for _bt in range(60):
            q = max(aKa - 2.0 * step * gKa + step * step * gKg, 0.0)
            scale = 1.0 / math.sqrt(q) if q > 1.0 else 1.0
            v_cand = scale * (v - step * Kg)
            cand_obj = hinge(v_cand)
            if cand_obj <= obj:
                improved = True
                new_obj = cand_obj
                break
            step *= 0.5
        if not improved:
            converged = True
            break
        alpha = scale * (alpha - step * g)
        v = v_cand
        aKa = scale * scale * max(aKa - 2.0 * step * gKa + step * step * gKg, 0.0)
        gain = obj - new_obj
        obj = new_obj
        if gain < tol:
            converged = True
            break
    return alpha, obj, it, converged
