"""Independent oracles used by the test suite.

These deliberately share no code with the package: bound formulas are
re-evaluated term by term in mpmath arbitrary precision, and in plain floats
with their constants multiplied in (the form the package must match bit for
bit), covers are found by exhaustive subset search, shattering by naive
pattern enumeration (and the threshold scan by a brute-force scan over Python
integer sets, threshold candidates by a per-column ``np.unique`` loop, and
the pseudodimension search by deciding every subset with a brute-force
threshold loop), sparse search grids by filtering every count vector, and
tiny fits by dense grids over the dual coefficients. Kernel expansions are
summed entry by entry with ``math.fsum`` from textbook kernel formulas, and
RBF cross-Grams are also built by the older in-place builder, which the
package's must equal byte for byte. The scalar hinge solver is the
one-problem, one-trial-step-at-a-time loop that the vectorised solver in
``mtkl._accel`` must reproduce bit for bit. The full-width sampler draws
every coordinate of every rejection round, as ``Distribution.sample`` did
before it drew only the planted rule's columns.
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


def mp_cover_bound_hn(n, m, B, d_phi, epsilon):
    n, m, B, d, e = map(mp.mpf, (n, m, B, d_phi, epsilon))
    return (n * mp.log(2)
            + d * clog(4 * mp.e * n**2 * m**3 * B / (e**2 * d))
            + (64 * B * n / e**2) * clog(mp.e * e * m / (8 * mp.sqrt(B)))
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


def _float_clog(x, clamped):
    if x <= 1.0:
        clamped.append(x)
        return 0.0
    return math.log(x)


def float_multitask_epsilon(n, m, d_phi, B, gamma, delta):
    """The multi-task radius in floats, with the cover constants multiplied
    in: (epsilon, valid, terms, clamped log arguments in order)."""
    clamped = []
    t_confidence = (2.0 * math.log(2.0) - math.log(delta)) / n
    t_patterns = math.log(2.0)
    t_kernel = (d_phi / n) * _float_clog(
        128.0 * math.e * n**2 * m**3 * B / (gamma**2 * d_phi), clamped)
    t_function = (256.0 * B / gamma**2) * _float_clog(
        gamma * math.e * m / (8.0 * math.sqrt(B)), clamped) * _float_clog(
        128.0 * m * B / gamma**2, clamped)
    epsilon = math.sqrt(
        8.0 * (t_confidence + t_patterns + t_kernel + t_function) / m)
    terms = {"confidence": t_confidence, "patterns": t_patterns,
             "kernel_overhead": t_kernel, "function_cover": t_function}
    return epsilon, epsilon > 0 and m > 2.0 / epsilon**2, terms, clamped


def float_lifelong_log_terms(n, m, d_phi, B, gamma, epsilon, C, clamped):
    """The lifelong bound's two log summands in floats, with the cover
    constants multiplied in; clamped log arguments are appended."""
    log_sample = ((n + 2) * math.log(2.0)
                  + d_phi * _float_clog(
                      512.0 * math.e * n**2 * m**3 * B / (gamma**2 * d_phi),
                      clamped)
                  + (1024.0 * B * n / gamma**2)
                  * _float_clog(math.e * gamma * m / (16.0 * math.sqrt(B)),
                                clamped)
                  * _float_clog(512.0 * m * B / gamma**2, clamped)
                  - n * m * epsilon**2 / 32.0)
    log_env = (math.log(4.0)
               + d_phi * (math.log(32.0 * C) + 5.0 * math.log(n)
                          + 5.0 * math.log(d_phi)
                          + 17.0 * math.log(64.0 * math.sqrt(B)
                                            / (epsilon * gamma)))
               - n * epsilon**2 / 128.0)
    return log_sample, log_env


def _float_log_add(a, b):
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def float_lifelong_delta(n, m, d_phi, B, gamma, epsilon, C=1.0):
    """(delta, log_sample, log_env, overflow, valid, clamped) in floats."""
    clamped = []
    ls, le = float_lifelong_log_terms(n, m, d_phi, B, gamma, epsilon, C,
                                      clamped)
    total = _float_log_add(ls, le)
    delta = min(1.0 if total > 0.0 else math.exp(total), 1.0)
    valid = n > 8.0 / epsilon**2 and m > 8.0 / epsilon**2
    return delta, ls, le, ls > 0.0 or le > 0.0, valid, clamped


def float_invert_epsilon(n, m, d_phi, B, gamma, target, C=1.0):
    """Bisection for the radius whose float lifelong failure probability is
    ``target`` on the bracket [1e-6, 2]; None when it is not bracketed."""
    log_target = math.log(target)

    def log_total(eps):
        return _float_log_add(*float_lifelong_log_terms(
            n, m, d_phi, B, gamma, eps, C, []))

    lo, hi = 1e-6, 2.0
    if log_total(lo) - log_target < 0.0 or log_total(hi) - log_target > 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_total(mid) - log_target > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def base_kernel_entry(base, s, x) -> float:
    """k(s, x) for one ``BaseKernel``, by its textbook formula on Python
    floats (sums by ``math.fsum``); only the kernel's parameters are read."""
    if base.dims is not None:
        s, x = [s[i] for i in base.dims], [x[i] for i in base.dims]
    if base.kind == "rbf":
        sq = math.fsum((a - b) ** 2 for a, b in zip(s, x))
        return math.exp(-sq / (2.0 * base.bandwidth ** 2))
    if base.kind == "linear":
        return base.scale * math.fsum(a * b for a, b in zip(s, x))
    if base.kind == "poly":
        return (base.scale * math.fsum(a * b for a, b in zip(s, x))
                + base.coef0) ** base.degree
    if base.kind == "gaussian_metric":
        M = base.metric.tolist()
        diff = [a - b for a, b in zip(s, x)]
        return math.exp(-0.5 * math.fsum(diff[i] * M[i][j] * diff[j]
                                         for i in range(len(diff))
                                         for j in range(len(diff))))
    return float(base.func(s, x))


def kernel_expansion_fsum(kernel, coeffs, S, X) -> np.ndarray:
    """sum_j coeffs[j] k(S[j], x) at each row x of X, one entry at a time:
    every (term, support point) product is summed by one ``math.fsum``."""
    S, X, coeffs = np.asarray(S).tolist(), np.asarray(X).tolist(), list(coeffs)
    return np.array([math.fsum(w * c * base_kernel_entry(base, s, x)
                               for w, base in kernel.terms
                               for c, s in zip(coeffs, S))
                     for x in X])


def rbf_cross_reference(X, Z, bandwidth, block_bytes=1 << 18):
    """exp(-max((xx + zz) - 2·(X Zᵀ), 0) / (2 bw²)) by the older builder's
    operations in its order: ``np.sum`` row norms, X @ Zᵀ doubled in place,
    (xx + zz) minus it in row blocks of ``block_bytes``, the clamp, the
    negation, the division and ``exp``."""
    xx = np.sum(X * X, axis=1)[:, None]
    zz = np.sum(Z * Z, axis=1)[None, :]
    d2 = X @ Z.T
    d2 *= 2.0
    step = max(1, block_bytes // (8 * d2.shape[1]))
    for r in range(0, len(d2), step):
        part = d2[r:r + step]
        np.subtract(xx[r:r + step] + zz, part, out=part)
    np.maximum(d2, 0.0, out=d2)
    np.negative(d2, out=d2)
    d2 /= 2.0 * bandwidth * bandwidth
    np.exp(d2, out=d2)
    return d2


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


def shatter_scan_reference(above, counts, max_combos):
    """Brute-force threshold-combination scan with the contract of
    ``mtkl._accel.shatter_scan``: member sets as Python integers, combos in
    odometer order (pair 0 fastest), status -1 when the grid exceeds the
    budget, else 1 with the first combo whose 2^p sign-pattern cells are all
    non-empty, or 0."""
    p = len(counts)
    if math.prod(int(c) for c in counts) > max_combos:
        return -1, None
    sets = [sum(1 << j for j, bit in enumerate(row) if bit) for row in above]
    members = (1 << len(above[0])) - 1
    offsets = [sum(int(c) for c in counts[:i]) for i in range(p)]
    for combo in itertools.product(*(range(int(c)) for c in reversed(counts))):
        choice = combo[::-1]
        chosen = [sets[offsets[i] + choice[i]] for i in range(p)]
        cells = [members] * 2 ** p
        for cell in range(2 ** p):
            for i in range(p):
                cells[cell] &= chosen[i] if (cell >> i) & 1 else ~chosen[i]
        if all(cells):
            return 1, list(choice)
    return 0, None


def pair_thresholds_reference(V: np.ndarray, tie_rtol: float = 1e-12):
    """Threshold candidates of each column of V, one column at a time: its
    distinct values (``np.unique``), the gaps wider than ``tie_rtol`` times
    max(1, |either end|), and the midpoints of those gaps in ascending order;
    None when no gap is wide enough."""
    out = []
    for i in range(V.shape[1]):
        v = np.unique(V[:, i])
        size = np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        split = np.diff(v) > tie_rtol * size
        out.append((v[:-1][split] + v[1:][split]) / 2.0 if split.any() else None)
    return out


def pseudodim_reference(V: np.ndarray, max_n: int, trials_per_n: int,
                        max_combos: int, seed: int, tie_rtol: float = 1e-12):
    """The pseudodimension search on the value table V[member, pair]: greedy
    extension of the best subset by one pair (lowest pair index first), then
    ``trials_per_n`` random subsets drawn from ``default_rng(seed)``, stopping
    at the first size with no shattered subset. Each subset is decided by
    brute force over its pairs' candidates in odometer order (pair 0
    fastest): the first combination under which every one of the 2^p sign
    patterns occurs among the members wins. A subset whose pairs have
    more than ``max_combos`` combinations marks the budget exhausted and
    counts as not shattered. Returns (lower_bound, pair_indices, thresholds
    or None, budget_exhausted)."""
    candidates = pair_thresholds_reference(V, tie_rtol)
    n_members, n_pairs = V.shape
    rng = np.random.default_rng(seed)
    exhausted = False

    def decide(subset):
        nonlocal exhausted
        p = len(subset)
        lists = [candidates[i] for i in subset]
        if n_members < 2 ** p or any(t is None for t in lists):
            return None
        if math.prod(len(t) for t in lists) > max_combos:
            exhausted = True
            return None
        for combo in itertools.product(*(t.tolist() for t in reversed(lists))):
            chosen = combo[::-1]
            patterns = {tuple(V[j, i] > t for i, t in zip(subset, chosen))
                        for j in range(n_members)}
            if len(patterns) == 2 ** p:
                return chosen
        return None

    best, best_t = (), None
    for n in range(1, max_n + 1):
        found = None
        for extra in range(n_pairs):
            if extra not in best:
                subset = tuple(sorted(best + (extra,)))
                if (t := decide(subset)) is not None:
                    found = subset, t
                    break
        if found is None and n_pairs >= n:
            for _ in range(trials_per_n):
                subset = tuple(sorted(rng.choice(n_pairs, size=n,
                                                 replace=False).tolist()))
                if (t := decide(subset)) is not None:
                    found = subset, t
                    break
        if found is None:
            break
        best, best_t = found
    return len(best), best, best_t, exhausted


def sparse_candidates_reference(n_dict, sparsity, res):
    """Every weight vector with entries i/res summing to 1 and at most
    ``sparsity`` nonzeros, once each, as (weights, label) in the search's
    canonical order: by support size, then support (lexicographic), then
    counts on the support (lexicographically descending)."""
    vectors = [c for c in itertools.product(range(res + 1), repeat=n_dict)
               if sum(c) == res and 0 < sum(map(bool, c)) <= sparsity]

    def order(c):
        support = tuple(i for i in range(n_dict) if c[i])
        return len(support), support, tuple(-c[i] for i in support)

    out = []
    for c in sorted(vectors, key=order):
        w = np.array(c, dtype=np.float64) / res
        support = [i for i in range(n_dict) if c[i]]
        out.append((w.tolist(), f"sparse{support}w={np.round(w, 6).tolist()}"))
    return out


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
# sampling oracle
# ---------------------------------------------------------------------------


def full_width_sample(dist, m, rng):
    """m labeled draws from ``dist``: each rejection round of max(2m, 64)
    inputs draws all ``dim`` coordinates (``rng.uniform`` on a cube, a
    component then a normal offset on a mixture) and keeps the rows with
    |h*(x)| >= margin_gap; the kept planted signs, flipped at ``flip_rate``,
    are the labels."""
    law = dist.input_law
    xs, vs, kept = [], [], 0
    for _ in range(1000):
        rows = max(2 * m, 64)
        if law.kind == "uniform_cube":
            batch = rng.uniform(law.low, law.high, (rows, law.dim))
        else:
            comp = rng.choice(len(law.weights), size=rows, p=law.weights)
            batch = law.means[comp] + law.scales[comp, None] * \
                rng.standard_normal((rows, law.dim))
        vals = dist.decision_values(batch)
        good = np.abs(vals) >= dist.margin_gap
        xs.append(batch[good])
        vs.append(vals[good])
        kept += int(good.sum())
        if kept >= m:
            break
    else:
        raise AssertionError("margin gap rejects nearly all inputs")
    X = np.concatenate(xs)[:m]
    y = np.where(np.concatenate(vs)[:m] >= 0.0, 1.0, -1.0)
    if dist.flip_rate > 0.0:
        y = np.where(rng.random(m) < dist.flip_rate, -y, y)
    return X, y


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
