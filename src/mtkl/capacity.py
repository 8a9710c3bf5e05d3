"""Empirical capacity measurement for kernel families.

Two complementary tools:

* pseudo-shattering search: certifies LOWER bounds on a family's
  pseudodimension by exhibiting point pairs, thresholds and members that
  realize every sign pattern. Upper bounds come from the analytic formulas
  in :mod:`mtkl.kernels`; together they bracket the true value.
* greedy sup-metric covers: farthest-point epsilon-nets over finite
  candidate sets under three metrics (predictor values, Gram entries, or
  the max-min mean-deviation distance between kernels), with an exhaustive
  validity post-check.

Thresholds for shattering are restricted to midpoints of consecutive
distinct kernel values per pair: sign patterns only change at the values
themselves, so midpoints lose nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri
from scipy.stats import qmc

from . import _accel
from .errors import BudgetError, InputError
from .kernels import Kernel, as_points

MAX_SHATTER_PAIRS = 20
METRICS = ("predictor_sup", "kernel_sup", "kernel_mean_dev")


# ---------------------------------------------------------------------------
# Pseudo-shattering.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShatterInstance:
    """Point pairs plus a finite list of family members to shatter with.

    ``thresholds`` fixes the thresholds when present; otherwise they are
    searched over per-pair value midpoints.
    """

    pairs: np.ndarray  # (p, 2, dim)
    members: tuple[Kernel, ...]
    thresholds: Optional[np.ndarray] = None

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.float64)
        if pairs.ndim == 2:  # (p, 2) of scalars
            pairs = pairs[:, :, None]
        if pairs.ndim != 3 or pairs.shape[1] != 2:
            raise InputError("pairs must have shape (p, 2, dim)")
        flat = [tuple(row.ravel()) for row in pairs]
        if len(set(flat)) != len(flat):
            raise InputError("pairs must be distinct")
        object.__setattr__(self, "pairs", pairs)
        if not self.members:
            raise InputError("need at least one family member")
        if self.thresholds is not None:
            t = np.asarray(self.thresholds, dtype=np.float64).ravel()
            if len(t) != pairs.shape[0]:
                raise InputError("thresholds length must match pairs")
            object.__setattr__(self, "thresholds", t)

    @property
    def n_pairs(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True, eq=False)
class ShatterWitness:
    thresholds: np.ndarray
    pattern_members: dict  # sign pattern tuple -> member index realizing it


def _pair_values(members: Sequence[Kernel], pairs: np.ndarray) -> np.ndarray:
    """Value matrix V[member, pair] = K(x, x')."""
    p = pairs.shape[0]
    left = as_points(pairs[:, 0, :])
    right = as_points(pairs[:, 1, :])
    V = np.empty((len(members), p))
    for j, kern in enumerate(members):
        V[j] = np.array([kern.cross(left[i:i + 1], right[i:i + 1])[0, 0]
                         for i in range(p)])
    return V


def _pack_masks(V: np.ndarray, threshold_lists: list[np.ndarray]):
    """Per-pair, per-candidate bitmasks of {member: value > t} packed in uint64,
    plus the valid-member bit mask (complements must not leak phantom bits)."""
    members = V.shape[0]
    n_words = (members + 63) // 64
    counts = np.array([len(t) for t in threshold_lists], dtype=np.int64)
    masks = np.zeros((int(counts.sum()), n_words), dtype=np.uint64)
    valid = np.zeros(n_words, dtype=np.uint64)
    for j in range(members):
        valid[j // 64] |= np.uint64(1) << np.uint64(j % 64)
    row = 0
    for i, thresholds in enumerate(threshold_lists):
        above = V[None, :, i] > thresholds[:, None]  # (cand, members)
        for w in range(n_words):
            chunk = above[:, w * 64:(w + 1) * 64].astype(np.uint64)
            weights = np.uint64(1) << np.arange(chunk.shape[1], dtype=np.uint64)
            masks[row:row + len(thresholds), w] = (chunk * weights).sum(
                axis=1, dtype=np.uint64)
        row += len(thresholds)
    return masks, counts, valid


def _witness(V: np.ndarray, thresholds: np.ndarray) -> Optional[ShatterWitness]:
    p = V.shape[1]
    signs = np.where(V > thresholds[None, :], 1, -1)
    pattern_members: dict = {}
    for j in range(V.shape[0]):
        pattern_members.setdefault(tuple(int(s) for s in signs[j]), j)
    if len(pattern_members) == 2 ** p:
        return ShatterWitness(thresholds=thresholds.copy(),
                              pattern_members=pattern_members)
    return None


def is_shattered(instance: ShatterInstance,
                 max_combos: int = 200_000) -> tuple[bool, Optional[ShatterWitness]]:
    """Search for thresholds realizing all 2^p sign patterns.

    Raises BudgetError whenever the product of the per-pair threshold
    candidate counts exceeds ``max_combos``, even if an early combination
    would shatter; the search never silently returns False in that case.
    """
    p = instance.n_pairs
    if p > MAX_SHATTER_PAIRS:
        raise InputError(f"at most {MAX_SHATTER_PAIRS} pairs supported, got {p}")
    V = _pair_values(instance.members, instance.pairs)
    if instance.thresholds is not None:
        witness = _witness(V, instance.thresholds)
        return witness is not None, witness
    if len(instance.members) < 2 ** p:
        return False, None
    threshold_lists = []
    for i in range(p):
        distinct = np.unique(V[:, i])
        if len(distinct) < 2:
            return False, None
        threshold_lists.append((distinct[1:] + distinct[:-1]) / 2.0)
    masks, counts, valid = _pack_masks(V, threshold_lists)
    status, choice = _accel.shatter_scan(masks, counts, valid, max_combos)
    if status == -1:
        raise BudgetError(
            f"threshold search for {p} pairs exceeds max_combos={max_combos}")
    if status == 0:
        return False, None
    thresholds = np.array([threshold_lists[i][choice[i]] for i in range(p)])
    witness = _witness(V, thresholds)
    assert witness is not None, "scan accepted a combo the witness check rejects"
    return True, witness


@dataclass(frozen=True)
class PseudodimBudget:
    max_n: int = 4
    trials_per_n: int = 16
    max_combos: int = 200_000
    seed: int = 0


@dataclass(frozen=True, eq=False)
class PseudodimResult:
    lower_bound: int
    pair_indices: tuple[int, ...]
    witness: Optional[ShatterWitness]
    budget_exhausted: bool


def pseudodim_lower_bound(members: Sequence[Kernel], point_pool,
                          budget: PseudodimBudget = PseudodimBudget()) -> PseudodimResult:
    """Largest certified number of pseudo-shattered pairs found by greedy
    extension plus randomized restarts over pairs from the pool.

    The result is a lower bound with a stored witness, never an upper bound;
    ``budget_exhausted`` reports that some shatter checks hit the combo cap.
    """
    pool = as_points(point_pool)
    idx_pairs = [(i, j) for i in range(pool.shape[0])
                 for j in range(i, pool.shape[0])]
    pairs_all = np.stack([np.stack((pool[i], pool[j])) for i, j in idx_pairs])
    members = tuple(members)
    rng = np.random.default_rng(budget.seed)
    exhausted = False

    def try_subset(subset: tuple[int, ...]):
        nonlocal exhausted
        inst = ShatterInstance(pairs=pairs_all[list(subset)], members=members)
        try:
            return is_shattered(inst, max_combos=budget.max_combos)
        except BudgetError:
            exhausted = True
            return False, None

    best: tuple[tuple[int, ...], Optional[ShatterWitness]] = ((), None)
    current: list[tuple[int, ...]] = [()]
    for n in range(1, budget.max_n + 1):
        found = None
        # greedy: extend each current witness set by one pool pair
        for base in current:
            for extra in range(len(idx_pairs)):
                if extra in base:
                    continue
                subset = tuple(sorted(base + (extra,)))
                ok, wit = try_subset(subset)
                if ok:
                    found = (subset, wit)
                    break
            if found:
                break
        if not found and len(idx_pairs) >= n:
            for _ in range(budget.trials_per_n):
                subset = tuple(sorted(rng.choice(len(idx_pairs), size=n,
                                                 replace=False).tolist()))
                ok, wit = try_subset(subset)
                if ok:
                    found = (subset, wit)
                    break
        if not found:
            break
        best = found
        current = [found[0]]
    return PseudodimResult(lower_bound=len(best[0]), pair_indices=best[0],
                           witness=best[1], budget_exhausted=exhausted)


# ---------------------------------------------------------------------------
# Greedy covers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverRequest:
    """Candidates, metric, and radius for a greedy epsilon-net.

    metric:
      predictor_sup   sup over evaluation points of value differences
                      (candidates: value arrays, predictors, or tuples of
                      per-task predictors)
      kernel_sup      max over tasks of the sup-norm Gram difference
                      (candidates: kernels)
      kernel_mean_dev max-min mean absolute deviation between unit balls
                      (candidates: kernels; see kernel_deviation_distance)
    """

    metric: str
    epsilon: float
    candidates: tuple
    evaluation_sample: object = None
    probe_budget: int = 16

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InputError(f"metric must be one of {METRICS}")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if not self.candidates:
            raise InputError("candidates must be nonempty")
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True, eq=False)
class CoverResult:
    center_indices: tuple[int, ...]
    size: int
    max_distance: float  # certified: max over candidates of distance to cover


def _task_list(sample) -> list[np.ndarray]:
    # a list/tuple groups points per task; a bare array is one task
    if sample is None:
        raise InputError("this metric requires an evaluation_sample")
    if isinstance(sample, (list, tuple)):
        return [as_points(s) for s in sample]
    return [as_points(sample)]


def _candidate_values(request: CoverRequest) -> np.ndarray:
    rows = []
    if request.metric == "kernel_sup":
        tasks = _task_list(request.evaluation_sample)
        for kern in request.candidates:
            rows.append(np.concatenate([kern.gram(t).ravel() for t in tasks]))
    else:
        tasks = None
        for cand in request.candidates:
            if isinstance(cand, np.ndarray):
                rows.append(cand.ravel().astype(np.float64))
                continue
            if tasks is None:
                tasks = _task_list(request.evaluation_sample)
            if isinstance(cand, (list, tuple)):
                if len(cand) != len(tasks):
                    raise InputError("predictor tuple length must match task count")
                rows.append(np.concatenate(
                    [np.asarray(p.evaluate(t), dtype=np.float64)
                     for p, t in zip(cand, tasks)]))
            else:
                rows.append(np.concatenate(
                    [np.asarray(cand.evaluate(t), dtype=np.float64) for t in tasks]))
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise InputError("candidates produce inconsistent value lengths")
    return np.stack(rows)


def pairwise_distances(request: CoverRequest) -> np.ndarray:
    if request.metric == "kernel_mean_dev":
        sample = as_points(np.concatenate(
            [t for t in _task_list(request.evaluation_sample)]))
        n = len(request.candidates)
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = kernel_deviation_distance(
                    request.candidates[i], request.candidates[j], sample,
                    request.probe_budget)
        return D
    return _accel.chebyshev_pdist(_candidate_values(request))


def greedy_cover(request: CoverRequest) -> CoverResult:
    """Farthest-point epsilon-net; deterministic given candidate order.

    Starts from candidate 0 and adds the farthest-from-cover candidate until
    everything is within epsilon. The returned max_distance is recomputed
    from the full distance matrix as an exhaustive validity check.
    """
    D = pairwise_distances(request)
    centers = [0]
    dist_to_cover = D[0].copy()
    while True:
        far = int(np.argmax(dist_to_cover))
        if dist_to_cover[far] <= request.epsilon:
            break
        centers.append(far)
        np.minimum(dist_to_cover, D[far], out=dist_to_cover)
    max_dist = float(np.min(D[centers], axis=0).max())
    if max_dist > request.epsilon:
        raise AssertionError("greedy cover failed its validity post-check")
    return CoverResult(center_indices=tuple(centers), size=len(centers),
                       max_distance=max_dist)


# ---------------------------------------------------------------------------
# Empirical max-min kernel distance.
# ---------------------------------------------------------------------------


def _unit_ball_l1_gap(u: np.ndarray, G: np.ndarray) -> float:
    """min over {v = G beta : beta^T G beta <= 1} of mean |u - v|.

    Solved through its box dual  max_{|lam|_inf <= 1} lam'u - ||G^{1/2} lam||
    (strong duality: compact convex sets, bilinear objective), which L-BFGS-B
    handles smoothly away from G lam = 0.
    """
    m = len(u)
    ridge = 1e-18

    def neg_gap(lam):
        Gl = G @ lam
        nrm = np.sqrt(lam @ Gl + ridge)
        val = lam @ u - nrm
        grad = u - Gl / nrm
        return -val, -grad

    x0 = 0.5 * np.sign(u)
    x0[x0 == 0.0] = 0.5
    res = minimize(neg_gap, x0, jac=True, method="L-BFGS-B",
                   bounds=[(-1.0, 1.0)] * m,
                   options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
    return max(0.0, -float(res.fun)) / m


def _deviation_one_way(G_from: np.ndarray, G_to: np.ndarray,
                       directions: np.ndarray) -> float:
    worst = 0.0
    for d in directions:
        q = float(d @ G_from @ d)
        if q <= 1e-14:
            continue
        u = G_from @ (d / np.sqrt(q))
        worst = max(worst, _unit_ball_l1_gap(u, G_to))
    return worst


def kernel_deviation_distance(k1: Kernel, k2: Kernel, sample,
                              probe_budget: int = 16) -> float:
    """Approximate max-min mean absolute deviation between the unit balls of
    two kernels on a sample, symmetrized over both directions.

    The outer max is probed with a deterministic low-discrepancy set of
    unit-norm dual directions; the inner min over the other ball is solved
    exactly (convex duality). Approximation error therefore only ever
    underestimates the outer max.
    """
    if probe_budget < 1:
        raise InputError("probe_budget must be >= 1")
    X = as_points(sample)
    m = X.shape[0]
    G1 = k1.gram(X)
    G2 = k2.gram(X)
    sob = qmc.Sobol(d=m, scramble=True, seed=7)
    # draw a power-of-two block (Sobol balance), keep the requested count
    n_draw = 1 << max(0, int(np.ceil(np.log2(probe_budget))))
    u01 = np.clip(sob.random(n_draw)[:probe_budget], 1e-12, 1.0 - 1e-12)
    directions = ndtri(u01)
    return max(_deviation_one_way(G1, G2, directions),
               _deviation_one_way(G2, G1, directions))
