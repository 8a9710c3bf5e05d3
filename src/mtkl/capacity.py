"""Empirical capacity measurement for kernel families.

Two complementary tools:

* pseudo-shattering search: certifies LOWER bounds on a family's
  pseudodimension by exhibiting point pairs, thresholds and members that
  realize every sign pattern. Upper bounds come from the analytic formulas
  in :mod:`mtkl.kernels`; together they bracket the true value.
* greedy sup-metric covers: one distance matrix per finite candidate set
  under three metrics (predictor values, Gram entries, or the max-min
  mean-deviation distance between kernels), then a farthest-point
  epsilon-net per radius with an exhaustive validity post-check.

Thresholds for shattering are restricted to midpoints between consecutive
clusters (``TIE_RTOL``) of kernel values per pair: sign patterns only change
at the values themselves, so midpoints lose nothing. They and the members
above each are computed once per value table; one search decides every subset.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import cdist
from scipy.special import ndtri
from scipy.stats import qmc

from . import _accel
from .errors import (BudgetError, InputError, NumericError, number_array,
                     require_int, require_number)
from .kernels import Kernel, as_points, grams

# Sorted values of one pair that differ by at most TIE_RTOL * max(1, |v|) are
# one value: for a coincident pair (x, x), RBF members give K(x, x) = 1 only up
# to rounding, and a threshold between 1 and 1 - ulp would shatter on noise.
TIE_RTOL = 1e-12
# The value table's pairs (i, j), i <= j, built once per pool size; read only.
_pool_pairs = functools.cache(np.triu_indices)
METRICS = ("predictor_sup", "kernel_sup", "kernel_mean_dev")
# Dual directions kernel_deviation_distance probes when no budget is given.
PROBE_BUDGET = 16


# ---------------------------------------------------------------------------
# Pseudo-shattering.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShatterInstance:
    """Point pairs plus a finite list of family members to shatter with.

    ``thresholds`` fixes the thresholds when present; otherwise they are
    searched over the midpoints between each pair's value clusters.
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


def _pair_thresholds(V: np.ndarray) -> list[Optional[np.ndarray]]:
    """Per column of the value table V[member, pair]: the ascending midpoints
    between its value clusters (``TIE_RTOL``), or None for one cluster. Exact
    duplicates differ by 0 and never split, so no ``np.unique`` is needed."""
    S = np.sort(V, axis=0)
    lo, hi = S[:-1], S[1:]
    split = hi - lo > TIE_RTOL * np.maximum(1.0, np.maximum(np.abs(lo),
                                                            np.abs(hi)))
    mids = (lo + hi) / 2.0
    return [mids[split[:, i], i] if split[:, i].any() else None
            for i in range(V.shape[1])]


def _member_sets(above: np.ndarray) -> list[int]:
    """Each row of the boolean ``above`` as a Python int, bit j for column j."""
    packed = np.packbits(above, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _threshold_table(V: np.ndarray) -> list:
    """Per column i of V: None, or its candidates t with, per candidate, the
    members above it (``_member_sets`` of ``V[:, i] > t[:, None]``)."""
    return [None if t is None else (t, _member_sets(V[:, i] > t[:, None]))
            for i, t in enumerate(_pair_thresholds(V))]


def _shatter_values(V: np.ndarray, table: list, subset: Sequence[int],
                    max_combos: int) -> tuple[bool, Optional[ShatterWitness]]:
    """``is_shattered`` on the columns ``subset`` of V, with ``table`` =
    ``_threshold_table(V)``."""
    p = len(subset)
    if V.shape[0] < 2 ** p:
        return False, None
    rows = [table[i] for i in subset]
    if None in rows:
        return False, None
    status, choice = _accel.shatter_scan(
        [s for _, sets in rows for s in sets], [len(t) for t, _ in rows],
        max_combos, V.shape[0])
    if status == -1:
        raise BudgetError(
            f"threshold search for {p} pairs exceeds max_combos={max_combos}")
    if status == 0:
        return False, None
    thresholds = np.array([t[c] for (t, _), c in zip(rows, choice)])
    witness = _witness(V[:, list(subset)], thresholds)
    if witness is None:
        raise NumericError("shatter scan accepted thresholds that do not "
                           "realize every sign pattern")
    return True, witness


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, whose row i is the kernel values of ``what`` i; a row with
    a NaN or infinite entry raises NumericError naming it."""
    finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"{what} {int(np.argmin(finite))} has a non-finite kernel value")
    return values


def _pool_values(members: Sequence[Kernel], pool: np.ndarray,
                 left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Value table V[member, pair] = K(pool[left], pool[right]), read off
    each member's pool Gram; checked finite, member by member. The Grams
    come from ``grams``, so each distinct base kernel's is built once."""
    return _finite(np.stack([G[left, right] for G in grams(members, pool)]),
                   "member")


@dataclass(frozen=True)
class PseudodimBudget:
    max_n: int = 4
    trials_per_n: int = 16
    max_combos: int = 200_000
    seed: int = 0

    def __post_init__(self):
        require_int(self.max_n, "max_n", 1)
        require_int(self.trials_per_n, "trials_per_n", 0)
        require_int(self.max_combos, "max_combos", 1)
        require_int(self.seed, "seed", 0)


def is_shattered(instance: ShatterInstance,
                 max_combos: int = PseudodimBudget.max_combos
                 ) -> tuple[bool, Optional[ShatterWitness]]:
    """Search for thresholds realizing all 2^p sign patterns.

    The values come from the Gram of the instance's 2p points, left points
    first: pair i's value is the entry (i, p + i). Candidate thresholds lie
    between clusters of each pair's values (see ``TIE_RTOL``), never between
    values that differ only by rounding; they are computed once for the
    instance's value table. The first combination in odometer order (pair
    0's candidate fastest) that realizes all 2^p patterns wins. Raises
    BudgetError whenever the product of the per-pair threshold candidate
    counts exceeds ``max_combos``, even if an early combination would shatter
    (a single pair included); the search never silently returns False then.
    """
    p = instance.n_pairs
    pool = np.concatenate((instance.pairs[:, 0, :], instance.pairs[:, 1, :]))
    V = _pool_values(instance.members, pool, np.arange(p), np.arange(p, 2 * p))
    if instance.thresholds is None:
        return _shatter_values(V, _threshold_table(V), range(p), max_combos)
    witness = _witness(V, instance.thresholds)
    return witness is not None, witness


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
    members = tuple(members)
    if not members:
        raise InputError("need at least one family member")
    V = _pool_values(members, pool, *_pool_pairs(len(pool)))
    table = _threshold_table(V)
    n_pairs = V.shape[1]
    rng = np.random.default_rng(budget.seed)
    # a subset decided again failed or ran out of budget the first time
    decided: set[tuple[int, ...]] = set()
    exhausted = False
    pairs: tuple[int, ...] = ()
    witness: Optional[ShatterWitness] = None
    for n in range(1, budget.max_n + 1):
        # greedy: extend the best set by one pool pair, lowest index first;
        # then random restarts
        greedy = (tuple(sorted(pairs + (extra,)))
                  for extra in range(n_pairs) if extra not in pairs)
        restarts = (tuple(sorted(rng.choice(n_pairs, size=n,
                                            replace=False).tolist()))
                    for _ in range(budget.trials_per_n if n_pairs >= n else 0))
        for subset in itertools.chain(greedy, restarts):
            if subset in decided:
                continue
            decided.add(subset)
            try:
                ok, wit = _shatter_values(V, table, subset, budget.max_combos)
            except BudgetError:
                exhausted, ok = True, False
            if ok:
                pairs, witness = subset, wit
                break
        else:
            break
    return PseudodimResult(lower_bound=len(pairs), pair_indices=pairs,
                           witness=witness, budget_exhausted=exhausted)


# ---------------------------------------------------------------------------
# Greedy covers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverRequest:
    """Candidates and metric of a cover's distance matrix.

    metric:
      predictor_sup   sup over evaluation points of value differences
                      (candidates: finite value rows, lists or arrays; no
                      evaluation_sample)
      kernel_sup      max over tasks of the sup-norm Gram difference
                      (candidates: kernels)
      kernel_mean_dev max-min mean absolute deviation between unit balls
                      (candidates: kernels; see kernel_deviation_distance)

    ``probe_budget`` is read by kernel_mean_dev alone, which defaults it to
    ``PROBE_BUDGET``; the other metrics reject one.
    """

    metric: str
    candidates: tuple
    evaluation_sample: object = None
    probe_budget: Optional[int] = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InputError(f"metric must be one of {METRICS}")
        if (self.evaluation_sample is None) != (self.metric == "predictor_sup"):
            raise InputError(f"metric {self.metric}: the kernel metrics require "
                             "an evaluation_sample, and predictor_sup takes none")
        if self.metric == "kernel_mean_dev":
            if self.probe_budget is None:
                object.__setattr__(self, "probe_budget", PROBE_BUDGET)
            require_int(self.probe_budget, "probe_budget", 1)
        elif self.probe_budget is not None:
            raise InputError(f"metric {self.metric} reads no probe_budget")
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
    if isinstance(sample, (list, tuple)):
        return [as_points(s) for s in sample]
    return [as_points(sample)]


def _candidate_values(request: CoverRequest) -> np.ndarray:
    if request.metric == "kernel_sup":
        # task by task, each task's base Grams built once (``grams``)
        return _finite(np.concatenate(
            [np.stack([G.ravel() for G in grams(request.candidates, t)])
             for t in _task_list(request.evaluation_sample)], axis=1), "candidate")
    rows = [number_array(cand, "predictor_sup candidate").ravel()
            for cand in request.candidates]
    if len({len(r) for r in rows}) != 1:
        raise InputError("candidates produce inconsistent value lengths")
    return np.stack(rows)


def pairwise_distances(request: CoverRequest) -> np.ndarray:
    """The candidates' distance matrix under the request's metric; every
    cover of one candidate set reads this one matrix."""
    if request.metric == "kernel_mean_dev":
        sample = as_points(np.concatenate(_task_list(request.evaluation_sample)))
        Gs = _finite(np.stack(list(grams(request.candidates, sample))), "candidate")
        n = len(Gs)
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = _gram_deviation(Gs[i], Gs[j],
                                                    request.probe_budget)
        return D
    V = _candidate_values(request)
    return cdist(V, V, "chebyshev")


def greedy_cover(D, epsilon: float) -> CoverResult:
    """Farthest-point epsilon-net of the candidates of the distance matrix
    ``D`` (``pairwise_distances``); deterministic given candidate order.

    Starts from candidate 0 and adds the farthest-from-cover candidate until
    everything is within epsilon. The returned max_distance is recomputed
    from the full distance matrix as an exhaustive validity check, whose
    failure raises NumericError.
    """
    require_number(epsilon, "epsilon", positive=True)
    D = np.asarray(D)
    if not (D.dtype.kind in "iuf" and D.ndim == 2 and 0 < len(D) == D.shape[1]
            and np.isfinite(D).all()):
        raise InputError("distances must be a nonempty square finite matrix")
    centers = [0]
    dist_to_cover = D[0].copy()
    while True:
        far = int(np.argmax(dist_to_cover))
        if dist_to_cover[far] <= epsilon:
            break
        centers.append(far)
        np.minimum(dist_to_cover, D[far], out=dist_to_cover)
    max_dist = float(np.min(D[centers], axis=0).max())
    if max_dist > epsilon:
        raise NumericError("greedy cover failed its validity post-check")
    return CoverResult(center_indices=tuple(centers), size=len(centers),
                       max_distance=max_dist)


# ---------------------------------------------------------------------------
# Empirical max-min kernel distance.
# ---------------------------------------------------------------------------


def _unit_ball_l1_gap(u: np.ndarray, G: np.ndarray) -> float:
    """min over {v = G beta : beta^T G beta <= 1} of mean |u - v|, from below.

    Returns the value L-BFGS-B reaches on the box dual  max_{|lam|_inf <= 1}
    lam'u - ||G^{1/2} lam||  (strong duality: compact convex sets, bilinear
    objective). No duality gap is certified: a run that stops short of the
    dual max underestimates the min, and never overestimates it.
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
                              probe_budget: int = PROBE_BUDGET
                              ) -> float:
    """Approximate max-min mean absolute deviation between the unit balls of
    two kernels on a sample, symmetrized over both directions.

    The outer max is probed with a deterministic low-discrepancy set of
    unit-norm dual directions; the inner min over the other ball is the
    L-BFGS-B value of its box dual (see ``_unit_ball_l1_gap``), a lower bound
    with no certificate. Both approximations can only underestimate the
    distance. A Gram with a NaN or infinite entry raises NumericError.
    """
    require_int(probe_budget, "probe_budget", 1)
    return _gram_deviation(*_finite(np.stack(list(grams((k1, k2), sample))),
                                    "kernel"), probe_budget)


def _gram_deviation(G1: np.ndarray, G2: np.ndarray, probe_budget: int) -> float:
    """``kernel_deviation_distance`` between the kernels of the Grams G1, G2."""
    sob = qmc.Sobol(d=len(G1), scramble=True, seed=7)
    # draw a power-of-two block (Sobol balance), keep the requested count
    n_draw = 1 << max(0, int(np.ceil(np.log2(probe_budget))))
    u01 = np.clip(sob.random(n_draw)[:probe_budget], 1e-12, 1.0 - 1e-12)
    directions = ndtri(u01)
    return max(_deviation_one_way(G1, G2, directions),
               _deviation_one_way(G2, G1, directions))
