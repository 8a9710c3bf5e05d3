"""Acceptance battery.

One test per criterion; each prints a single pass/fail line (routed past
pytest's capture so the lines always reach the terminal). Criteria 3 and 4
share one 200-trial battery, which keeps the whole module well inside its
runtime budgets.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from mtkl import (BoundInputs, CoverRequest, KernelFamily, MarginParams,
                  PseudodimBudget, ShatterInstance, TaskCluster, TaskEnvironment,
                  InputLaw, appendix_sample_size, cover_bound_hn,
                  cover_bound_kernel_dn, empirical_margin_error, fit_single_task,
                  greedy_cover, instantiate, is_shattered, lifelong_delta,
                  multitask_epsilon, overhead_curve, pd_upper_bound,
                  pseudodim_lower_bound, rbf_kernel, run_trial, TaskData)
from mtkl.capacity import pairwise_distances
from mtkl.kernels import custom_kernel

import _oracles as orc

SIG_DIGITS_REL = 5e-12


@pytest.fixture
def report(capsys):
    """Pass/fail line printer that bypasses pytest's output capture."""
    def _report(num, name, ok, detail=""):
        line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


# ---------------------------------------------------------------------------
# shared environments
# ---------------------------------------------------------------------------


def overhead_environment():
    """16 disjoint coordinate-pair views; the planted kernel is the last one,
    so zero-training-error ties favor wrong kernels at small n."""
    views = [(2 * i, 2 * i + 1) for i in range(16)]
    dictionary = tuple(rbf_kernel(0.2, dims=v) for v in views)
    env = TaskEnvironment(
        dictionary=dictionary, input_law=InputLaw(dim=32),
        clusters=(TaskCluster(weight=1.0, kernel_index=15, n_anchors=6,
                              margin_gap=0.25, flip_rate=0.0,
                              balance_slack=0.15),))
    family = KernelFamily(variant="convex_combo", dictionary=dictionary)
    return env, family


def trial_environment():
    views = ((0, 1), (2, 3), (0, 2), (1, 3))
    dictionary = tuple(rbf_kernel(0.6, dims=v) for v in views)
    env = TaskEnvironment(
        dictionary=dictionary, input_law=InputLaw(dim=4),
        clusters=(TaskCluster(weight=1.0, kernel_index=0, n_anchors=6,
                              margin_gap=0.25, flip_rate=0.1),))
    family = KernelFamily(variant="convex_combo", dictionary=dictionary)
    return env, family


@pytest.fixture(scope="module")
def trial_battery():
    env, family = trial_environment()
    outcomes = []
    for trial in range(200):
        outcomes.append(run_trial(
            env, family, n=3, m=32, gamma=0.1, delta=0.05,
            seed=(20260810, trial), mc_samples=100_000,
            evaluate_guarantee=True))
    return outcomes


# ---------------------------------------------------------------------------
# 1. formula fidelity
# ---------------------------------------------------------------------------


def random_valid_tuple(rng):
    return dict(
        n=int(rng.integers(1, 10**6)),
        m=int(rng.integers(4, 10**6)),
        d_phi=float(rng.uniform(1.0, 50.0)),
        B=float(rng.uniform(0.1, 10.0)),
        gamma=float(rng.uniform(0.05, 1.0)),
        delta=float(rng.uniform(0.001, 0.999)),
        epsilon=float(rng.uniform(0.05, 1.9)),
    )


def test_criterion_1_formula_fidelity(report):
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    while checked < 100:
        t = random_valid_tuple(rng)
        hn = cover_bound_hn(t["n"], t["m"], t["B"], t["d_phi"], t["epsilon"])
        if hn.warnings:
            continue  # degenerate-regime tuples clamp; fidelity targets the
            # formulas on their intended domain
        problem = BoundInputs(n=t["n"], m=t["m"], d_phi=t["d_phi"], B=t["B"],
                              gamma=t["gamma"])
        mt = multitask_epsilon(problem, t["delta"])
        if mt.warnings:
            continue
        ll = lifelong_delta(problem, t["epsilon"])
        if ll.warnings:
            continue
        ls, le = orc.mp_lifelong_log_terms(
            t["n"], t["m"], t["d_phi"], t["B"], t["gamma"], t["epsilon"])
        # the within-task log term is a difference of two large parts; skip
        # draws where 12-digit agreement is not numerically meaningful
        parts_scale = max(abs(float(ls + t["n"] * t["m"] * t["epsilon"]**2 / 32)),
                          float(t["n"] * t["m"] * t["epsilon"]**2 / 32))
        if abs(float(ls)) < 1e-3 * parts_scale:
            continue

        errs = [
            orc.rel_err(hn.log_value, orc.mp_cover_bound_hn(
                t["n"], t["m"], t["B"], t["d_phi"], t["epsilon"])),
            orc.rel_err(
                cover_bound_kernel_dn(t["n"], t["d_phi"], t["B"], t["epsilon"]),
                orc.mp_cover_bound_kernel_dn(t["n"], t["d_phi"], t["B"],
                                             t["epsilon"])),
            orc.rel_err(
                appendix_sample_size(t["d_phi"], t["B"], t["epsilon"]),
                orc.mp_appendix_sample_size(t["d_phi"], t["B"], t["epsilon"])),
            orc.rel_err(mt.epsilon, orc.mp_multitask_epsilon(
                t["n"], t["m"], t["d_phi"], t["B"], t["gamma"], t["delta"])),
            orc.rel_err(ll.log_sample_term, ls),
            orc.rel_err(ll.log_environment_term, le),
        ]
        total_log = float(orc.mp.log(orc.mp.e**ls + orc.mp.e**le)) \
            if max(float(ls), float(le)) < 700 else 1.0
        if -700 < total_log < 0:
            errs.append(orc.rel_err(
                ll.delta, orc.mp_lifelong_delta(
                    t["n"], t["m"], t["d_phi"], t["B"], t["gamma"],
                    t["epsilon"])))
        worst = max(worst, max(errs))
        checked += 1
    elapsed = time.time() - start
    report(1, "formula fidelity", worst <= SIG_DIGITS_REL and elapsed < 10.0,
           f"worst rel err {worst:.2e} on {checked} tuples, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. vanishing overhead
# ---------------------------------------------------------------------------


def test_criterion_2_vanishing_overhead(report):
    start = time.time()
    env, family = overhead_environment()
    n_grid = [1, 2, 4, 8, 16, 32]
    points = overhead_curve(env, family, m=20, n_grid=n_grid, trials=50,
                            seed=715, gamma=0.05, mc_samples=20_000)
    means = [float(np.mean([p.excess_error for p in points if p.n == n]))
             for n in n_grid]
    rho = float(spearmanr(n_grid, means).statistic)

    d_phi = pd_upper_bound(family)
    term = {n: multitask_epsilon(BoundInputs(
        n=n, m=20, d_phi=d_phi, B=1.0, gamma=0.05),
        0.05).terms["kernel_overhead"] for n in (1, 32)}
    ratio = term[32] / term[1]
    elapsed = time.time() - start
    ok = rho <= -0.8 and ratio < 1.0 / 8.0 and elapsed < 15 * 60
    report(2, "vanishing overhead", ok,
           f"spearman {rho:.3f}, overhead-term ratio {ratio:.4f}, "
           f"excess {['%.3f' % e for e in means]}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3 + 4. sandwich validity and the ERM guarantee
# ---------------------------------------------------------------------------


def test_criterion_3_sandwich_validity(trial_battery, report):
    start = time.time()
    valid = [o.report for o in trial_battery if o.report.epsilon_valid]
    failures = [r for r in valid if not r.sandwich_ok]
    elapsed = time.time() - start
    ok = len(valid) == 200 and not failures
    report(3, "sandwich validity", ok,
           f"{len(valid)} valid trials, {len(failures)} failures, +{elapsed:.0f}s")


def test_criterion_4_erm_guarantee(trial_battery, report):
    mc_se = 0.5 / math.sqrt(100_000)
    holds = [
        o.report.er <= o.guarantee.er_2gamma_best
        + 2.0 * o.report.epsilon + 3.0 * mc_se
        for o in trial_battery if o.report.epsilon_valid]
    frac = np.mean(holds)
    report(4, "ERM guarantee", len(holds) == 200 and frac >= 0.99,
           f"held in {sum(holds)}/{len(holds)} trials")


# ---------------------------------------------------------------------------
# 5. capacity consistency
# ---------------------------------------------------------------------------


def random_family_members(rng):
    """A random analytically-bounded family plus a finite member list."""
    variant = rng.integers(0, 3)
    if variant == 0:  # convex combination
        k = int(rng.integers(2, 5))
        dictionary = tuple(rbf_kernel(float(b))
                           for b in rng.uniform(0.2, 2.5, k))
        fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
        members = list(dictionary)
        for _ in range(3):
            members.append(instantiate(fam, rng.dirichlet(np.ones(k))))
    elif variant == 1:  # sparse combination
        n_dict = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n_dict) + 1))
        dictionary = tuple(rbf_kernel(float(b))
                           for b in rng.uniform(0.2, 2.5, n_dict))
        fam = KernelFamily(variant="sparse_combo", dictionary=dictionary,
                           sparsity=k)
        members = list(dictionary)
    else:  # gaussian metric family
        ell = int(rng.integers(1, 3))
        fam = KernelFamily(variant="gaussian_covariance", dimension=ell)
        members = [instantiate(fam, float(s) * np.eye(ell))
                   for s in rng.uniform(0.1, 4.0, 4)]
    dim = 2 if fam.variant != "gaussian_covariance" else fam.dimension
    return fam, tuple(members), dim


def test_criterion_5_capacity_consistency(report):
    start = time.time()
    rng = np.random.default_rng(55)
    violations = 0
    budget = PseudodimBudget(max_n=2, trials_per_n=4, max_combos=50_000, seed=5)
    for _ in range(10_000):
        fam, members, dim = random_family_members(rng)
        pool = rng.uniform(-1, 1, (4, dim))
        res = pseudodim_lower_bound(members, pool, budget)
        if res.lower_bound > pd_upper_bound(fam):
            violations += 1

    # exhaustive-oracle agreement on small planted value matrices
    mismatches = 0
    pairs_cache = {}
    for _ in range(300):
        p = int(rng.integers(1, 4))
        n_members = int(rng.integers(2, 21))
        V = rng.integers(0, 3, size=(n_members, p)).astype(float)
        if p not in pairs_cache:
            pairs_cache[p] = np.array([[[float(i)], [float(i)]]
                                       for i in range(p)])
        members = tuple(custom_kernel(
            lambda a, b, row=row: float(row[int(round(a[0]))]), bound_b=10.0)
            for row in V)
        inst = ShatterInstance(pairs=pairs_cache[p], members=members)
        if is_shattered(inst)[0] != orc.shattered_naive(V):
            mismatches += 1
    elapsed = time.time() - start
    ok = violations == 0 and mismatches == 0 and elapsed < 5 * 60
    report(5, "capacity consistency", ok,
           f"{violations} bound violations, {mismatches} oracle mismatches, "
           f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. sparse-combination capacity values
# ---------------------------------------------------------------------------


def test_criterion_6_sparse_bound_values(report):
    start = time.time()
    rng = np.random.default_rng(66)
    worst = 0.0
    values = {}
    for _ in range(20):
        n_dict = int(rng.integers(2, 40))
        k = int(rng.integers(1, n_dict + 1))
        fam = KernelFamily(variant="sparse_combo",
                           dictionary=tuple(rbf_kernel(1.0 + i * 0.01)
                                            for i in range(n_dict)),
                           sparsity=k)
        got = pd_upper_bound(fam)
        exact = float(2 * orc.mp.mpf(k) * orc.mp.log(k)
                      + 2 * orc.mp.mpf(k) * orc.mp.log(4 * orc.mp.e * n_dict))
        worst = max(worst, orc.rel_err(got, exact))
        values[(k, n_dict)] = got
    monotone = all(
        values[a] <= values[b] + 1e-12
        for a in values for b in values
        if a[0] <= b[0] and a[1] <= b[1])
    elapsed = time.time() - start
    ok = worst <= SIG_DIGITS_REL and monotone and elapsed < 1.0
    report(6, "sparse capacity values", ok,
           f"worst rel err {worst:.2e}, monotone={monotone}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. cover validity and growth
# ---------------------------------------------------------------------------


def test_criterion_7_cover_validity_and_growth(report):
    start = time.time()
    rng = np.random.default_rng(77)

    # validity post-check on a battery of random requests
    valid_ok = True
    for _ in range(40):
        width = int(rng.integers(3, 10))
        cands = tuple(rng.uniform(-1, 1, width)
                      for _ in range(int(rng.integers(2, 18))))
        eps = float(rng.uniform(0.1, 1.2))
        D = pairwise_distances(CoverRequest(metric="predictor_sup",
                                            candidates=cands))
        res = greedy_cover(D, eps)
        valid_ok &= res.max_distance <= eps

    # planted 4-cluster instances: greedy matches the exhaustive minimum
    cluster_ok = True
    for _ in range(5):
        centers = rng.uniform(-1, 1, (4, 8))
        cands = tuple(c + rng.uniform(-0.04, 0.04, 8)
                      for c in centers for _ in range(4))
        req = CoverRequest(metric="predictor_sup", candidates=cands)
        D = pairwise_distances(req)
        res = greedy_cover(D, 0.3)
        cluster_ok &= res.size == 4 == orc.min_cover_size(D, 0.3, max_size=4)

    # growth slope for a convex-combination discretization
    dictionary = (rbf_kernel(0.4), rbf_kernel(1.6))
    fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
    members = tuple(instantiate(fam, [w, 1 - w]) for w in np.linspace(0, 1, 65))
    tasks = [rng.uniform(-1, 1, (6, 2)) for _ in range(2)]
    eps_grid = np.geomspace(0.3, 0.01, 7)
    D = pairwise_distances(CoverRequest(metric="kernel_sup", candidates=members,
                                        evaluation_sample=tasks))
    sizes = [greedy_cover(D, float(e)).size for e in eps_grid]
    slope = float(np.polyfit(np.log(1 / eps_grid), np.log(sizes), 1)[0])
    slope_ok = slope <= 1.5 * pd_upper_bound(fam)
    elapsed = time.time() - start
    ok = valid_ok and cluster_ok and slope_ok and elapsed < 5 * 60
    report(7, "cover validity and growth", ok,
           f"validity={valid_ok}, clusters={cluster_ok}, slope {slope:.2f} "
           f"(cap {1.5 * pd_upper_bound(fam):.0f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. learner sanity
# ---------------------------------------------------------------------------


def test_criterion_8_learner_sanity(report):
    start = time.time()
    rng = np.random.default_rng(88)
    all_zero = True
    norms_ok = True
    for trial in range(50):
        X = rng.uniform(-1, 1, (2, 2))
        while np.linalg.norm(X[0] - X[1]) < 0.3:
            X = rng.uniform(-1, 1, (2, 2))
        y = np.array([-1.0, 1.0])
        kernel = rbf_kernel(float(rng.uniform(0.5, 1.5)))
        gamma = float(rng.uniform(0.05, 0.25))
        data = TaskData(X=X, y=y)
        pred = fit_single_task(kernel, data, MarginParams(gamma=gamma))
        norms_ok &= pred.norm_sq() <= 1.0 + 1e-8
        err = empirical_margin_error(pred, data, gamma)
        oracle = orc.grid_best_margin_error(kernel.gram(X), y, gamma)
        all_zero &= err == oracle == 0.0
    # norm feasibility on noisy multi-point fits as well
    for trial in range(20):
        m = int(rng.integers(2, 40))
        X = rng.uniform(-1, 1, (m, 3))
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        pred = fit_single_task(rbf_kernel(0.7), TaskData(X=X, y=y),
                               MarginParams(gamma=0.15))
        norms_ok &= pred.norm_sq() <= 1.0 + 1e-8
    elapsed = time.time() - start
    ok = all_zero and norms_ok and elapsed < 60
    report(8, "learner sanity", ok,
           f"separable-zero={all_zero}, norms-feasible={norms_ok}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. margin-loss structure
# ---------------------------------------------------------------------------


def test_criterion_9_margin_loss_structure(report):
    start = time.time()
    rng = np.random.default_rng(99)
    scores = rng.uniform(-2, 2, size=(10_000, 25))
    g1 = rng.uniform(0, 1, size=10_000)
    g2 = g1 + rng.uniform(0, 1, size=10_000)
    err_lo = np.mean(scores < g1[:, None], axis=1)
    err_hi = np.mean(scores < g2[:, None], axis=1)
    monotone = bool(np.all(err_lo <= err_hi))
    # margin-0 error never exceeds the double-margin error on shared draws
    err0 = np.mean(scores < 0.0, axis=1)
    err2g = np.mean(scores < 2 * g1[:, None], axis=1)
    dominated = bool(np.all(err0 <= err2g))
    elapsed = time.time() - start
    ok = monotone and dominated and elapsed < 60
    report(9, "margin-loss structure", ok,
           f"monotone={monotone}, er<=er2gamma={dominated}, {elapsed:.1f}s")
