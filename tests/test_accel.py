"""The numeric kernels in ``mtkl._accel`` against independent oracles:
entry-wise textbook kernel formulas (through ``BaseKernel``, which builds
Grams and cross-Grams from the ``_accel`` builders), a brute-force
threshold scan, and the scalar hinge reference loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import hinge_pgd_reference, shatter_scan_reference
from mtkl import _accel, rbf_kernel
from mtkl.kernels import BaseKernel


def _dot(x, z):
    return math.fsum(a * b for a, b in zip(x, z))


def _metric_form(x, z, M):
    diff = [a - b for a, b in zip(x, z)]
    return math.fsum(diff[a] * M[a][b] * diff[b]
                     for a in range(len(diff)) for b in range(len(diff)))


RNG = np.random.default_rng(0)
A = RNG.standard_normal((3, 3))
M = A @ A.T + 0.1 * np.eye(3)  # a full symmetric positive definite metric


def _rbf(x, z):
    return math.exp(-math.fsum((a - b) ** 2 for a, b in zip(x, z)) / (2 * 0.8 ** 2))


# name -> (base kernel keywords, textbook k(x, z)); every kernel reads 3 coordinates
KERNELS = {
    "rbf": (dict(kind="rbf", bandwidth=0.8), _rbf),
    "linear": (dict(kind="linear", scale=0.5), lambda x, z: 0.5 * _dot(x, z)),
    "poly": (dict(kind="poly", scale=1.0, coef0=0.5, degree=3),
             lambda x, z: (1.0 * _dot(x, z) + 0.5) ** 3),
    "metric": (dict(kind="gaussian_metric", metric=M),
               lambda x, z: math.exp(-0.5 * _metric_form(x, z, M.tolist()))),
    "custom": (dict(kind="custom", func=_rbf), _rbf),
}


def textbook(entry, X, Z):
    return np.array([[entry(x, z) for z in Z.tolist()] for x in X.tolist()])


@pytest.mark.parametrize("m,p", [(1, 1), (14, 9), (33, 5)])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_gram_builders_match_textbook_formula(name, m, p):
    keywords, entry = KERNELS[name]
    rng = np.random.default_rng(m)
    X, Z = rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, (p, 3))
    W = rng.uniform(-1, 1, (m, 5))
    duplicated = np.vstack([X, X[-1:], X[:1]])
    cases = [(BaseKernel(**keywords), X, X),
             (BaseKernel(**keywords), duplicated, duplicated),
             (BaseKernel(**keywords, dims=(4, 0, 2)), W, W[:, [4, 0, 2]])]
    for base, points, selected in cases:
        G = base.gram(points)
        # absolute slack for entries that are sums cancelling to near zero
        np.testing.assert_allclose(G, textbook(entry, selected, selected),
                                   rtol=1e-12, atol=1e-14)
        assert np.array_equal(G, G.T)
        if name in ("rbf", "metric"):
            assert np.all(np.diag(G) == 1.0)
    base = BaseKernel(**keywords)
    np.testing.assert_allclose(base.cross(X, Z), textbook(entry, X, Z),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("block_bytes", [None, 8, 8 * 5000 * 7])
@pytest.mark.parametrize("m,p", [(1, 1), (32, 5000), (33, 3)])
def test_sq_dists_in_row_blocks_match_whole_matrix(m, p, block_bytes,
                                                   monkeypatch):
    # (xx + zz) - 2·(X Zᵀ), clipped at 0, formed on the whole matrix: bit for
    # bit the same whether _sq_dists sums in one block, row by row or in
    # uneven blocks
    if block_bytes is not None:
        monkeypatch.setattr(_accel, "SUM_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(p)
    X, Z = rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, (p, 3))
    whole = np.maximum((np.sum(X * X, axis=1)[:, None]
                        + np.sum(Z * Z, axis=1)[None, :]) - 2.0 * (X @ Z.T), 0.0)
    assert _accel._sq_dists(X, Z).tobytes() == whole.tobytes()


def hinge_problem(seed, m, max_iters, tol, n_problems=1):
    """Random RBF hinge problems of one size: (K, y, alpha0) stacks and the
    solver arguments that follow alpha0. About half the problems have
    separable labels, so some stop with every sample outside the margin."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n_problems, m, 3))
    y = np.where(rng.random((n_problems, m)) < 0.5, 1.0, -1.0)
    separable = rng.random(n_problems) < 0.5
    y[separable] = np.where(X[separable, :, 0] >= 0, 1.0, -1.0)
    K = np.stack([rbf_kernel(float(b)).gram(x)
                  for x, b in zip(X, rng.uniform(0.2, 2.0, n_problems))])
    return K, y, y / m, (max_iters, tol)


problem_sizes = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 64),
                     gamma=st.sampled_from([0.02, 0.05, 0.2, 1.0]),
                     max_iters=st.sampled_from([1, 2, 5, 2000]),
                     tol=st.sampled_from([1e-6, 0.0]))


@settings(max_examples=50, deadline=None)
@given(**problem_sizes)
def test_hinge_pgd_matches_reference(seed, m, gamma, max_iters, tol):
    K, y, a0, rest = hinge_problem(seed, m, max_iters, tol)
    alpha, obj, iters, converged = _accel.hinge_pgd(K[0], y[0], gamma, a0[0], *rest)
    ref = hinge_pgd_reference(K[0], y[0], gamma, a0[0], *rest, 1.0)
    assert np.array_equal(alpha, ref[0])
    assert (obj, iters, converged) == ref[1:]
    assert type(obj) is float and type(iters) is int and type(converged) is bool


@settings(max_examples=25, deadline=None)
@given(**problem_sizes, n_problems=st.integers(1, 12), order_seed=st.integers(0, 99))
def test_stacked_problem_matches_alone(seed, m, gamma, max_iters, tol, n_problems,
                                       order_seed):
    K, y, a0, rest = hinge_problem(seed, m, max_iters, tol, n_problems)
    order = np.random.default_rng(order_seed).permutation(n_problems)
    stacked = _accel.hinge_pgd_batch(K[order], y[order], gamma, a0[order], *rest)
    for row, b in enumerate(order):
        alone = _accel.hinge_pgd(K[b], y[b], gamma, a0[b], *rest)
        assert np.array_equal(stacked[0][row], alone[0])
        assert (stacked[1][row], stacked[2][row], stacked[3][row]) == alone[1:]
        one = _accel.hinge_pgd_batch(K[b:b + 1], y[b:b + 1], gamma, a0[b:b + 1], *rest)
        assert [out.shape for out in one] == [(1, m), (1,), (1,), (1,)]
        assert one[3].dtype == bool
        assert np.array_equal(one[0][0], alone[0])
        assert (one[1][0], one[2][0], one[3][0]) == alone[1:]


@settings(max_examples=20, deadline=None)
@given(**problem_sizes, n_problems=st.integers(2, 12))
def test_stacked_solver_matches_reference(seed, m, gamma, max_iters, tol,
                                          n_problems):
    K, y, a0, rest = hinge_problem(seed, m, max_iters, tol, n_problems)
    alpha, obj, iters, converged = _accel.hinge_pgd_batch(K, y, gamma, a0, *rest)
    for b in range(n_problems):
        ref = hinge_pgd_reference(K[b], y[b], gamma, a0[b], *rest, 1.0)
        np.testing.assert_allclose(alpha[b], ref[0], rtol=0, atol=1e-12)
        assert abs(obj[b] - ref[1]) <= 1e-12
        assert (iters[b], converged[b]) == ref[2:]


def member_sets(above):
    """Each boolean row as a Python int, bit j for member j."""
    return [sum(1 << j for j, bit in enumerate(row) if bit) for row in above]


def scan_both(above, counts, max_combos):
    """shatter_scan on the rows' member sets and the brute-force reference
    on the rows themselves; asserts they agree and returns the scan's
    (status, choice)."""
    n_members = above.shape[1]
    status, choice = _accel.shatter_scan(member_sets(above.tolist()), counts,
                                         max_combos, n_members)
    assert (status, choice) == shatter_scan_reference(above.tolist(), counts,
                                                      max_combos)
    return status, choice


def test_shatter_scan_matches_brute_force():
    # rows as the capacity lab builds them: member j is above candidate
    # threshold t of pair i when its value there exceeds t
    rng = np.random.default_rng(1)
    statuses, late_hits, hit_sizes = set(), 0, set()
    for _ in range(300):
        p = int(rng.integers(1, 6))
        members = int(rng.integers(2, 101))
        counts = rng.integers(1, 6 if p <= 3 else 4, size=p).tolist()
        values = rng.random((members, p))
        above = np.concatenate([values[:, i] > np.sort(rng.random(c))[:, None]
                                for i, c in enumerate(counts)])
        max_combos = int(rng.integers(1, 2 * math.prod(counts) + 1))
        status, choice = scan_both(above, counts, max_combos)
        if status == 1:
            late_hits += any(choice)
            hit_sizes.add(p)
        statuses.add(status)
    assert statuses == {-1, 0, 1} and late_hits > 0
    assert hit_sizes == {1, 2, 3, 4}
    # five pairs: the first 32 of 100 members take 0.25 or 0.75 by the bits
    # of their index, the rest lie in (0.3, 0.7); only the middle candidate
    # of each pair leaves members on both sides
    values = np.vstack([(np.arange(32)[:, None] >> np.arange(5)) % 2 / 2 + 0.25,
                        rng.uniform(0.3, 0.7, (68, 5))])
    above = np.concatenate([values[:, i] > np.array([0.1, 0.5, 0.9])[:, None]
                            for i in range(5)])
    assert scan_both(above, [3] * 5, 3 ** 5) == (1, [1] * 5)


def test_shatter_scan_co_monotone_grid_has_no_hit():
    # every pair reads the same member values, so a member's sign pattern
    # depends only on where its value falls among the three thresholds: at
    # most 4 of the 8 patterns occur, and pruning cuts every branch
    rng = np.random.default_rng(2)
    for members in (8, 40, 100):
        values = np.sort(rng.random(members))
        above = np.concatenate([values > np.sort(rng.random(20))[:, None]
                                for _ in range(3)])
        assert scan_both(above, [20, 20, 20], 20 ** 3) == (0, None)
