"""The numeric kernels in ``mtkl._accel`` against independent oracles:
entry-wise textbook kernel formulas, brute-force sup-distances, a
brute-force threshold scan, and the scalar hinge reference loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import hinge_pgd_reference, shatter_scan_reference
from mtkl import _accel


def _dot(x, z):
    return math.fsum(a * b for a, b in zip(x, z))


def _metric_form(x, z, M):
    diff = [a - b for a, b in zip(x, z)]
    return math.fsum(diff[a] * M[a][b] * diff[b]
                     for a in range(len(diff)) for b in range(len(diff)))


RNG = np.random.default_rng(0)
A = RNG.standard_normal((3, 3))
M = A @ A.T + 0.1 * np.eye(3)  # a full symmetric positive definite metric

# name -> (builder arguments after the points, textbook k(x, z))
KERNELS = {
    "rbf": ((0.8,), lambda x, z: math.exp(
        -math.fsum((a - b) ** 2 for a, b in zip(x, z)) / (2 * 0.8 ** 2))),
    "linear": ((0.5,), lambda x, z: 0.5 * _dot(x, z)),
    "poly": ((1.0, 0.5, 3), lambda x, z: (1.0 * _dot(x, z) + 0.5) ** 3),
    "metric": ((M,), lambda x, z: math.exp(-0.5 * _metric_form(x, z, M.tolist()))),
}


def textbook(entry, X, Z):
    return np.array([[entry(x, z) for z in Z.tolist()] for x in X.tolist()])


@pytest.mark.parametrize("m,p", [(1, 1), (14, 9), (33, 5)])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_gram_builders_match_textbook_formula(name, m, p):
    args, entry = KERNELS[name]
    rng = np.random.default_rng(m)
    X, Z = rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, (p, 3))
    G = getattr(_accel, f"{name}_gram")(X, *args)
    # absolute slack for entries that are sums cancelling to near zero
    np.testing.assert_allclose(G, textbook(entry, X, X), rtol=1e-12, atol=1e-14)
    assert np.array_equal(G, G.T)
    if name in ("rbf", "metric"):
        assert np.all(np.diag(G) == 1.0)
    cross = getattr(_accel, f"{name}_cross")(X, Z, *args)
    np.testing.assert_allclose(cross, textbook(entry, X, Z), rtol=1e-12, atol=1e-14)


def hinge_problem(seed, m, max_iters, tol, n_problems=1):
    """Random RBF hinge problems of one size: (K, y, alpha0) stacks and the
    solver arguments that follow alpha0. About half the problems have
    separable labels, so some stop with every sample outside the margin."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n_problems, m, 3))
    y = np.where(rng.random((n_problems, m)) < 0.5, 1.0, -1.0)
    separable = rng.random(n_problems) < 0.5
    y[separable] = np.where(X[separable, :, 0] >= 0, 1.0, -1.0)
    K = np.stack([_accel.rbf_gram(x, float(b))
                  for x, b in zip(X, rng.uniform(0.2, 2.0, n_problems))])
    return K, y, y / m, (max_iters, tol, 1.0)


problem_sizes = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 64),
                     gamma=st.sampled_from([0.02, 0.05, 0.2, 1.0]),
                     max_iters=st.sampled_from([1, 2, 5, 2000]),
                     tol=st.sampled_from([1e-6, 0.0]))


@settings(max_examples=50, deadline=None)
@given(**problem_sizes)
def test_hinge_pgd_matches_reference(seed, m, gamma, max_iters, tol):
    K, y, a0, rest = hinge_problem(seed, m, max_iters, tol)
    alpha, obj, iters, converged = _accel.hinge_pgd(K[0], y[0], gamma, a0[0], *rest)
    ref = hinge_pgd_reference(K[0], y[0], gamma, a0[0], *rest)
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
        assert np.array_equal(one[0][0], alone[0])


@settings(max_examples=20, deadline=None)
@given(**problem_sizes, n_problems=st.integers(2, 12))
def test_stacked_solver_matches_reference(seed, m, gamma, max_iters, tol,
                                          n_problems):
    K, y, a0, rest = hinge_problem(seed, m, max_iters, tol, n_problems)
    alpha, obj, iters, converged = _accel.hinge_pgd_batch(K, y, gamma, a0, *rest)
    for b in range(n_problems):
        ref = hinge_pgd_reference(K[b], y[b], gamma, a0[b], *rest)
        np.testing.assert_allclose(alpha[b], ref[0], rtol=0, atol=1e-12)
        assert abs(obj[b] - ref[1]) <= 1e-12
        assert (iters[b], converged[b]) == ref[2:]


@pytest.mark.parametrize("n,d", [(20, 7), (2100, 1)])
def test_chebyshev_pdist_matches_brute_force(n, d):
    # at n=2100, d=1 the broadcast runs in two row chunks
    V = np.random.default_rng(n).uniform(-2, 2, (n, d))
    if d == 1:
        expected = np.abs(np.subtract.outer(V[:, 0], V[:, 0]))
    else:
        expected = np.array([[max(abs(a - b) for a, b in zip(u, w))
                              for w in V.tolist()] for u in V.tolist()])
    assert np.array_equal(_accel.chebyshev_pdist(V), expected)


def test_shatter_scan_matches_brute_force():
    # masks as the capacity lab packs them: member j is above candidate
    # threshold t of pair i when its value there exceeds t
    rng = np.random.default_rng(1)
    statuses, late_hits = set(), 0
    for _ in range(300):
        p = int(rng.integers(1, 4))
        members = int(rng.integers(2, 100))
        n_words = (members + 63) // 64
        counts = rng.integers(1, 6, size=p).astype(np.int64)
        values = rng.random((members, p))
        above = np.concatenate([values[:, i] > np.sort(rng.random(c))[:, None]
                                for i, c in enumerate(counts)])
        masks = np.zeros((len(above), n_words), dtype=np.uint64)
        for row, j in zip(*np.nonzero(above)):
            masks[row, j // 64] |= np.uint64(1) << np.uint64(j % 64)
        valid = np.zeros(n_words, dtype=np.uint64)
        for j in range(members):
            valid[j // 64] |= np.uint64(1) << np.uint64(j % 64)
        max_combos = int(rng.integers(1, 2 * int(np.prod(counts)) + 1))
        status, choice = _accel.shatter_scan(masks, counts, valid, max_combos)
        ref_status, ref_choice = shatter_scan_reference(masks, counts, valid,
                                                        max_combos)
        assert status == ref_status
        if status == 1:
            assert choice.tolist() == ref_choice
            late_hits += any(ref_choice)
        statuses.add(status)
    assert statuses == {-1, 0, 1} and late_hits > 0
