"""Numba and numpy builds of the hot kernels must agree, and the hinge
solver (numpy only) must reproduce the scalar reference loop."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import hinge_pgd_reference
from mtkl import _accel


def both(name):
    impls = _accel.implementations(name)
    if impls["numba"] is None:
        pytest.skip("numba path disabled in this process")
    return impls["numba"], impls["numpy"]


RNG = np.random.default_rng(0)
X = RNG.uniform(-1, 1, (14, 3))
Z = RNG.uniform(-1, 1, (9, 3))
M = np.diag([0.5, 1.0, 2.0])


@pytest.mark.parametrize("name,args", [
    ("rbf_gram", (X, 0.8)),
    ("rbf_cross", (X, Z, 0.8)),
    ("linear_gram", (X, 0.5)),
    ("linear_cross", (X, Z, 0.5)),
    ("poly_gram", (X, 1.0, 0.5, 3)),
    ("poly_cross", (X, Z, 1.0, 0.5, 3)),
    ("metric_gram", (X, M)),
    ("metric_cross", (X, Z, M)),
])
def test_gram_paths_agree(name, args):
    nb, np_impl = both(name)
    a, b = nb(*args), np_impl(*args)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)
    if name.endswith("_gram"):
        assert np.array_equal(a, a.T)
        assert np.array_equal(b, b.T)


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


def test_chebyshev_pdist_paths_agree():
    nb, np_impl = both("chebyshev_pdist")
    V = RNG.uniform(-2, 2, (20, 7))
    np.testing.assert_allclose(nb(V), np_impl(V), rtol=0, atol=0)


def test_shatter_scan_paths_agree():
    nb, np_impl = both("shatter_scan")
    rng = np.random.default_rng(1)
    for trial in range(20):
        p = int(rng.integers(1, 4))
        members = int(rng.integers(2, 30))
        counts = rng.integers(1, 5, size=p).astype(np.int64)
        masks = rng.integers(0, 2**63, size=(int(counts.sum()), 1),
                             dtype=np.int64).astype(np.uint64)
        valid = np.zeros(1, dtype=np.uint64)
        for j in range(members):
            valid[0] |= np.uint64(1) << np.uint64(j)
        masks &= valid[0]
        got_nb = nb(masks, counts, valid, 10_000)
        got_np = np_impl(masks, counts, valid, 10_000)
        assert got_nb[0] == got_np[0]
        if got_nb[0] == 1:
            np.testing.assert_array_equal(got_nb[1], got_np[1])


def test_env_flag_selects_numpy_path():
    code = (
        "import mtkl._accel as a\n"
        "assert not a.NUMBA_ENABLED\n"
        "assert a.implementations('rbf_gram')['numba'] is None\n"
        "import numpy as np\n"
        "X = np.zeros((3, 2))\n"
        "assert a.rbf_gram(X, 1.0).shape == (3, 3)\n"
        "print('numpy-path-ok')\n"
    )
    env = dict(os.environ, MTKL_DISABLE_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "numpy-path-ok" in out.stdout
