"""Base-kernel values shared within one point set.

The members that a capacity search, a cover or an ERM grid builds on one
point set share their ``BaseKernel`` objects, so each distinct base's Gram
or cross-Gram is computed once per point set and summed into every member
that uses it. These tests hold the shared sums to the term-by-term builds in
``tests/_oracles.py`` byte for byte, and pin how many base values are built.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import expansion_reference, weighted_sum_reference
from mtkl import (KernelFamily, MarginParams, MultiTaskSample, SearchBudget,
                  TaskData, capacity, erm_fit, instantiate, kernels,
                  pseudodim_lower_bound, rbf_kernel)
from mtkl import _accel, erm, margin
from mtkl.capacity import _pool_pairs, _pool_values
from mtkl.kernels import (BaseKernel, Kernel, _combine, expand_each, grams,
                          linear_kernel, poly_kernel)

PARAMS = MarginParams(gamma=0.15)


def kernel_set():
    """Kernels on 3-wide points sharing four bases: weight-1 singles, `dims`
    views, combinations with weights of 1 and not, a base repeated within
    one kernel, and a weight-1 term after the first."""
    singles = (rbf_kernel(0.5, dims=(0, 1)), rbf_kernel(1.3),
               linear_kernel(dims=(2,), scale=0.5, bound_b=0.5),
               poly_kernel(degree=2, scale=0.25, coef0=0.5, dims=(0, 2),
                           bound_b=1.0))
    a, b, c, d = singles
    return singles + (
        _combine([(0.25, a), (0.75, b)]),
        _combine([(0.3, a), (0.2, c), (0.5, a)]),  # base a twice
        _combine([(1.0, d), (1.0, b), (0.125, c)]),
        _combine([(2.0, b)]),  # one term, weight 2
        _combine([(0.1, a), (0.2, b), (0.3, c), (0.4, d)]),
    )


def n_bases(kerns):
    return len({id(base) for k in kerns for _, base in k.terms})


# m = 300 rows of 8 * 300 bytes are summed in row blocks of SUM_BLOCK_BYTES
# (109 rows), so the last block is short
@pytest.mark.parametrize("m", [1, 7, 300])
def test_shared_grams_equal_term_by_term_builds(monkeypatch, m):
    X = np.random.default_rng(m).uniform(-1, 1, (m, 3))
    kerns = kernel_set()
    calls = count_base_calls(monkeypatch, "gram")
    shared = list(grams(kerns, X))
    assert len(calls) == n_bases(kerns) == 4
    for kern, G in zip(kerns, shared):
        ref = weighted_sum_reference(kern, lambda base: base.gram(X))
        assert G.shape == ref.shape and G.tobytes() == ref.tobytes()
        assert G.tobytes() == kern.gram(X).tobytes()  # and the unshared path


@pytest.mark.parametrize("rows,cols", [(1, 5), (9, 2), (300, 40)])
def test_shared_cross_grams_equal_term_by_term_builds(monkeypatch, rows, cols):
    rng = np.random.default_rng(rows)
    X, Z = rng.uniform(-1, 1, (rows, 3)), rng.uniform(-1, 1, (cols, 3))
    kerns = kernel_set()
    calls = count_base_calls(monkeypatch, "cross")
    shared = list(kernels._shared_sums(kerns, lambda kern: kern.cross(X, Z),
                                       lambda base: base.cross(X, Z)))
    assert len(calls) == 4
    for kern, K in zip(kerns, shared):
        ref = weighted_sum_reference(kern, lambda base: base.cross(X, Z))
        assert K.shape == ref.shape and K.tobytes() == ref.tobytes()
        assert K.tobytes() == kern.cross(X, Z).tobytes()


# Each kernel: 1-3 terms drawn from six bases, three of them reading `dims`
# views, so a base may repeat within a kernel and across kernels; each weight
# is 1.0 or a dyadic or arbitrary fraction.
BASES = (BaseKernel(kind="rbf", bandwidth=0.5, dims=(0, 1)),
         BaseKernel(kind="rbf", bandwidth=1.3),
         BaseKernel(kind="linear", scale=0.5, dims=(2,), bound_b=0.5),
         BaseKernel(kind="poly", scale=0.25, coef0=0.5, dims=(0, 2)),
         BaseKernel(kind="linear", scale=0.3, bound_b=0.9),
         BaseKernel(kind="poly", degree=3, scale=0.5, coef0=0.25))
TERM = st.tuples(st.sampled_from([1.0, 0.5, 2.0, 0.3, 0.7071]),
                 st.sampled_from(BASES))
KERNEL = st.lists(TERM, min_size=1, max_size=3).map(
    lambda terms: Kernel(terms=tuple(terms), bound_b=4.0))


@given(kerns=st.lists(KERNEL, min_size=1, max_size=6), m=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_grams_equal_each_gram_and_the_reference(kerns, m, seed):
    X = np.random.default_rng(seed).uniform(-1, 1, (m, 3))
    shared = list(grams(kerns, X))
    assert len(shared) == len(kerns)
    for kern, G in zip(kerns, shared):
        ref = weighted_sum_reference(kern, lambda base: base.gram(X))
        assert G.shape == ref.shape == (m, m)
        assert G.tobytes() == kern.gram(X).tobytes() == ref.tobytes()


def test_grams_build_bases_only_when_asked(monkeypatch):
    # fit_stack holds one stack's Grams at a time only because grams is lazy
    X = np.random.default_rng(8).uniform(-1, 1, (5, 3))
    kerns = kernel_set()
    calls = count_base_calls(monkeypatch, "gram")
    built = grams(kerns, X)
    assert calls == []
    next(built)
    assert calls == [kerns[0].terms[0][1]]
    next(built)
    assert calls == [kerns[0].terms[0][1], kerns[1].terms[0][1]]
    assert len(list(built)) == len(kerns) - 2 and len(calls) == 4


def test_one_kernel_is_its_own_gram(monkeypatch):
    # a lone kernel takes Kernel.gram's in-place sum, not the shared one
    X = np.random.default_rng(9).uniform(-1, 1, (5, 3))
    kern = kernel_set()[8]
    calls = []
    real = Kernel.gram
    monkeypatch.setattr(Kernel, "gram",
                        lambda self, X: calls.append(self) or real(self, X))
    G, = grams([kern], X)
    assert calls == [kern] and G.flags.writeable
    assert G.tobytes() == weighted_sum_reference(
        kern, lambda base: base.gram(X)).tobytes()


def test_shared_base_values_are_read_only():
    X = np.random.default_rng(1).uniform(-1, 1, (6, 3))
    kerns = kernel_set()
    shared = list(grams(kerns, X))
    # a weight-1 single term is the shared base Gram itself
    for values in shared[:4]:
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            values *= 2.0
    # a sum over more than one term, or a scaled one, is the caller's own
    for summed in shared[4:]:
        summed[0, 0] = 0.0


def test_value_table_equals_term_by_term_builds():
    pool = np.random.default_rng(2).uniform(-1, 1, (5, 3))
    left, right = _pool_pairs(len(pool))
    kerns = kernel_set()
    V = _pool_values(kerns, pool, left, right)
    ref = np.stack([weighted_sum_reference(k, lambda base: base.gram(pool))[left, right]
                    for k in kerns])
    assert V.tobytes() == ref.tobytes()


@pytest.mark.parametrize("eval_block", [None, 7],
                         ids=["one_block", "blocks_of_7"])
def test_training_errors_equal_term_by_term_builds(monkeypatch, eval_block):
    # m = 24 rows: one EVAL_BLOCK, or three blocks of 7 and a short one
    if eval_block is not None:
        monkeypatch.setattr(kernels, "EVAL_BLOCK", eval_block)
    block = kernels.EVAL_BLOCK
    rng = np.random.default_rng(3)
    tasks = []
    for _ in range(3):
        X = rng.uniform(-1, 1, (24, 3))
        y = np.where(X[:, 0] - 0.5 * X[:, 2] + 0.3 * rng.standard_normal(24) >= 0,
                     1.0, -1.0)
        tasks.append(TaskData(X=X, y=y))
    sample = MultiTaskSample(tasks=tuple(tasks))
    kerns = kernel_set()
    fits = erm.fit_candidates(kerns, sample, PARAMS)
    for kern, (preds, errors) in zip(kerns, fits):
        for task, pred, err in zip(sample.tasks, preds, errors):
            G = weighted_sum_reference(kern, lambda base: base.gram(task.X))
            alpha = _accel.hinge_pgd(G, task.y, PARAMS.gamma,
                                     task.y / (task.m * np.sqrt(kern.bound_b)),
                                     margin.PGD_MAX_ITERS, margin.PGD_TOL)[0]
            assert pred.alphas.tobytes() == alpha.tobytes()
            assert pred.kernel is kern and pred.support_sample is task.X
            scores = expansion_reference(kern, alpha, task.X, task.X, block)
            assert err == float(np.mean(task.y * scores < PARAMS.gamma))


@pytest.mark.parametrize("rows", [5, kernels.EVAL_BLOCK, kernels.EVAL_BLOCK + 300])
def test_expand_each_equals_term_by_term_builds(rows):
    rng = np.random.default_rng(rows)
    S, X = rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (rows, 3))
    kerns = kernel_set()
    coeffs = [rng.standard_normal(6) for _ in kerns]
    scores = expand_each(list(zip(kerns, coeffs)), S, X)
    for kern, c, row in zip(kerns, coeffs, scores):
        ref = expansion_reference(kern, c, S, X, kernels.EVAL_BLOCK)
        assert row.tobytes() == ref.tobytes()
        assert row.tobytes() == kern.expand(c, S, X).tobytes()


def count_base_calls(monkeypatch, name):
    calls = []
    real = getattr(BaseKernel, name)

    def spy(base, *args):
        calls.append(base)
        return real(base, *args)

    monkeypatch.setattr(BaseKernel, name, spy)
    return calls


def test_capacity_builds_one_pool_gram_per_base(monkeypatch):
    # a convex family of k bases plus 3 combinations: k pool Grams, not 4k
    rng = np.random.default_rng(5)
    k = 4
    dictionary = tuple(rbf_kernel(float(b)) for b in rng.uniform(0.2, 2.5, k))
    family = KernelFamily(variant="convex_combo", dictionary=dictionary)
    members = dictionary + tuple(instantiate(family, rng.dirichlet(np.ones(k)))
                                 for _ in range(3))
    calls = count_base_calls(monkeypatch, "gram")
    pseudodim_lower_bound(members, rng.uniform(-1, 1, (4, 2)))
    assert len(calls) == k == len(set(map(id, calls)))


def test_erm_grid_builds_one_gram_and_cross_gram_per_base_and_task(monkeypatch):
    # resolution 2 on 4 bases: 10 candidates holding 16 terms per task, but
    # 4 training Grams and 4 scoring cross-Grams per task
    rng = np.random.default_rng(6)
    dictionary = tuple(rbf_kernel(0.6, dims=v)
                       for v in ((0, 1), (2, 3), (0, 2), (1, 3)))
    family = KernelFamily(variant="convex_combo", dictionary=dictionary)
    sample = MultiTaskSample(tasks=tuple(
        TaskData(X=rng.uniform(-1, 1, (12, 4)), y=np.resize([1.0, -1.0], 12))
        for _ in range(3)))
    grams = count_base_calls(monkeypatch, "gram")
    crosses = count_base_calls(monkeypatch, "cross")
    erm_fit(family, sample, PARAMS, SearchBudget(grid_resolution=2))
    assert len(grams) == len(crosses) == 4 * sample.n


def test_cover_builds_one_gram_per_base_and_task(monkeypatch):
    rng = np.random.default_rng(7)
    dictionary = tuple(rbf_kernel(float(b)) for b in (0.3, 0.8, 2.0))
    family = KernelFamily(variant="convex_combo", dictionary=dictionary)
    cands = [c.kernel for c in erm.enumerate_candidates(
        family, SearchBudget(grid_resolution=3))]
    tasks = [rng.uniform(-1, 1, (5, 2)) for _ in range(2)]
    calls = count_base_calls(monkeypatch, "gram")
    D = capacity.pairwise_distances(capacity.CoverRequest(
        metric="kernel_sup", candidates=cands, evaluation_sample=tasks))
    assert len(calls) == 3 * len(tasks)
    ref = np.stack([np.concatenate([
        weighted_sum_reference(k, lambda base: base.gram(t)).ravel() for t in tasks])
        for k in cands])
    assert D.tobytes() == np.abs(ref[:, None, :] - ref[None, :, :]).max(axis=2).tobytes()
