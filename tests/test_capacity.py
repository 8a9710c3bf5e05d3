"""Shattering search, greedy covers, and the empirical kernel distance."""

import numpy as np
import pytest

from mtkl import (BudgetError, CoverRequest, InputError, KernelFamily,
                  NumericError, PseudodimBudget, ShatterInstance, capacity,
                  greedy_cover, is_shattered, kernel_deviation_distance,
                  pd_upper_bound, pseudodim_lower_bound, rbf_kernel)
from mtkl.capacity import PseudodimResult
from mtkl.kernels import custom_kernel, linear_kernel

import _oracles as orc


def value_matrix_members(V):
    """Kernels whose value on pair i (probed at x = x' = i) is V[row, i]."""
    members = []
    for row in np.asarray(V, dtype=float):
        members.append(custom_kernel(
            lambda a, b, row=row: float(row[int(round(a[0]))]), bound_b=10.0))
    return tuple(members)


def index_pairs(p):
    return np.array([[[float(i)], [float(i)]] for i in range(p)])


class TestIsShattered:
    def test_single_pair_two_values(self):
        inst = ShatterInstance(pairs=index_pairs(1),
                               members=value_matrix_members([[0.0], [1.0]]))
        ok, wit = is_shattered(inst)
        assert ok
        assert wit.thresholds[0] == pytest.approx(0.5)
        assert set(wit.pattern_members) == {(-1,), (1,)}

    def test_two_pairs_diagonal_rows_fail(self):
        inst = ShatterInstance(pairs=index_pairs(2),
                               members=value_matrix_members([[0, 0], [1, 1]]))
        ok, wit = is_shattered(inst)
        assert not ok and wit is None

    def test_two_pairs_all_rows_succeed(self):
        V = [[0, 0], [0, 1], [1, 0], [1, 1]]
        inst = ShatterInstance(pairs=index_pairs(2),
                               members=value_matrix_members(V))
        ok, wit = is_shattered(inst)
        assert ok
        np.testing.assert_allclose(wit.thresholds, [0.5, 0.5])
        assert len(wit.pattern_members) == 4

    def test_given_thresholds_respected(self):
        V = [[0, 0], [0, 1], [1, 0], [1, 1]]
        good = ShatterInstance(pairs=index_pairs(2),
                               members=value_matrix_members(V),
                               thresholds=np.array([0.5, 0.5]))
        assert is_shattered(good)[0]
        bad = ShatterInstance(pairs=index_pairs(2),
                              members=value_matrix_members(V),
                              thresholds=np.array([2.0, 0.5]))
        assert not is_shattered(bad)[0]

    def test_values_apart_by_rounding_are_one_value(self):
        two_ulps_below = 1.0 - 2.0 ** -52
        inst = ShatterInstance(pairs=index_pairs(1),
                               members=value_matrix_members([[1.0], [two_ulps_below]]))
        assert is_shattered(inst) == (False, None)
        inst = ShatterInstance(pairs=index_pairs(1),
                               members=value_matrix_members([[1.0], [1.0 - 1e-9]]))
        assert is_shattered(inst)[0]

    def test_coincident_pair_not_shattered_by_rbf_rounding(self):
        # K(x, x) = 1 for every rbf member, but exp(-(xx + zz - 2 x.z) / 2b^2)
        # can land an ulp below 1
        members = tuple(rbf_kernel(b) for b in (0.3, 0.7, 1.5, 3.0))
        rng = np.random.default_rng(0)
        noisy = 0
        for _ in range(200):
            x = rng.uniform(-1, 1, 2)
            noisy += any(k(x, x) != 1.0 for k in members)
            inst = ShatterInstance(pairs=np.array([[x, x]]), members=members)
            assert is_shattered(inst) == (False, None)
        assert noisy > 0

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(12)
        agree = 0
        for trial in range(60):
            p = int(rng.integers(1, 4))
            n_members = int(rng.integers(2, 21))
            # low-resolution values make both outcomes common
            V = rng.integers(0, 3, size=(n_members, p)).astype(float)
            inst = ShatterInstance(pairs=index_pairs(p),
                                   members=value_matrix_members(V))
            got, wit = is_shattered(inst)
            assert got == orc.shattered_naive(V)
            if got:
                agree += 1
                assert len(wit.pattern_members) == 2 ** p
        assert 0 < agree < 60  # both outcomes exercised

    def test_shattered_implies_enough_distinct_rows(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            p = int(rng.integers(1, 4))
            V = rng.integers(0, 2, size=(int(rng.integers(2, 16)), p)).astype(float)
            inst = ShatterInstance(pairs=index_pairs(p),
                                   members=value_matrix_members(V))
            if is_shattered(inst)[0]:
                assert len({tuple(r) for r in V}) >= 2 ** p

    def test_budget_error_not_silent_false(self):
        rng = np.random.default_rng(14)
        V = rng.random((18, 4))
        inst = ShatterInstance(pairs=index_pairs(4),
                               members=value_matrix_members(V))
        with pytest.raises(BudgetError):
            is_shattered(inst, max_combos=10)

    def test_scan_hit_rechecked_by_witness(self, monkeypatch):
        # combo (1, 0) puts thresholds at 1.5 and 0.5: no member is (+, -)
        V = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]
        inst = ShatterInstance(pairs=index_pairs(2),
                               members=value_matrix_members(V))
        assert is_shattered(inst)[0]
        monkeypatch.setattr(capacity._accel, "shatter_scan",
                            lambda above, counts, max_combos: (1, np.array([1, 0])))
        with pytest.raises(NumericError):
            is_shattered(inst)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(InputError):
            ShatterInstance(pairs=np.zeros((2, 2, 1)),
                            members=(rbf_kernel(1.0),))


class TestPseudodimLowerBound:
    def test_single_kernel_is_zero(self):
        pool = np.linspace(-1, 1, 5)[:, None]
        res = pseudodim_lower_bound((rbf_kernel(1.0),), pool)
        assert res.lower_bound == 0

    def test_two_orthogonal_gram_kernels(self):
        k0 = linear_kernel(dims=(0,), bound_b=1.0)
        k1 = linear_kernel(dims=(1,), bound_b=1.0)
        members = []
        for w in np.linspace(0, 1, 9):
            members.append(custom_kernel(
                lambda a, b, w=w: float(w * a[0] * b[0] + (1 - w) * a[1] * b[1]),
                bound_b=1.0))
        rng = np.random.default_rng(15)
        pool = rng.uniform(-1, 1, (6, 2))
        res = pseudodim_lower_bound(tuple(members), pool,
                                    PseudodimBudget(max_n=4, trials_per_n=24))
        assert 1 <= res.lower_bound <= 2  # linear combos of 2 kernels: d <= 2

    def test_never_exceeds_analytic_bound(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            n_dict = int(rng.integers(2, 5))
            dictionary = tuple(rbf_kernel(float(b))
                               for b in rng.uniform(0.2, 2.0, n_dict))
            fam = KernelFamily(variant="sparse_combo", dictionary=dictionary,
                               sparsity=1)
            members = dictionary  # the k=1 members are the dictionary itself
            pool = rng.uniform(-1, 1, (5, 2))
            res = pseudodim_lower_bound(members, pool,
                                        PseudodimBudget(max_n=4, trials_per_n=8))
            assert res.lower_bound <= pd_upper_bound(fam)

    def test_repeated_pool_point(self):
        # pool pairs (0, 1) and (0, 0) are the same points
        pool = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, -0.3]])
        members = tuple(rbf_kernel(b) for b in (0.3, 0.7, 1.5, 3.0))
        res = pseudodim_lower_bound(members, pool,
                                    PseudodimBudget(max_n=2, trials_per_n=8))
        assert res.lower_bound >= 1
        assert len(res.witness.pattern_members) == 2 ** res.lower_bound
        left, right = np.triu_indices(len(pool))
        pairs = np.stack((pool[left], pool[right]), axis=1)
        inst = ShatterInstance(pairs=pairs[list(res.pair_indices)],
                               members=members,
                               thresholds=res.witness.thresholds)
        assert is_shattered(inst)[0]

    def test_witness_stored(self):
        V = [[0, 0], [0, 1], [1, 0], [1, 1]]
        members = value_matrix_members(V)
        pool = np.array([[0.0], [1.0]])
        res = pseudodim_lower_bound(members, pool,
                                    PseudodimBudget(max_n=3, trials_per_n=8))
        assert isinstance(res, PseudodimResult)
        assert res.lower_bound >= 1
        assert res.witness is not None


def cluster_candidates(rng, clusters=4, per_cluster=4, points=8, spread=0.04):
    centers = rng.uniform(-1, 1, (clusters, points))
    rows = []
    for c in centers:
        for _ in range(per_cluster):
            rows.append(c + rng.uniform(-spread, spread, points))
    return [np.array(r) for r in rows]


class TestGreedyCover:
    def test_identical_candidates(self):
        vals = [np.zeros(4)] * 5
        res = greedy_cover(CoverRequest(metric="predictor_sup", epsilon=0.1,
                                        candidates=tuple(vals)))
        assert res.size == 1

    def test_two_far_candidates(self):
        res = greedy_cover(CoverRequest(
            metric="predictor_sup", epsilon=0.5,
            candidates=(np.zeros(3), np.ones(3))))
        assert res.size == 2

    def test_planted_clusters_match_brute_force(self):
        rng = np.random.default_rng(17)
        cands = cluster_candidates(rng)
        req = CoverRequest(metric="predictor_sup", epsilon=0.3,
                           candidates=tuple(cands))
        res = greedy_cover(req)
        from mtkl.capacity import pairwise_distances
        D = pairwise_distances(req)
        assert res.size == 4
        assert orc.min_cover_size(D, 0.3, max_size=4) == 4
        assert res.max_distance <= 0.3

    def test_validity_postcheck_on_random_sets(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            cands = tuple(rng.uniform(-1, 1, 6) for _ in range(12))
            eps = float(rng.uniform(0.2, 1.0))
            res = greedy_cover(CoverRequest(metric="predictor_sup", epsilon=eps,
                                            candidates=cands))
            assert res.max_distance <= eps

    def test_kernel_sup_metric_multitask_sample(self):
        rng = np.random.default_rng(19)
        kernels = tuple(rbf_kernel(b) for b in (0.5, 0.500001, 2.0))
        tasks = [rng.uniform(-1, 1, (5, 2)) for _ in range(3)]
        res = greedy_cover(CoverRequest(metric="kernel_sup", epsilon=0.05,
                                        candidates=kernels,
                                        evaluation_sample=tasks))
        assert res.size == 2  # the two near-identical bandwidths merge

    def test_cover_growth_slope_bounded(self):
        rng = np.random.default_rng(20)
        dictionary = (rbf_kernel(0.4), rbf_kernel(1.6))
        fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
        d_phi = pd_upper_bound(fam)
        from mtkl import instantiate
        members = tuple(instantiate(fam, [w, 1 - w])
                        for w in np.linspace(0, 1, 33))
        tasks = [rng.uniform(-1, 1, (6, 2)) for _ in range(2)]
        eps_grid = np.geomspace(0.3, 0.02, 6)
        sizes = []
        for eps in eps_grid:
            sizes.append(greedy_cover(CoverRequest(
                metric="kernel_sup", epsilon=float(eps), candidates=members,
                evaluation_sample=tasks)).size)
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        slope = np.polyfit(np.log(1.0 / eps_grid), np.log(sizes), 1)[0]
        assert slope <= 1.5 * d_phi

    def test_bad_requests_rejected(self):
        with pytest.raises(InputError):
            CoverRequest(metric="nope", epsilon=0.1, candidates=(np.zeros(2),))
        with pytest.raises(InputError):
            CoverRequest(metric="predictor_sup", epsilon=0.0,
                         candidates=(np.zeros(2),))
        with pytest.raises(InputError):
            CoverRequest(metric="predictor_sup", epsilon=0.1, candidates=())


class TestKernelDeviationDistance:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.sample16 = rng.uniform(-1, 1, (16, 2))
        self.sample3 = self.sample16[:3]

    def test_identical_kernels_zero(self):
        k = rbf_kernel(0.8)
        d = kernel_deviation_distance(k, k, self.sample16, probe_budget=8)
        assert 0.0 <= d <= 1e-8

    def test_symmetric_exactly(self):
        k1, k2 = rbf_kernel(0.6), rbf_kernel(1.4)
        a = kernel_deviation_distance(k1, k2, self.sample16, probe_budget=12)
        b = kernel_deviation_distance(k2, k1, self.sample16, probe_budget=12)
        assert a == b

    def test_near_identical_bandwidths_tiny(self):
        d = kernel_deviation_distance(rbf_kernel(1.0), rbf_kernel(1.0001),
                                      self.sample16, probe_budget=16)
        assert d < 1e-3

    def test_grid_oracle_three_points(self):
        pts = np.array([[-1.5, 0.2], [0.3, 1.4], [1.2, -1.1]])
        k1, k2 = rbf_kernel(1.0), rbf_kernel(2.0)
        ours = kernel_deviation_distance(k1, k2, pts, probe_budget=256)
        oracle = orc.grid_kernel_deviation(k1.gram(pts), k2.gram(pts), steps=25)
        # finite probing of the outer max can only undershoot
        assert ours <= oracle * 1.01
        assert ours == pytest.approx(oracle, rel=0.05)

    def test_pseudometric_properties(self):
        ks = (rbf_kernel(0.5), rbf_kernel(1.0), rbf_kernel(2.0))
        D = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                D[i, j] = kernel_deviation_distance(ks[i], ks[j], self.sample3,
                                                    probe_budget=32)
        assert np.all(D >= 0)
        assert np.array_equal(D, D.T)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert D[i, j] <= D[i, k] + D[k, j] + 1e-6

    def test_probe_budget_validated(self):
        with pytest.raises(InputError):
            kernel_deviation_distance(rbf_kernel(1.0), rbf_kernel(2.0),
                                      self.sample3, probe_budget=0)
