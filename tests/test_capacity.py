"""Shattering search, greedy covers, and the empirical kernel distance."""

import hashlib

import numpy as np
import pytest

from mtkl import (BudgetError, CoverRequest, InputError, KernelFamily,
                  NumericError, Predictor, PseudodimBudget, ShatterInstance,
                  capacity, greedy_cover, instantiate, is_shattered,
                  kernel_deviation_distance, pairwise_distances,
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

    def test_single_pair_over_budget_raises(self):
        # one pair with four values has three candidates
        inst = ShatterInstance(pairs=index_pairs(1), members=value_matrix_members(
            [[0.0], [1.0], [2.0], [3.0]]))
        with pytest.raises(BudgetError):
            is_shattered(inst, max_combos=2)
        ok, wit = is_shattered(inst, max_combos=3)
        assert ok and wit.thresholds.tolist() == [0.5]

    def test_single_pair_goes_through_scan(self, monkeypatch):
        # candidates -0.5 and 1.0; the first leaves member 1 below
        scans = []

        def spy(sets, counts, max_combos, n_members):
            scans.append(list(counts))
            return real_scan(sets, counts, max_combos, n_members)

        real_scan = capacity._accel.shatter_scan
        monkeypatch.setattr(capacity._accel, "shatter_scan", spy)
        inst = ShatterInstance(pairs=index_pairs(1), members=value_matrix_members(
            [[2.0], [-1.0], [2.0], [0.0]]))
        ok, wit = is_shattered(inst)
        assert scans == [[2]]
        assert ok and wit.thresholds.tolist() == [-0.5]
        assert wit.pattern_members == {(1,): 0, (-1,): 1}

    def test_single_pair_skips_candidate_that_does_not_split(self, monkeypatch):
        # every member exceeds a first candidate of -5, so the scan takes 0.5
        monkeypatch.setattr(capacity, "_pair_thresholds",
                            lambda V: [np.array([-5.0, 0.5])])
        inst = ShatterInstance(pairs=index_pairs(1),
                               members=value_matrix_members([[0.0], [1.0]]))
        ok, wit = is_shattered(inst)
        assert ok and wit.thresholds.tolist() == [0.5]

    def test_scan_hit_rechecked_by_witness(self, monkeypatch):
        # combo (1, 0) puts thresholds at 1.5 and 0.5: no member is (+, -)
        V = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]
        inst = ShatterInstance(pairs=index_pairs(2),
                               members=value_matrix_members(V))
        assert is_shattered(inst)[0]
        monkeypatch.setattr(
            capacity._accel, "shatter_scan",
            lambda sets, counts, max_combos, n_members: (1, [1, 0]))
        with pytest.raises(NumericError):
            is_shattered(inst)

    def test_more_pairs_than_members_can_shatter(self):
        # 21 pairs need 2^21 members; four are decided False before any
        # search, with thresholds searched or fixed
        V = np.random.default_rng(18).random((4, 21))
        inst = ShatterInstance(pairs=index_pairs(21),
                               members=value_matrix_members(V))
        assert is_shattered(inst) == (False, None)
        fixed = ShatterInstance(pairs=index_pairs(21),
                                members=value_matrix_members(V),
                                thresholds=np.full(21, 0.5))
        assert is_shattered(fixed) == (False, None)

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


class TestThresholdTable:
    def test_pair_thresholds_match_unique_loop(self):
        rng = np.random.default_rng(31)
        levels = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
        outcomes = set()
        for _ in range(400):
            shape = (int(rng.integers(1, 10)), int(rng.integers(1, 5)))
            V = rng.choice(levels, size=shape)  # exact ties, both zeros
            # moves of 1e-14 and 1e-13 times max(1, |v|) stay in a TIE_RTOL
            # cluster; 1e-9 leaves it
            near = rng.random(shape) < 0.3
            V[near] += rng.choice([1e-14, -1e-13, 1e-9], size=near.sum()) * \
                np.maximum(1.0, np.abs(V[near]))
            if rng.random() < 0.2:
                V[:, 0] = V[0, 0]  # a single-value column
            got = capacity._pair_thresholds(V)
            want = orc.pair_thresholds_reference(V, capacity.TIE_RTOL)
            assert len(got) == len(want) == shape[1]
            for g, w in zip(got, want):
                outcomes.add(w is None)
                if w is None:
                    assert g is None
                else:
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert outcomes == {True, False}


def deck_family(rng, variant):
    """Members of a random family of one variant (0 convex, 1 sparse,
    2 Gaussian covariance) and the input dimension."""
    if variant == 0:
        k = int(rng.integers(2, 5))
        dictionary = tuple(rbf_kernel(float(b)) for b in rng.uniform(0.2, 2.5, k))
        family = KernelFamily(variant="convex_combo", dictionary=dictionary)
        return dictionary + tuple(instantiate(family, rng.dirichlet(np.ones(k)))
                                  for _ in range(3)), 2
    if variant == 1:
        n_dict = int(rng.integers(2, 6))
        return tuple(rbf_kernel(float(b))
                     for b in rng.uniform(0.2, 2.5, n_dict)), 2
    ell = int(rng.integers(1, 3))
    family = KernelFamily(variant="gaussian_covariance", dimension=ell)
    return tuple(instantiate(family, float(s) * np.eye(ell))
                 for s in rng.uniform(0.1, 4.0, 4)), ell


def pool_value_table(members, pool):
    left, right = np.triu_indices(len(pool))
    return np.stack([kern.gram(pool)[left, right] for kern in members])


class TestPseudodimReference:
    def check_against_reference(self, members, pool, budget):
        res = pseudodim_lower_bound(members, pool, budget)
        lb, pairs, thresholds, exhausted = orc.pseudodim_reference(
            pool_value_table(members, pool), budget.max_n, budget.trials_per_n,
            budget.max_combos, budget.seed, capacity.TIE_RTOL)
        assert (res.lower_bound, res.pair_indices, res.budget_exhausted) == \
            (lb, pairs, exhausted)
        if lb:
            assert res.witness.thresholds.tobytes() == \
                np.array(thresholds).tobytes()
        else:
            assert res.witness is None
        return res

    def test_matches_reference_on_random_families(self):
        rng = np.random.default_rng(32)
        seen = set()
        for trial in range(45):
            members, dim = deck_family(rng, trial % 3)
            pool = rng.uniform(-1, 1, (int(rng.integers(2, 6)), dim))
            budget = PseudodimBudget(
                max_n=int(rng.integers(1, 4)), trials_per_n=4,
                max_combos=int(rng.choice([2, 50_000, 50_000])),
                seed=int(rng.integers(2**31)))
            res = self.check_against_reference(members, pool, budget)
            seen.add((res.lower_bound, res.budget_exhausted))
        assert {lb for lb, _ in seen} >= {0, 1, 2}
        assert {ex for _, ex in seen} == {True, False}

    def test_single_pair_over_budget(self):
        # pair (0, 1) takes four values, so three candidates; the (i, i)
        # pairs take K(x, x) = 1 only
        members = tuple(rbf_kernel(b) for b in (0.3, 0.7, 1.5, 3.0))
        pool = np.array([[0.1, 0.2], [0.5, -0.3]])
        res = self.check_against_reference(
            members, pool, PseudodimBudget(max_n=2, trials_per_n=4, max_combos=2))
        assert res.lower_bound == 0 and res.budget_exhausted
        res = self.check_against_reference(
            members, pool, PseudodimBudget(max_n=2, trials_per_n=4, max_combos=3))
        assert res.lower_bound == 1 and not res.budget_exhausted


# sha256 of the deck's results (bounds, pairs, budget flags, witness
# thresholds and pattern members) as the search first certified them; a change
# that moves any witness changes it
DECK_DIGEST = \
    "fdb1c58dd021292232ed5af6d14a18da548607baba7449ee46e414776f3f9f03"


def capacity_deck_digest():
    """Digest of pseudodim_lower_bound on a seeded deck shaped like the
    capacity benchmark's: 8 families of each variant, pool of 4, max_n=2."""
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for variant in np.repeat(np.arange(3), 8):
        members, dim = deck_family(rng, variant)
        pool = rng.uniform(-1.0, 1.0, (4, dim))
        budget = PseudodimBudget(max_n=2, trials_per_n=4, max_combos=50_000,
                                 seed=int(rng.integers(2**31)))
        res = pseudodim_lower_bound(members, pool, budget)
        digest.update(np.array([res.lower_bound, *res.pair_indices,
                                res.budget_exhausted], dtype=np.int64).tobytes())
        if res.witness is not None:
            digest.update(res.witness.thresholds.tobytes())
            digest.update(repr(sorted(res.witness.pattern_members.items()))
                          .encode())
    return digest.hexdigest()


def test_capacity_deck_results_pinned():
    assert capacity_deck_digest() == DECK_DIGEST


def test_no_subset_decided_twice_in_one_call(monkeypatch):
    # a greedy extension or an earlier restart of the same call can draw a
    # subset again; it failed or ran out of budget the first time. Each
    # pseudodim_lower_bound call builds its threshold table once.
    real_table, real_decide = capacity._threshold_table, capacity._shatter_values
    decided = []

    def threshold_table(V):
        decided.append([])
        return real_table(V)

    def shatter_values(V, table, subset, max_combos):
        decided[-1].append(tuple(subset))
        return real_decide(V, table, subset, max_combos)

    monkeypatch.setattr(capacity, "_threshold_table", threshold_table)
    monkeypatch.setattr(capacity, "_shatter_values", shatter_values)
    assert capacity_deck_digest() == DECK_DIGEST
    assert len(decided) == 24
    assert all(len(set(call)) == len(call) for call in decided)


@pytest.mark.parametrize("n,d", [(20, 7), (16, 120), (2100, 1)])
def test_sup_distances_match_brute_force(n, d):
    V = np.random.default_rng(n).uniform(-2, 2, (n, d))
    if d == 1:
        expected = np.abs(np.subtract.outer(V[:, 0], V[:, 0]))
    else:
        expected = np.array([[max(abs(a - b) for a, b in zip(u, w))
                              for w in V.tolist()] for u in V.tolist()])
    request = CoverRequest(metric="predictor_sup", candidates=tuple(V))
    assert np.array_equal(pairwise_distances(request), expected)


def cluster_candidates(rng, clusters=4, per_cluster=4, points=8, spread=0.04):
    centers = rng.uniform(-1, 1, (clusters, points))
    rows = []
    for c in centers:
        for _ in range(per_cluster):
            rows.append(c + rng.uniform(-spread, spread, points))
    return [np.array(r) for r in rows]


def value_cover(candidates, epsilon):
    """Greedy cover of value rows under the sup metric."""
    D = pairwise_distances(CoverRequest(metric="predictor_sup",
                                        candidates=candidates))
    return greedy_cover(D, epsilon)


class TestGreedyCover:
    def test_identical_candidates(self):
        assert value_cover([np.zeros(4)] * 5, 0.1).size == 1

    def test_two_far_candidates(self):
        assert value_cover((np.zeros(3), np.ones(3)), 0.5).size == 2

    def test_list_rows_are_value_rows(self):
        res = value_cover(([0.0, 0.0], [5.0, 0.0], [0.0, 0.25]), 0.5)
        assert res.center_indices == (0, 1)
        assert res.max_distance == 0.25

    def test_planted_clusters_match_brute_force(self):
        rng = np.random.default_rng(17)
        req = CoverRequest(metric="predictor_sup",
                           candidates=cluster_candidates(rng))
        D = pairwise_distances(req)
        res = greedy_cover(D, 0.3)
        assert res.size == 4
        assert orc.min_cover_size(D, 0.3, max_size=4) == 4
        assert res.max_distance <= 0.3

    def test_validity_postcheck_on_random_sets(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            cands = tuple(rng.uniform(-1, 1, 6) for _ in range(12))
            eps = float(rng.uniform(0.2, 1.0))
            assert value_cover(cands, eps).max_distance <= eps

    def test_kernel_sup_metric_multitask_sample(self):
        rng = np.random.default_rng(19)
        kernels = tuple(rbf_kernel(b) for b in (0.5, 0.500001, 2.0))
        tasks = [rng.uniform(-1, 1, (5, 2)) for _ in range(3)]
        D = pairwise_distances(CoverRequest(metric="kernel_sup",
                                            candidates=kernels,
                                            evaluation_sample=tasks))
        assert greedy_cover(D, 0.05).size == 2  # near-identical bandwidths merge

    def test_cover_growth_slope_bounded(self):
        rng = np.random.default_rng(20)
        dictionary = (rbf_kernel(0.4), rbf_kernel(1.6))
        fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
        d_phi = pd_upper_bound(fam)
        members = tuple(instantiate(fam, [w, 1 - w])
                        for w in np.linspace(0, 1, 33))
        tasks = [rng.uniform(-1, 1, (6, 2)) for _ in range(2)]
        D = pairwise_distances(CoverRequest(
            metric="kernel_sup", candidates=members, evaluation_sample=tasks))
        eps_grid = np.geomspace(0.3, 0.02, 6)
        sizes = [greedy_cover(D, float(eps)).size for eps in eps_grid]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        slope = np.polyfit(np.log(1.0 / eps_grid), np.log(sizes), 1)[0]
        assert slope <= 1.5 * d_phi

    def test_bad_requests_rejected(self):
        with pytest.raises(InputError):
            CoverRequest(metric="nope", candidates=(np.zeros(2),))
        with pytest.raises(InputError):
            CoverRequest(metric="predictor_sup", candidates=())

    @pytest.mark.parametrize("metric,sample", [
        ("predictor_sup", np.zeros((3, 2))), ("kernel_sup", None),
        ("kernel_mean_dev", None)])
    def test_sample_only_where_read(self, metric, sample):
        # predictor_sup reads value rows alone; the kernel metrics read the
        # sample their Grams are taken on
        cands = (np.zeros(2),) if metric == "predictor_sup" else (rbf_kernel(),)
        with pytest.raises(InputError, match="evaluation_sample"):
            CoverRequest(metric=metric, candidates=cands,
                         evaluation_sample=sample)

    @pytest.mark.parametrize("metric", ["predictor_sup", "kernel_sup"])
    def test_probe_budget_only_where_read(self, metric):
        # kernel_mean_dev alone probes dual directions
        cands, sample = ((np.zeros(2),), None) if metric == "predictor_sup" \
            else ((rbf_kernel(),), np.zeros((3, 2)))
        assert CoverRequest(metric=metric, candidates=cands,
                            evaluation_sample=sample).probe_budget is None
        with pytest.raises(InputError, match="probe_budget"):
            CoverRequest(metric=metric, candidates=cands,
                         evaluation_sample=sample, probe_budget=16)

    def test_mean_dev_budget_defaults_to_distance_default(self):
        pts = np.random.default_rng(0).uniform(-1, 1, (4, 2))
        k1, k2 = rbf_kernel(0.5), rbf_kernel(1.5)
        request = CoverRequest(metric="kernel_mean_dev", candidates=(k1, k2),
                               evaluation_sample=pts)
        assert request.probe_budget == capacity.PROBE_BUDGET == 16
        assert pairwise_distances(request)[0, 1] == \
            kernel_deviation_distance(k1, k2, pts)

    @pytest.mark.parametrize("rows", [
        ([float("nan"), 0.0], [5.0, 0.0], [0.0, 0.0]),
        ([0.0, 0.0], [float("inf"), 0.0]),
        ([0.0, 0.0], ["a", 0.0]),
        ([0.0, 0.0], [0.0, 0.0, 1.0]),
        (Predictor(alphas=np.ones(1), support_sample=np.zeros((1, 2)),
                   kernel=rbf_kernel()),),
    ], ids=["nan", "inf", "string", "ragged", "predictor"])
    def test_value_rows_must_be_finite_numbers(self, rows):
        # a NaN row sat at distance 0 from every other row, so
        # [nan, 0], [5, 0], [0, 0] made a cover of size 1 at 0.5
        with pytest.raises(InputError):
            value_cover(rows, 0.5)

    @pytest.mark.parametrize("epsilon", [0, 0.0, -1, float("nan"), "0.1"],
                             ids=["zero_int", "zero", "negative", "nan",
                                  "string"])
    def test_radius_rejected(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            greedy_cover(np.zeros((2, 2)), epsilon)

    @pytest.mark.parametrize("D", [
        np.zeros((2, 3)), np.zeros(3), np.zeros((0, 0)),
        np.array([[0.0, np.nan], [np.nan, 0.0]]),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        np.array([["0", "1"], ["1", "0"]])],
        ids=["non_square", "vector", "empty", "nan", "inf", "strings"])
    def test_distance_matrix_rejected(self, D):
        with pytest.raises(InputError, match="square finite matrix"):
            greedy_cover(D, 0.5)


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
