"""Multi-task ERM: decomposition, canonical search, determinism."""

import itertools

import numpy as np
import pytest

from mtkl import (BudgetError, InputError, KernelFamily, MarginParams,
                  MultiTaskSample, SearchBudget, TaskData, erm_fit,
                  empirical_margin_error, fit_single_task,
                  linear_kernel, load_multitask_sample, rbf_kernel)
from mtkl import erm, kernels, margin
from mtkl.erm import enumerate_candidates
from mtkl.kernels import VARIANT_FIELDS

from _oracles import sparse_candidates_reference


def make_tasks(rng, n, m, dim=2, flip=0.15):
    tasks = []
    for _ in range(n):
        X = rng.uniform(-1, 1, (m, dim))
        y = np.where(X[:, 0] + 0.3 * X[:, 1] >= 0, 1.0, -1.0)
        y = np.where(rng.random(m) < flip, -y, y)
        tasks.append(TaskData(X=X, y=y))
    return MultiTaskSample(tasks=tuple(tasks))


DICT3 = (rbf_kernel(0.4), rbf_kernel(0.9), rbf_kernel(1.8))
PARAMS = MarginParams(gamma=0.15)


class TestEnumeration:
    def test_convex_vertices_in_dictionary_order(self):
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        cands = enumerate_candidates(fam, SearchBudget(grid_resolution=1))
        assert len(cands) == 3
        for i, c in enumerate(cands):
            w = np.zeros(3)
            w[i] = 1.0
            np.testing.assert_array_equal(c.params, w)

    def test_convex_grid_resolution2(self):
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        cands = enumerate_candidates(fam, SearchBudget(grid_resolution=2))
        assert len(cands) == 6  # C(2+3-1, 3-1)
        sums = {tuple(np.round(c.params * 2).astype(int)) for c in cands}
        assert len(sums) == 6

    def test_sparse_subsets_dedupe(self):
        fam = KernelFamily(variant="sparse_combo", dictionary=DICT3, sparsity=2)
        cands = enumerate_candidates(fam, SearchBudget(grid_resolution=2))
        keys = [tuple(np.round(c.params * 2).astype(int)) for c in cands]
        assert len(keys) == len(set(keys))
        for c in cands:
            assert np.count_nonzero(c.params) <= 2

    @pytest.mark.parametrize("n_dict", range(1, 6))
    def test_sparse_grid_matches_brute_force(self, n_dict):
        dictionary = tuple(rbf_kernel(0.5 + i) for i in range(n_dict))
        for k in range(1, n_dict + 1):
            fam = KernelFamily(variant="sparse_combo", dictionary=dictionary,
                               sparsity=k)
            for res in range(1, 6):
                got = [(w.tolist(), label) for w, label in erm._combo_candidates(
                    fam, SearchBudget(grid_resolution=res))]
                assert got == sparse_candidates_reference(n_dict, k, res)

    @pytest.mark.parametrize("resolution", [1, 2, 3])
    @pytest.mark.parametrize("variant", sorted(VARIANT_FIELDS))
    def test_searched_family_bound_is_the_largest_candidate_bound(
            self, variant, resolution):
        # distinct dictionary bounds, so no interior grid point ties the max
        dictionary = tuple(linear_kernel(bound_b=b) for b in (0.5, 1.0, 3.0))
        fields = {"linear_combo": {"dictionary": dictionary},
                  "convex_combo": {"dictionary": dictionary},
                  "sparse_combo": {"dictionary": dictionary, "sparsity": 2},
                  "gaussian_covariance": {"dimension": 2},
                  "gaussian_low_rank": {"dimension": 3, "max_rank": 2}}
        fam = KernelFamily(variant=variant, **fields[variant])
        cands = enumerate_candidates(fam, SearchBudget(grid_resolution=resolution))
        assert erm.searched_family_bound(fam) == \
            max(c.kernel.bound_b for c in cands)

    def test_max_candidates_budget(self):
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        with pytest.raises(BudgetError):
            enumerate_candidates(fam, SearchBudget(grid_resolution=8,
                                                   max_candidates=10))


class TestErmFit:
    def test_objective_decomposes_over_tasks(self):
        rng = np.random.default_rng(0)
        sample = make_tasks(rng, n=3, m=16)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        sol = erm_fit(fam, sample, PARAMS, SearchBudget(grid_resolution=1))
        independent = [
            empirical_margin_error(
                fit_single_task(sol.kernel, task, PARAMS), task, PARAMS.gamma)
            for task in sample.tasks]
        assert sol.per_task_errors == tuple(independent)
        assert sol.avg_empirical_margin_error == pytest.approx(
            np.mean(independent), abs=1e-12)

    def test_superset_grid_never_worse(self):
        rng = np.random.default_rng(1)
        sample = make_tasks(rng, n=2, m=14)
        small = KernelFamily(variant="convex_combo", dictionary=DICT3[:2])
        big = KernelFamily(variant="convex_combo", dictionary=DICT3)
        e_small = erm_fit(small, sample, PARAMS,
                          SearchBudget(grid_resolution=1)).avg_empirical_margin_error
        e_big = erm_fit(big, sample, PARAMS,
                        SearchBudget(grid_resolution=1)).avg_empirical_margin_error
        assert e_big <= e_small

    def test_task_order_invariance(self):
        rng = np.random.default_rng(2)
        sample = make_tasks(rng, n=3, m=12)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        sol = erm_fit(fam, sample, PARAMS, SearchBudget(grid_resolution=1))
        for perm in itertools.permutations(range(3)):
            shuffled = MultiTaskSample(tasks=tuple(sample.tasks[i] for i in perm))
            sol_p = erm_fit(fam, shuffled, PARAMS, SearchBudget(grid_resolution=1))
            assert sol_p.candidate_index == sol.candidate_index
            assert sol_p.avg_empirical_margin_error == \
                sol.avg_empirical_margin_error

    def test_n1_reduction_to_single_task_argmin(self):
        rng = np.random.default_rng(3)
        sample = make_tasks(rng, n=1, m=18)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        sol = erm_fit(fam, sample, PARAMS, SearchBudget(grid_resolution=1))
        errs = [empirical_margin_error(
            fit_single_task(k, sample.tasks[0], PARAMS), sample.tasks[0],
            PARAMS.gamma) for k in DICT3]
        assert sol.candidate_index == int(np.argmin(errs))
        assert sol.avg_empirical_margin_error == min(errs)

    def test_sparse_k1_equals_per_kernel_brute_force(self):
        rng = np.random.default_rng(4)
        sample = make_tasks(rng, n=2, m=14)
        dict4 = DICT3 + (rbf_kernel(0.25),)
        fam = KernelFamily(variant="sparse_combo", dictionary=dict4, sparsity=1)
        sol = erm_fit(fam, sample, PARAMS, SearchBudget(grid_resolution=1))
        brute = []
        for k in dict4:
            errs = [empirical_margin_error(fit_single_task(k, t, PARAMS), t,
                                           PARAMS.gamma) for t in sample.tasks]
            brute.append(float(np.mean(errs)))
        assert sol.avg_empirical_margin_error == min(brute)
        assert sol.candidate_index == int(np.argmin(brute))

    def test_dominated_alternative_never_selected(self):
        # kernel 0 reaches zero margin error on every task; kernel 1 cannot
        rng = np.random.default_rng(5)
        tasks = []
        for _ in range(3):
            X = rng.uniform(-1, 1, (40, 2))
            X = X[np.abs(X[:, 0]) > 0.3][:6]
            assert len(X) == 6
            y = np.where(X[:, 0] >= 0, 1.0, -1.0)
            tasks.append(TaskData(X=X, y=y))
        sample = MultiTaskSample(tasks=tuple(tasks))
        good = rbf_kernel(1.0, dims=(0,))
        # near-constant functions on an uninformative coordinate cannot split
        # balanced labels at any margin
        bad = rbf_kernel(50.0, dims=(1,))
        fam = KernelFamily(variant="convex_combo", dictionary=(bad, good))
        sol = erm_fit(fam, sample, MarginParams(gamma=0.1),
                      SearchBudget(grid_resolution=1))
        assert sol.candidate_index == 1
        assert sol.avg_empirical_margin_error == 0.0

    def test_stacking_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(6)
        sample = make_tasks(rng, n=2, m=12)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        budget = SearchBudget(grid_resolution=2, refine_rounds=1)
        stacked = erm_fit(fam, sample, PARAMS, budget)
        monkeypatch.setattr(margin, "STACK_BYTES", 1)  # one problem per solve
        alone = erm_fit(fam, sample, PARAMS, budget)
        assert alone.candidate_label == stacked.candidate_label
        assert alone.avg_empirical_margin_error == stacked.avg_empirical_margin_error
        for pa, pb in zip(alone.predictors, stacked.predictors):
            np.testing.assert_array_equal(pa.alphas, pb.alphas)

    def test_passing_grams_skip_the_eigensolver(self, monkeypatch):
        # psd_defect certifies a passing Gram by Cholesky; a refactor that
        # puts eigvalsh back on the pass path fails here
        sample = make_tasks(np.random.default_rng(9), n=2, m=256)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        monkeypatch.setattr(margin, "PGD_MAX_ITERS", 5)  # the solve is not tested
        calls = {"psd_defect": 0, "min_eigenvalue": 0}

        def counted(name, func):
            def spy(*args):
                calls[name] += 1
                return func(*args)
            return spy

        monkeypatch.setattr(margin, "psd_defect",
                            counted("psd_defect", margin.psd_defect))
        monkeypatch.setattr(kernels, "min_eigenvalue",
                            counted("min_eigenvalue", kernels.min_eigenvalue))
        erm_fit(fam, sample, PARAMS, SearchBudget(grid_resolution=1))
        assert calls == {"psd_defect": 6, "min_eigenvalue": 0}

    def test_nonconverged_fits_counted(self, monkeypatch):
        rng = np.random.default_rng(8)
        sample = make_tasks(rng, n=3, m=24, flip=0.5)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        assert erm_fit(fam, sample, PARAMS).nonconverged_fits == 0
        monkeypatch.setattr(margin, "PGD_MAX_ITERS", 1)
        capped = erm_fit(fam, sample, MarginParams(gamma=0.2))
        assert capped.nonconverged_fits == sum(
            not p.converged for p in capped.predictors) == 3

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(7)
        sample = make_tasks(rng, n=2, m=16, flip=0.3)
        fam = KernelFamily(variant="convex_combo", dictionary=DICT3)
        base = erm_fit(fam, sample, PARAMS, SearchBudget(grid_resolution=2))
        refined = erm_fit(fam, sample, PARAMS,
                          SearchBudget(grid_resolution=2, refine_rounds=2))
        assert refined.avg_empirical_margin_error <= \
            base.avg_empirical_margin_error

    @pytest.mark.parametrize("variant", ["convex_combo", "sparse_combo"])
    def test_refinement_moves_leave_no_float_residue(self, monkeypatch, variant):
        # four 1/6 moves off a weight of 2/3 leave 5.55e-17 in floats; the
        # fake error is the weight on dictionary kernel 0, so every move off
        # it improves, and the last one must drop that kernel exactly
        dictionary = tuple(rbf_kernel(0.5 + i) for i in range(5))
        sparsity = {"sparsity": 4} if variant == "sparse_combo" else {}
        fam = KernelFamily(variant=variant, dictionary=dictionary, **sparsity)
        first = dictionary[0].terms[0][1]

        def fake_fit(kernel, sample, params):
            return (), (sum(w for w, base in kernel.terms if base is first),)

        monkeypatch.setattr(erm, "fit_candidate", fake_fit)
        w, err, _ = erm._refine_weights(
            fam, None, PARAMS, SearchBudget(grid_resolution=3, refine_rounds=1),
            np.array([2, 1, 0, 0, 0]) / 3, 2 / 3)
        assert w.tolist() == [0.0, 0.5, 1 / 6, 1 / 6, 1 / 6]
        assert err == 0.0

    def test_unequal_task_sizes_rejected(self):
        with pytest.raises(InputError):
            MultiTaskSample(tasks=(
                TaskData(X=np.zeros((2, 1)), y=np.array([1.0, -1.0])),
                TaskData(X=np.zeros((3, 1)), y=np.array([1.0, -1.0, 1.0]))))


class TestAvgTrueError:
    def _planted_solution(self, env, dists, gamma):
        from mtkl.erm import MultiTaskSolution
        preds = tuple(d.planted_predictor() for d in dists)
        return MultiTaskSolution(
            kernel_params=None, kernel=dists[0].kernel, predictors=preds,
            avg_empirical_margin_error=0.0,
            per_task_errors=(0.0,) * len(dists), candidate_index=0,
            candidate_label="planted")

    def _env(self, flip, gap):
        from mtkl.envsim import InputLaw, TaskCluster, TaskEnvironment
        dictionary = (rbf_kernel(0.6, dims=(0, 1)),)
        return TaskEnvironment(
            dictionary=dictionary, input_law=InputLaw(dim=2),
            clusters=(TaskCluster(weight=1.0, kernel_index=0, margin_gap=gap,
                                  flip_rate=flip),))

    def test_perfectly_separated_zero_at_three_margins(self):
        from mtkl import avg_true_error, sample_lifelong
        gamma = 0.1
        env = self._env(flip=0.0, gap=2.5 * gamma)
        dists = sample_lifelong(env, 3, seed=31)
        sol = self._planted_solution(env, dists, gamma)
        for margin in (0.0, gamma, 2 * gamma):
            assert avg_true_error(sol.predictors, dists, margin, 4_000,
                                  seed=32) == 0.0

    def test_planted_noise_rates_average(self):
        from mtkl import avg_true_error, sample_lifelong
        p, q = 0.1, 0.3
        env_p, env_q = self._env(p, 0.2), self._env(q, 0.2)
        dists = [sample_lifelong(env_p, 1, seed=33)[0],
                 sample_lifelong(env_q, 1, seed=34)[0]]
        sol = self._planted_solution(env_p, dists, 0.1)
        est = avg_true_error(sol.predictors, dists, 0.0, 40_000, seed=35)
        se = 0.5 / np.sqrt(40_000)
        assert abs(est - (p + q) / 2) <= 3 * se

    def test_near_random_labels_near_half(self):
        from mtkl import avg_true_error, sample_lifelong
        env = self._env(flip=0.4999, gap=0.0)
        dists = sample_lifelong(env, 2, seed=36)
        sol = self._planted_solution(env, dists, 0.1)
        est = avg_true_error(sol.predictors, dists, 0.0, 40_000, seed=37)
        assert abs(est - 0.5) <= 3 * 0.5 / np.sqrt(40_000) + 1e-3

    def test_length_mismatch_rejected(self):
        from mtkl import avg_true_error, sample_lifelong
        env = self._env(0.0, 0.2)
        dists = sample_lifelong(env, 2, seed=38)
        sol = self._planted_solution(env, dists, 0.1)
        with pytest.raises(InputError):
            avg_true_error(sol.predictors, dists[:1], 0.0, 100, seed=0)
        with pytest.raises(InputError):
            avg_true_error(sol.predictors, dists, 0.0, 0, seed=0)


class TestDataFiles:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text(
            "# task_id, features..., label\n"
            "a,0.5,-0.25,1\n"
            "a,-0.5,0.5,-1\n"
            "b,0.1,0.2,1\n"
            "b,0.3,0.4,-1\n")
        sample = load_multitask_sample(path)
        assert sample.n == 2 and sample.m == 2
        np.testing.assert_array_equal(sample.tasks[0].y, [1.0, -1.0])
        np.testing.assert_allclose(sample.tasks[1].X, [[0.1, 0.2], [0.3, 0.4]])

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("a,0.5,2\n")
        with pytest.raises(InputError):
            load_multitask_sample(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("a,x,1\n")
        with pytest.raises(InputError):
            load_multitask_sample(path)
