"""Synthetic environments, seeding, and end-to-end trials."""

import numpy as np
import pytest

from mtkl import (InputError, InputLaw, KernelFamily, MarginParams, NumericError,
                  SearchBudget, TaskCluster, TaskEnvironment, empirical_margin_error,
                  make_planted_distribution, overhead_curve, rbf_kernel, run_trial,
                  run_sandwich_trial, sample_lifelong, sample_multitask)
from mtkl.envsim import environment_from_dict
from mtkl.kernels import kernel_to_dict


def small_env(flip=0.0, gap=0.25, n_kernels=3, dim=4, bandwidth=0.6,
              true_index=0):
    views = [(2 * i % dim, (2 * i + 1) % dim) for i in range(n_kernels)]
    dictionary = tuple(rbf_kernel(bandwidth, dims=v) for v in views)
    return TaskEnvironment(
        dictionary=dictionary, input_law=InputLaw(dim=dim),
        clusters=(TaskCluster(weight=1.0, kernel_index=true_index,
                              margin_gap=gap, flip_rate=flip),))


class TestDistributions:
    def test_flip_fraction_concentrates(self):
        env = small_env(flip=0.25)
        dist = env.draw_task(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        X, y = dist.sample(10_000, rng)
        clean = np.where(dist.decision_values(X) >= 0, 1.0, -1.0)
        flip_frac = np.mean(clean != y)
        se = np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(flip_frac - 0.25) <= 3 * se

    def test_margin_gap_enforced(self):
        env = small_env(gap=0.3)
        dist = env.draw_task(np.random.default_rng(2))
        X, _ = dist.sample(2_000, np.random.default_rng(3))
        assert np.all(np.abs(dist.decision_values(X)) >= 0.3)

    def test_hopeless_gap_raises(self):
        env = small_env(gap=0.3)
        dist = env.draw_task(np.random.default_rng(4))
        hopeless = make_planted_distribution(
            dist.input_law, dist.kernel, dist.anchors, dist.coeffs,
            margin_gap=50.0)
        with pytest.raises(NumericError):
            hopeless.sample(100, np.random.default_rng(5))

    def test_planted_rule_unit_norm(self):
        env = small_env()
        dist = env.draw_task(np.random.default_rng(6))
        assert dist.planted_predictor().norm_sq() == pytest.approx(1.0, abs=1e-9)

    def test_flip_rate_validated(self):
        env = small_env()
        dist = env.draw_task(np.random.default_rng(7))
        with pytest.raises(InputError):
            make_planted_distribution(dist.input_law, dist.kernel, dist.anchors,
                                      dist.coeffs, flip_rate=0.5)


class TestSampling:
    def test_multitask_bitwise_deterministic(self):
        env = small_env(flip=0.1)
        dists = sample_lifelong(env, 3, seed=11)
        a = sample_multitask(dists, 16, seed=22)
        b = sample_multitask(dists, 16, seed=22)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.X, tb.X)
            np.testing.assert_array_equal(ta.y, tb.y)

    def test_per_task_substreams_distinct(self):
        env = small_env()
        dists = sample_lifelong(env, 2, seed=11)
        sample = sample_multitask(dists, 8, seed=22)
        assert not np.array_equal(sample.tasks[0].X, sample.tasks[1].X)

    def test_noise_free_labels_match_planted_sign(self):
        env = small_env(flip=0.0)
        dists = sample_lifelong(env, 1, seed=1)
        sample = sample_multitask(dists, 64, seed=2)
        task = sample.tasks[0]
        np.testing.assert_array_equal(
            task.y, np.where(dists[0].decision_values(task.X) >= 0, 1.0, -1.0))

    def test_lifelong_same_seed_identical(self):
        env = small_env()
        a = sample_lifelong(env, 4, seed=5)
        b = sample_lifelong(env, 4, seed=5)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.anchors, db.anchors)
            np.testing.assert_array_equal(da.coeffs, db.coeffs)

    def test_degenerate_task_law_returns_same_distribution(self):
        env = small_env()
        fixed = env.draw_task(np.random.default_rng(9))
        degenerate = TaskEnvironment(dictionary=env.dictionary,
                                     input_law=env.input_law,
                                     clusters=env.clusters, fixed_task=fixed)
        dists = sample_lifelong(degenerate, 5, seed=3)
        assert all(d is fixed for d in dists)

    def test_two_cluster_frequencies(self):
        views = ((0, 1), (2, 3))
        dictionary = tuple(rbf_kernel(0.6, dims=v) for v in views)
        env = TaskEnvironment(
            dictionary=dictionary, input_law=InputLaw(dim=4),
            clusters=(TaskCluster(weight=0.5, kernel_index=0, margin_gap=0.1),
                      TaskCluster(weight=0.5, kernel_index=0, margin_gap=0.3)))
        dists = sample_lifelong(env, 400, seed=17)
        frac = np.mean([d.component for d in dists])
        se = np.sqrt(0.25 / 400)
        assert abs(frac - 0.5) <= 3 * se


class TestTrials:
    def setup_method(self):
        self.env = small_env(flip=0.1, gap=0.25)
        self.family = KernelFamily(variant="convex_combo",
                                   dictionary=self.env.dictionary)

    def test_sandwich_trial_end_to_end(self):
        report = run_sandwich_trial(self.env, self.family, n=3, m=24,
                                    gamma=0.1, delta=0.05, seed=77,
                                    mc_samples=4_000)
        assert report.sandwich_ok
        assert report.epsilon > 0
        assert report.epsilon_valid
        assert 0 <= report.er_hat <= 1

    def test_rerun_bitwise_identical(self):
        kwargs = dict(n=2, m=16, gamma=0.1, delta=0.05, seed=78,
                      mc_samples=2_000)
        a = run_sandwich_trial(self.env, self.family, **kwargs)
        b = run_sandwich_trial(self.env, self.family, **kwargs)
        assert a == b

    def test_tiny_m_reports_invalid_flag(self):
        report = run_sandwich_trial(self.env, self.family, n=2, m=2,
                                    gamma=2.5, delta=0.05, seed=79,
                                    mc_samples=1_000)
        assert isinstance(report.epsilon_valid, bool)
        assert report.er_hat >= 0  # trial still reported

    def test_er_hat_matches_margin_learner_on_solution(self):
        outcome = run_trial(self.env, self.family, n=2, m=16, gamma=0.1,
                            delta=0.05, seed=80, mc_samples=1_000,
                            evaluate_guarantee=False)
        dists = sample_lifelong(self.env, 2,
                                np.random.SeedSequence(80).spawn(3)[0])
        sample = sample_multitask(dists, 16,
                                  np.random.SeedSequence(80).spawn(3)[1])
        errs = [empirical_margin_error(p, t, 0.1)
                for p, t in zip(outcome.solution.predictors, sample.tasks)]
        assert outcome.report.er_hat == pytest.approx(np.mean(errs), abs=1e-15)

    def test_mc_estimates_stable_when_doubling(self):
        a = run_sandwich_trial(self.env, self.family, n=2, m=24, gamma=0.1,
                               delta=0.05, seed=81, mc_samples=20_000)
        b = run_sandwich_trial(self.env, self.family, n=2, m=24, gamma=0.1,
                               delta=0.05, seed=81, mc_samples=40_000)
        pooled_se = 0.5 * np.sqrt(1 / 20_000 + 1 / 40_000)
        assert abs(a.er - b.er) <= 3 * pooled_se + 1e-9

    def test_n1_reduces_to_single_task(self):
        from mtkl.erm import erm_fit
        from mtkl.seeding import as_seed_sequence
        outcome = run_trial(self.env, self.family, n=1, m=16, gamma=0.1,
                            delta=0.05, seed=84, mc_samples=1_000,
                            evaluate_guarantee=False)
        root = as_seed_sequence(84)
        ss_tasks, ss_data, _ = root.spawn(3)
        dists = sample_lifelong(self.env, 1, ss_tasks)
        sample = sample_multitask(dists, 16, ss_data)
        direct = erm_fit(self.family, sample, MarginParams(gamma=0.1))
        assert outcome.report.er_hat == direct.avg_empirical_margin_error
        assert outcome.solution.candidate_index == direct.candidate_index

    def test_refinement_matches_erm_fit(self):
        from mtkl.erm import erm_fit
        from mtkl.seeding import as_seed_sequence
        budget = SearchBudget(grid_resolution=2, refine_rounds=1)
        outcome = run_trial(self.env, self.family, n=3, m=16, gamma=0.1,
                            delta=0.05, seed=87, mc_samples=1_000, budget=budget)
        assert outcome.solution.candidate_label.startswith("refined")
        ss_tasks, ss_data, _ = as_seed_sequence(87).spawn(3)
        sample = sample_multitask(sample_lifelong(self.env, 3, ss_tasks), 16,
                                  ss_data)
        direct = erm_fit(self.family, sample, MarginParams(gamma=0.1), budget)
        np.testing.assert_array_equal(outcome.solution.kernel_params,
                                      direct.kernel_params)
        assert outcome.solution.candidate_label == direct.candidate_label
        assert outcome.report.er_hat == direct.avg_empirical_margin_error
        # the guarantee still compares against the best grid candidate
        grid = run_trial(self.env, self.family, n=3, m=16, gamma=0.1,
                         delta=0.05, seed=87, mc_samples=1_000,
                         budget=SearchBudget(grid_resolution=2))
        assert outcome.guarantee.er_2gamma_best == grid.guarantee.er_2gamma_best

    def test_avg_true_error_reproduces_trial_risks(self):
        from mtkl import avg_true_error
        from mtkl.seeding import as_seed_sequence
        dists = sample_lifelong(self.env, 2, seed=88)
        outcome = run_trial(dists, self.family, n=2, m=16, gamma=0.1,
                            delta=0.05, seed=89, mc_samples=2_000,
                            evaluate_guarantee=False)
        for margin, expected in ((0.0, outcome.report.er),
                                 (2 * 0.1, outcome.report.er_2gamma)):
            ss_mc = as_seed_sequence(89).spawn(3)[2]
            assert avg_true_error(outcome.solution, dists, margin, 2_000,
                                  ss_mc) == expected

    def test_distribution_list_source(self):
        dists = sample_lifelong(self.env, 2, seed=82)
        report = run_sandwich_trial(dists, self.family, n=2, m=12, gamma=0.1,
                                    delta=0.05, seed=83, mc_samples=1_000)
        assert report.n == 2
        with pytest.raises(InputError):
            run_sandwich_trial(dists, self.family, n=3, m=12, gamma=0.1,
                               delta=0.05, seed=83, mc_samples=1_000)


class TestOverheadCurve:
    def test_equally_good_dictionary_flat_zero(self):
        # every dictionary kernel is the same kernel: no selection overhead
        dictionary = tuple(rbf_kernel(0.6, dims=(0, 1)) for _ in range(3))
        env = TaskEnvironment(dictionary=dictionary, input_law=InputLaw(dim=4),
                              clusters=(TaskCluster(weight=1.0, kernel_index=0,
                                                    margin_gap=0.25),))
        fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
        pts = overhead_curve(env, fam, m=12, n_grid=[1, 2], trials=3, seed=9,
                             gamma=0.1, mc_samples=2_000)
        for p in pts:
            assert p.excess_error == pytest.approx(0.0, abs=1e-12)

    def test_oracle_error_flat_in_n(self):
        env = small_env(flip=0.0)
        fam = KernelFamily(variant="convex_combo", dictionary=env.dictionary)
        pts = overhead_curve(env, fam, m=16, n_grid=[1, 4], trials=6, seed=10,
                             gamma=0.1, mc_samples=4_000)
        lo = np.mean([p.oracle_error for p in pts if p.n == 1])
        hi = np.mean([p.oracle_error for p in pts if p.n == 4])
        assert abs(lo - hi) < 0.05  # independent per-task problems

    def test_n_grid_validated(self):
        env = small_env()
        fam = KernelFamily(variant="convex_combo", dictionary=env.dictionary)
        with pytest.raises(InputError):
            overhead_curve(env, fam, m=8, n_grid=[4, 2], trials=1, seed=0,
                           gamma=0.1)


class TestEnvironmentFiles:
    def test_round_trip_and_strict_keys(self):
        env = small_env(flip=0.05)
        spec = {
            "input_law": {"kind": "uniform_cube", "dim": 4},
            "dictionary": [kernel_to_dict(k) for k in env.dictionary],
            "clusters": [{"weight": 1.0, "kernel_index": 0,
                          "margin_gap": 0.25, "flip_rate": 0.05}],
        }
        loaded = environment_from_dict(spec)
        assert loaded.shared_kernel_index == 0
        assert loaded.clusters[0].flip_rate == 0.05
        spec_bad = dict(spec)
        spec_bad["margin"] = 1
        with pytest.raises(InputError, match="margin"):
            environment_from_dict(spec_bad)
        spec_bad2 = dict(spec)
        spec_bad2["clusters"] = [{"weight": 1.0, "kernel_index": 0,
                                  "flip_rte": 0.05}]
        with pytest.raises(InputError, match="flip_rte"):
            environment_from_dict(spec_bad2)

    def test_bad_kernel_index_rejected(self):
        spec = {
            "input_law": {"kind": "uniform_cube", "dim": 2},
            "dictionary": [{"type": "rbf", "bandwidth": 1.0}],
            "clusters": [{"weight": 1.0, "kernel_index": 3}],
        }
        with pytest.raises(InputError):
            environment_from_dict(spec)
