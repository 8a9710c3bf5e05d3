"""Synthetic environments, seeding, and end-to-end trials."""

import re

import numpy as np
import pytest
from scipy import stats

from mtkl import (InputError, InputLaw, Kernel, KernelFamily, MarginParams,
                  NumericError, Predictor, SearchBudget, TaskCluster,
                  TaskEnvironment, avg_true_error, empirical_margin_error,
                  envsim, fit_single_task, make_planted_distribution,
                  overhead_curve, rbf_kernel, run_trial, sample_lifelong,
                  sample_multitask)
from mtkl.envsim import Distribution, as_seed_sequence, environment_from_dict
from mtkl.kernels import BaseKernel, custom_kernel, kernel_to_dict

import _oracles as orc


def small_env(flip=0.0, gap=0.25, n_kernels=3, dim=4, bandwidth=0.6,
              true_index=0, slack=0.5):
    views = [(2 * i % dim, (2 * i + 1) % dim) for i in range(n_kernels)]
    dictionary = tuple(rbf_kernel(bandwidth, dims=v) for v in views)
    return TaskEnvironment(
        dictionary=dictionary, input_law=InputLaw(dim=dim),
        clusters=(TaskCluster(weight=1.0, kernel_index=true_index,
                              margin_gap=gap, flip_rate=flip,
                              balance_slack=slack),))


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

    @pytest.mark.parametrize("gap", [np.nan, np.inf, -np.inf, -0.1])
    def test_margin_gap_validated(self, gap):
        # NaN passes a `gap < 0` test, and would reach sample's rejection
        # loop as a misleading NumericError
        env = small_env()
        dist = env.draw_task(np.random.default_rng(7))
        with pytest.raises(InputError, match="margin_gap"):
            make_planted_distribution(dist.input_law, dist.kernel, dist.anchors,
                                      dist.coeffs, margin_gap=gap)

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

    @pytest.mark.parametrize("anchor,coeff", [
        (0.2, np.nan), (0.2, np.inf), (np.nan, 0.5), (-np.inf, 0.5),
    ], ids=["nan_coeff", "inf_coeff", "nan_anchor", "inf_anchor"])
    @pytest.mark.parametrize("build", ["Distribution", "make_planted_distribution"])
    def test_non_finite_rule_rejected_at_construction(self, build, anchor, coeff):
        # a NaN coefficient once passed "norm_sq > 1 + 1e-8", and sampling then
        # spent every rejection round before a misleading NumericError
        anchors = np.array([[anchor, 0.1], [0.3, -0.4]])
        coeffs = np.array([coeff, 0.1])
        with pytest.raises(InputError, match="must be finite"):
            if build == "Distribution":
                Distribution(input_law=InputLaw(dim=2), kernel=rbf_kernel(0.5),
                             anchors=anchors, coeffs=coeffs)
            else:
                make_planted_distribution(InputLaw(dim=2), rbf_kernel(0.5),
                                          anchors, coeffs)

    @pytest.mark.parametrize("build,match", [
        ("Distribution", "K-norm^2 = nan is not at most 1"),
        ("make_planted_distribution", "K-norm^2 = nan, not above 1e-14"),
    ])
    def test_nan_rule_norm_rejected_at_construction(self, build, match):
        # finite anchors and coefficients, but a kernel whose values are NaN
        kernel = custom_kernel(lambda a, b: np.nan, bound_b=1.0)
        anchors, coeffs = np.array([[0.2, 0.1], [0.3, -0.4]]), np.array([1.0, 0.1])
        with pytest.raises(InputError, match=re.escape(match)):
            if build == "Distribution":
                Distribution(input_law=InputLaw(dim=2), kernel=kernel,
                             anchors=anchors, coeffs=coeffs)
            else:
                make_planted_distribution(InputLaw(dim=2), kernel, anchors, coeffs)


def view_distribution(flip=0.1, gap=0.25, low=-0.5, high=2.0):
    """A planted rule on a cube of width 8 whose two terms read columns
    (5, 2) and (6,), so rejection draws the block (2, 5, 6) alone."""
    kernel = Kernel(terms=((0.7, BaseKernel(kind="rbf", bandwidth=0.8,
                                            dims=(5, 2))),
                           (0.3, BaseKernel(kind="rbf", bandwidth=0.5,
                                            dims=(6,)))), bound_b=1.0)
    law = InputLaw(dim=8, low=low, high=high)
    rng = np.random.default_rng(43)  # a rule with about 35 % positive mass
    return make_planted_distribution(law, kernel, law.sample(6, rng),
                                     rng.standard_normal(6), margin_gap=gap,
                                     flip_rate=flip)


class TestViewSampling:
    """Rejection on the planted rule's columns alone draws (X, y) from the
    law of the full-width sampler in ``_oracles``, which draws every column
    of every round."""

    N = 20_000
    VIEW = (2, 5, 6)
    ALPHA = 1e-3  # per seeded test

    def test_marginals_and_label_rate_match_full_width(self):
        dist = view_distribution()
        X, y = dist.sample(self.N, np.random.default_rng(41))
        X_old, y_old = orc.full_width_sample(dist, self.N,
                                             np.random.default_rng(42))
        for col in range(8):
            assert stats.ks_2samp(X[:, col], X_old[:, col]).pvalue > self.ALPHA
        p, p_old = np.mean(y > 0), np.mean(y_old > 0)
        pooled = 0.5 * (p + p_old)
        assert abs(p - p_old) <= 4 * np.sqrt(pooled * (1 - pooled) * 2 / self.N)
        # the kept block is not uniform: rejection shapes it
        assert stats.kstest(X[:, 6], stats.uniform(-0.5, 2.5).cdf).pvalue \
            < self.ALPHA

    def test_kept_planted_values_clear_the_gap(self):
        dist = view_distribution(flip=0.0, gap=0.3)
        X, y = dist.sample(5_000, np.random.default_rng(43))
        vals = dist.decision_values(X)
        assert np.all(np.abs(vals) >= 0.3)
        np.testing.assert_array_equal(y, np.where(vals >= 0, 1.0, -1.0))

    def test_off_view_columns_uniform_and_independent_of_y(self):
        dist = view_distribution()
        X, y = dist.sample(self.N, np.random.default_rng(44))
        uniform = stats.uniform(-0.5, 2.5).cdf
        for col in sorted(set(range(8)) - set(self.VIEW)):
            assert X[:, col].min() >= -0.5 and X[:, col].max() < 2.0
            assert stats.kstest(X[:, col], uniform).pvalue > self.ALPHA
            assert stats.ks_2samp(X[y > 0, col], X[y < 0, col]).pvalue \
                > self.ALPHA
        # the view columns do depend on y, so the check can tell
        assert min(stats.ks_2samp(X[y > 0, c], X[y < 0, c]).pvalue
                   for c in self.VIEW) < self.ALPHA

    @pytest.mark.parametrize("case", ["mixture", "no_dims", "full_view",
                                      "one_term_without_dims"])
    def test_other_laws_draw_full_width_bit_for_bit(self, case):
        rng = np.random.default_rng(45)
        if case == "mixture":
            law = InputLaw(kind="gaussian_mixture", dim=3,
                           means=[[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]],
                           scales=[0.5, 1.0], weights=[1.0, 2.0])
            kernel = rbf_kernel(0.6, dims=(1,))
        else:
            law = InputLaw(dim=3)
            kernel = {"no_dims": rbf_kernel(0.6),
                      "full_view": rbf_kernel(0.6, dims=(2, 0, 1)),
                      "one_term_without_dims": Kernel(terms=(
                          (0.5, BaseKernel(kind="rbf", dims=(0,))),
                          (0.5, BaseKernel(kind="rbf"))), bound_b=1.0)}[case]
        dist = make_planted_distribution(law, kernel, law.sample(5, rng),
                                         rng.standard_normal(5),
                                         margin_gap=0.1, flip_rate=0.2)
        X, y = dist.sample(300, np.random.default_rng(46))
        X_old, y_old = orc.full_width_sample(dist, 300,
                                             np.random.default_rng(46))
        assert X.tobytes() == X_old.tobytes() and y.tobytes() == y_old.tobytes()

    @pytest.mark.parametrize("dims, block_dims", [
        (((2, 3),), (None,)),
        (((0, 2), (2, 3)), ((0, 1), (1, 2)))])
    def test_block_kernel_reads_the_block_in_place(self, dims, block_dims):
        # a term reading the whole block in order takes dims=None; terms
        # reading parts of it keep their renumbered dims. Either way the
        # block kernel scores the block as the rule scores full rows.
        kernel = Kernel(terms=tuple(
            (w, BaseKernel(kind="rbf", bandwidth=0.7, dims=d))
            for w, d in zip((0.6, 0.4), dims)), bound_b=1.0)
        law = InputLaw(dim=6)
        rng = np.random.default_rng(49)
        dist = make_planted_distribution(law, kernel, law.sample(5, rng),
                                         rng.standard_normal(5))
        block_law, block_kernel, anchors, view = dist._rejection_rule
        assert [b.dims for _, b in block_kernel.terms] == list(block_dims)
        X = law.sample(300, rng)
        block = np.ascontiguousarray(X[:, view])
        assert block_law.dim == len(view) == block.shape[1]
        assert block_kernel.expand(dist.coeffs, anchors, block).tobytes() \
            == kernel.expand(dist.coeffs, dist.anchors, X).tobytes()

    def test_dims_outside_the_cube_still_rejected(self):
        # anchors wide enough for dims (3,), but the cube has only 2 columns
        rng = np.random.default_rng(47)
        dist = make_planted_distribution(
            InputLaw(dim=2), rbf_kernel(0.6, dims=(3,)),
            rng.uniform(-1, 1, (4, 4)), rng.standard_normal(4))
        with pytest.raises(InputError, match="out of range"):
            dist.sample(10, np.random.default_rng(48))


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

    def test_seed_sequence_is_not_used_up(self):
        # spawning advanced the caller's SeedSequence: a second call with the
        # same object drew other anchors. Each call now draws what a fresh
        # SeedSequence(5), and so the int seed 5, draws.
        env = small_env()
        ss = np.random.SeedSequence(5)
        first, second = (sample_lifelong(env, 2, ss) for _ in range(2))
        for a, b, c in zip(first, second, sample_lifelong(env, 2, seed=5)):
            np.testing.assert_array_equal(a.anchors, b.anchors)
            np.testing.assert_array_equal(a.anchors, c.anchors)
        assert ss.n_children_spawned == 0
        # a spawned child keeps its key and spawn count
        child = np.random.SeedSequence(5).spawn(3)[1]
        child.spawn(2)
        copied = as_seed_sequence(child)
        assert (copied.entropy, copied.spawn_key, copied.pool_size,
                copied.n_children_spawned) == (5, (1,), 4, 2)
        assert copied.spawn(1)[0].spawn_key == (1, 2)

    def test_per_task_streams_follow_spawn_rule(self):
        # oracle: task i draws from default_rng(SeedSequence(seed).spawn(n)[i])
        env = small_env(flip=0.1)
        dists = sample_lifelong(env, 3, seed=12)
        sample = sample_multitask(dists, 16, seed=23)
        streams = np.random.SeedSequence(23).spawn(3)
        for task, dist, stream in zip(sample.tasks, dists, streams):
            X, y = dist.sample(16, np.random.default_rng(stream))
            np.testing.assert_array_equal(task.X, X)
            np.testing.assert_array_equal(task.y, y)

    def test_avg_true_error_follows_spawn_rule(self):
        env = small_env(flip=0.1)
        dist = sample_lifelong(env, 1, seed=13)[0]
        rng = np.random.default_rng(14)
        h = Predictor(alphas=rng.standard_normal(5),
                      support_sample=rng.uniform(-1, 1, (5, 4)),
                      kernel=dist.kernel)
        stream = np.random.SeedSequence(24).spawn(1)[0]
        X, y = dist.sample(3_000, np.random.default_rng(stream))
        for gamma in (0.0, 0.2):
            expected = float(np.mean(y * h.evaluate(X) < gamma))
            assert avg_true_error([h], [dist], gamma, 3_000, 24) == expected

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
        report = run_trial(self.env, self.family, n=3, m=24, gamma=0.1,
                           delta=0.05, seed=77, mc_samples=4_000,
                           evaluate_guarantee=False).report
        assert report.sandwich_ok
        assert report.epsilon > 0
        assert report.epsilon_valid
        assert 0 <= report.er_hat <= 1

    def test_rerun_bitwise_identical(self):
        kwargs = dict(n=2, m=16, gamma=0.1, delta=0.05, seed=78,
                      mc_samples=2_000, evaluate_guarantee=False)
        a = run_trial(self.env, self.family, **kwargs).report
        b = run_trial(self.env, self.family, **kwargs).report
        assert a == b

    def test_rerun_from_one_seed_sequence_identical(self):
        # one SeedSequence object passed twice gave er 0.0155, then 0.0
        kwargs = dict(n=2, m=16, gamma=0.1, delta=0.05, mc_samples=2_000,
                      evaluate_guarantee=False)
        ss = np.random.SeedSequence(5)
        a = run_trial(self.env, self.family, seed=ss, **kwargs).report
        b = run_trial(self.env, self.family, seed=ss, **kwargs).report
        assert a == b == run_trial(self.env, self.family, seed=5, **kwargs).report

    def test_tiny_m_reports_invalid_flag(self):
        report = run_trial(self.env, self.family, n=2, m=2, gamma=2.5,
                           delta=0.05, seed=79, mc_samples=1_000,
                           evaluate_guarantee=False).report
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
        kwargs = dict(n=2, m=24, gamma=0.1, delta=0.05, seed=81,
                      evaluate_guarantee=False)
        a = run_trial(self.env, self.family, mc_samples=20_000, **kwargs).report
        b = run_trial(self.env, self.family, mc_samples=40_000, **kwargs).report
        pooled_se = 0.5 * np.sqrt(1 / 20_000 + 1 / 40_000)
        assert abs(a.er - b.er) <= 3 * pooled_se + 1e-9

    def test_n1_reduces_to_single_task(self):
        from mtkl.erm import erm_fit
        from mtkl.envsim import as_seed_sequence
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
        from mtkl.envsim import as_seed_sequence
        budget = SearchBudget(grid_resolution=2, refine_rounds=1)
        kwargs = dict(n=3, m=16, gamma=0.1, delta=0.05, mc_samples=1_000)
        # the first seed from 87 on whose refinement beats the grid
        for seed in range(87, 87 + 32):
            outcome = run_trial(self.env, self.family, seed=seed,
                                budget=budget, **kwargs)
            if outcome.solution.candidate_label.startswith("refined"):
                break
        else:
            pytest.fail("refinement never beat the grid on seeds 87-118")
        ss_tasks, ss_data, _ = as_seed_sequence(seed).spawn(3)
        sample = sample_multitask(sample_lifelong(self.env, 3, ss_tasks), 16,
                                  ss_data)
        direct = erm_fit(self.family, sample, MarginParams(gamma=0.1), budget)
        np.testing.assert_array_equal(outcome.solution.kernel_params,
                                      direct.kernel_params)
        assert outcome.solution.candidate_label == direct.candidate_label
        assert outcome.report.er_hat == direct.avg_empirical_margin_error
        # the guarantee still compares against the best grid candidate
        grid = run_trial(self.env, self.family, seed=seed,
                         budget=SearchBudget(grid_resolution=2), **kwargs)
        assert outcome.guarantee.er_2gamma_best == grid.guarantee.er_2gamma_best

    def test_avg_true_error_reproduces_trial_risks(self):
        from mtkl.envsim import as_seed_sequence
        # balanced labels make the two tasks' rules differ, so a trial that
        # scored each predictor on the other task's draws would show
        env = small_env(flip=0.1, gap=0.25, slack=0.2)
        dists = sample_lifelong(env, 2, seed=88)
        outcome = run_trial(dists, self.family, n=2, m=16, gamma=0.1,
                            delta=0.05, seed=89, mc_samples=2_000,
                            evaluate_guarantee=False)
        predictors = outcome.solution.predictors
        for margin, expected in ((0.0, outcome.report.er),
                                 (2 * 0.1, outcome.report.er_2gamma)):
            ss_mc = as_seed_sequence(89).spawn(3)[2]
            swapped = avg_true_error(predictors[::-1], dists, margin, 2_000,
                                     ss_mc)
            assert swapped != expected
            ss_mc = as_seed_sequence(89).spawn(3)[2]
            assert avg_true_error(predictors, dists, margin, 2_000,
                                  ss_mc) == expected

    def test_distribution_list_source(self):
        dists = sample_lifelong(self.env, 2, seed=82)
        kwargs = dict(m=12, gamma=0.1, delta=0.05, seed=83, mc_samples=1_000,
                      evaluate_guarantee=False)
        outcome = run_trial(dists, self.family, n=2, **kwargs)
        assert len(outcome.solution.predictors) == 2
        with pytest.raises(InputError):
            run_trial(dists, self.family, n=3, **kwargs)


def scoring_spy(monkeypatch):
    """Patch ``envsim._mc_scores`` to call through and record each call's
    Monte Carlo sample; returns a function giving the number of calls made
    on each sample, in order. The recorded samples are held, so two points'
    samples are never the same object."""
    real = envsim._mc_scores
    scored = []

    def spy(predictors, mc_data):
        scored.append(mc_data)
        return real(predictors, mc_data)

    monkeypatch.setattr(envsim, "_mc_scores", spy)

    def calls_per_sample():
        counts = []
        for i, data in enumerate(scored):
            if i and data is scored[i - 1]:
                counts[-1] += 1
            else:
                counts.append(1)
        return counts
    return calls_per_sample


class TestOverheadCurve:
    @pytest.mark.parametrize("planted, scorings", [(0, 1), (2, 2)])
    def test_equally_good_dictionary_flat_zero(self, monkeypatch, planted,
                                               scorings):
        # every dictionary kernel is the same kernel: no selection overhead.
        # ERM's tie goes to vertex 0; planted there, the oracle's fits use
        # its BaseKernel and reuse ERM's scores; planted at vertex 2, an
        # equal but distinct object, they are scored and score the same
        dictionary = tuple(rbf_kernel(0.6, dims=(0, 1)) for _ in range(3))
        env = TaskEnvironment(dictionary=dictionary, input_law=InputLaw(dim=4),
                              clusters=(TaskCluster(weight=1.0,
                                                    kernel_index=planted,
                                                    margin_gap=0.25),))
        fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
        calls_per_sample = scoring_spy(monkeypatch)
        pts = overhead_curve(env, fam, m=12, n_grid=[1, 2], trials=3, seed=9,
                             gamma=0.1, mc_samples=2_000)
        assert calls_per_sample() == [scorings] * len(pts)
        for p in pts:
            assert p.excess_error == 0.0

    def test_oracle_error_flat_in_n(self):
        env = small_env(flip=0.0)
        fam = KernelFamily(variant="convex_combo", dictionary=env.dictionary)
        pts = overhead_curve(env, fam, m=16, n_grid=[1, 4], trials=6, seed=10,
                             gamma=0.1, mc_samples=4_000)
        lo = np.mean([p.oracle_error for p in pts if p.n == 1])
        hi = np.mean([p.oracle_error for p in pts if p.n == 4])
        assert abs(lo - hi) < 0.05  # independent per-task problems

    def test_oracle_fits_with_the_planted_kernel(self, monkeypatch):
        # each trial's oracle error is the planted kernel's fits scored on
        # the trial's Monte Carlo stream; on some trial ERM picks another
        # kernel whose fits score differently, so the check can fail. A
        # trial whose ERM fits are the oracle's (the planted kernel's terms,
        # equal alphas) scores its sample once, any other trial twice.
        from mtkl.erm import erm_fit
        env = small_env(n_kernels=3, dim=6, true_index=2, slack=0.2)
        fam = KernelFamily(variant="convex_combo", dictionary=env.dictionary)
        params = MarginParams(gamma=0.1)
        trials, n, m, mc = 6, 2, 8, 2_000
        calls_per_sample = scoring_spy(monkeypatch)
        points = overhead_curve(env, fam, m=m, n_grid=[n], trials=trials,
                                seed=10, gamma=0.1, mc_samples=mc)
        scored = calls_per_sample()  # before the checks below score more
        differs, scorings = [], []
        for t, point in enumerate(points):
            # trial t spawns children 3t, 3t+1 and 3t+2 of the root
            def stream(k):
                return as_seed_sequence(10).spawn(3 * t + 3)[3 * t + k]
            dists = sample_lifelong(env, n, stream(0))
            sample = sample_multitask(dists, m, stream(1))

            def fits(kernel):
                return [fit_single_task(kernel, task, params)
                        for task in sample.tasks]

            oracle = fits(env.dictionary[2])
            assert avg_true_error(oracle, dists, 0.0, mc, stream(2)) \
                == point.oracle_error
            erm = erm_fit(fam, sample, params)
            # BaseKernel compares by identity, weights as floats
            reused = erm.kernel.terms == env.dictionary[2].terms and all(
                np.array_equal(e.alphas, o.alphas)
                for e, o in zip(erm.predictors, oracle))
            scorings.append(1 if reused else 2)
            differs.append(avg_true_error(fits(erm.kernel), dists, 0.0, mc,
                                          stream(2)) != point.oracle_error)
        assert scored == scorings
        assert set(scorings) == {1, 2} and any(differs)

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

    def _mixture_spec(self, **law):
        return {
            "input_law": {"kind": "gaussian_mixture", "dim": 2, **law},
            "dictionary": [{"type": "rbf", "bandwidth": 1.0}],
            "clusters": [{"kernel_index": 0}],
        }

    def test_uniform_cube_draws_match_rng_uniform_bitwise(self):
        for low, high, m, dim in [(-1.0, 1.0, 40, 32), (0, 1, 7, 3),
                                  (-3.5, 1e-3, 1000, 2), (2.0, 2.0 + 1e-9, 5, 4),
                                  (-1e300, 1e300, 16, 1), (-1, 4.25, 0, 3)]:
            law = InputLaw(dim=dim, low=low, high=high)
            got = law.sample(m, np.random.default_rng(m + dim))
            want = np.random.default_rng(m + dim).uniform(low, high, (m, dim))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("low,high", [(-1e308, 1e308), (-1.7e308, 0.5e308)])
    def test_uniform_cube_span_overflow_rejected(self, low, high):
        # rng.uniform raises OverflowError here; scaling by an infinite span
        # would draw infinities
        with pytest.raises(InputError, match="finite"):
            InputLaw(dim=2, low=low, high=high)

    @pytest.mark.parametrize("field,value", [("means", [[0.0, 0.0]]),
                                             ("scales", [2.0]),
                                             ("weights", [1.0])])
    def test_uniform_cube_rejects_mixture_fields(self, field, value):
        with pytest.raises(InputError, match=f"does not read {field}"):
            InputLaw(kind="uniform_cube", dim=2, **{field: value})

    @pytest.mark.parametrize("field", ["low", "high"])
    def test_gaussian_mixture_rejects_cube_fields(self, field):
        with pytest.raises(InputError, match=f"does not read {field}"):
            InputLaw(kind="gaussian_mixture", dim=2, means=[[0.0, 0.0]],
                     **{field: 5.0})

    def test_only_a_cube_fills_in_its_bounds(self):
        cube = InputLaw(dim=3)
        assert (cube.low, cube.high) == (-1.0, 1.0)
        got = cube.sample(9, np.random.default_rng(6))
        want = np.random.default_rng(6).uniform(-1.0, 1.0, (9, 3))
        assert got.tobytes() == want.tobytes()
        mixture = InputLaw(kind="gaussian_mixture", dim=2, means=[[0.0, 0.0]])
        assert (mixture.low, mixture.high) == (None, None)

    def test_gaussian_mixture_input_law(self):
        means = np.array([[-10.0, 0.0], [10.0, 5.0]])
        scales, N = np.array([0.5, 1.5]), 20_000
        law = environment_from_dict(self._mixture_spec(
            means=means.tolist(), scales=scales.tolist(),
            weights=[1.0, 3.0])).input_law
        X = law.sample(N, np.random.default_rng(5))
        # the means lie 13+ spreads apart, so the side of x_0 = 0 names the
        # component
        comp = (X[:, 0] > 0).astype(int)
        se = np.sqrt(0.25 * 0.75 / N)
        assert abs(comp.mean() - 0.75) <= 3 * se
        for c in (0, 1):
            resid = (X[comp == c] - means[c]).ravel()
            assert abs(resid.mean()) <= 3 * scales[c] / np.sqrt(len(resid))
            assert abs(resid.std() - scales[c]) <= \
                3 * scales[c] / np.sqrt(2 * len(resid))

    @pytest.mark.parametrize("law,match", [
        ({}, "means"),
        ({"means": [[0.0, 0.0, 0.0]]}, "shapes"),
        ({"means": [[0.0, 0.0], [1.0, 1.0]], "scales": [1.0]}, "shapes"),
        ({"means": [[0.0, 0.0], [1.0, 1.0]], "weights": [1.0, 1.0, 1.0]},
         "shapes"),
        ({"means": [[0.0, 0.0], [1.0, 1.0]], "scales": [1.0, -1.0]},
         "scales"),
        # keys the other kind reads: a mixture has no low or high, and a
        # cube no means, scales or weights
        ({"means": [[0.0, 0.0]], "low": -1.0}, "'low'"),
        ({"means": [[0.0, 0.0]], "high": 1.0}, "'high'"),
        ({"kind": "uniform_cube", "means": [[0.0, 0.0]]}, "'means'"),
        ({"kind": "uniform_cube", "scales": [2.0]}, "'scales'"),
        ({"kind": "uniform_cube", "weights": [1.0]}, "'weights'"),
        ({"kind": "uniform_cube", "low": None}, "low"),
    ], ids=["no_means", "means_dim", "scales_count", "weights_count",
            "negative_scale", "mixture_low", "mixture_high", "cube_means",
            "cube_scales", "cube_weights", "cube_low_null"])
    def test_malformed_gaussian_mixture_rejected(self, law, match):
        with pytest.raises(InputError, match=match):
            environment_from_dict(self._mixture_spec(**law))
