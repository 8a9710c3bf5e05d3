"""Single-task margin learner contracts."""

import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtkl import (InputError, MarginParams, MultiTaskSample, NumericError,
                  Predictor, TaskData, avg_true_error, check_kernel_invariants,
                  empirical_margin_error, fit_single_task, rbf_kernel,
                  linear_kernel)
from mtkl.kernels import Kernel, custom_kernel, gaussian_metric_kernel, poly_kernel
from mtkl import _accel, envsim, kernels, margin

import _oracles as orc


def predictor_with_scores(scores):
    """A 1-D predictor whose value at x equals x (labels supply the signs)."""
    ident = custom_kernel(lambda a, b: float(a[0] * b[0]), bound_b=4.0)
    return Predictor(alphas=np.array([1.0]), support_sample=np.array([[1.0]]),
                     kernel=ident), np.asarray(scores, dtype=float)


class TestEmpiricalMarginError:
    def _error(self, margins, gamma):
        pred, vals = predictor_with_scores(margins)
        data = TaskData(X=vals[:, None], y=np.ones(len(vals)))
        return empirical_margin_error(pred, data, gamma)

    def test_margin_satisfied(self):
        assert self._error([0.5], 0.2) == 0.0

    def test_margin_violated(self):
        assert self._error([0.5], 0.6) == 1.0

    def test_counting(self):
        assert self._error([-0.1, 0.05, 0.3, 0.9], 0.2) == 0.5

    def test_gamma_zero_is_01_error(self):
        assert self._error([-0.1, 0.05, 0.3, 0.9], 0.0) == 0.25

    def test_tie_at_gamma_is_not_an_error(self):
        # the margin error counts y h(x) < gamma strictly: a margin equal to
        # gamma, exactly representable here, is no error at that gamma
        assert self._error([0.25, 0.3, 0.125], 0.25) == 1 / 3
        assert self._error([0.0, 0.5], 0.0) == 0.0
        pred, _ = predictor_with_scores([])
        data = TaskData(X=np.array([[-0.25], [-0.125]]), y=-np.ones(2))
        assert empirical_margin_error(pred, data, 0.25) == 0.5

    def test_tie_at_gamma_is_not_an_error_on_monte_carlo_scores(self):
        # the Monte Carlo risk reads margins through the same rule: a score
        # equal to the margin is no error there either
        scores = [np.array([0.25, 0.3, 0.125]), np.array([0.0, 0.5])]
        pred, _ = predictor_with_scores([])
        # a task whose every draw is its scores as 1-D rows labeled +1
        tasks = [SimpleNamespace(sample=lambda m, rng, s=s: (s[:, None],
                                                             np.ones(len(s))))
                 for s in scores]

        def risk(tasks, margin):
            [[value]] = envsim._mc_risks([[pred] * len(tasks)], tasks,
                                         (margin,), 1, 0)
            return value
        assert risk(tasks, 0.25) == (1 / 3 + 1 / 2) / 2
        assert risk(tasks[1:], 0.0) == 0.0
        for s, task in zip(scores, tasks):
            assert risk([task], 0.25) == self._error(s, 0.25)

    def test_label_validation(self):
        with pytest.raises(InputError, match="labels"):
            TaskData(X=np.zeros((2, 1)), y=np.array([1.0, 0.0]))

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError, match="empty"):
            TaskData(X=np.empty((0, 2)), y=np.empty(0))

    @given(margins=hnp.arrays(np.float64, st.integers(1, 40),
                              elements=st.floats(-2, 2)),
           g1=st.floats(0, 1.5), g2=st.floats(0, 1.5))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_gamma(self, margins, g1, g2):
        lo, hi = min(g1, g2), max(g1, g2)
        assert self._error(margins, lo) <= self._error(margins, hi)


class TestFitSingleTask:
    def test_two_point_separable_linear(self):
        data = TaskData(X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]))
        k = linear_kernel(bound_b=1.0)
        pred = fit_single_task(k, data, MarginParams(gamma=0.5))
        assert empirical_margin_error(pred, data, 0.5) == 0.0
        assert pred.norm_sq() <= 1.0 + 1e-8

    def test_two_point_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            X = rng.uniform(-1, 1, (2, 2))
            if np.linalg.norm(X[0] - X[1]) < 0.3:
                continue
            y = np.array([-1.0, 1.0])
            k = rbf_kernel(float(rng.uniform(0.5, 1.5)))
            data = TaskData(X=X, y=y)
            gamma = float(rng.uniform(0.05, 0.3))
            pred = fit_single_task(k, data, MarginParams(gamma=gamma))
            ours = empirical_margin_error(pred, data, gamma)
            K = k.gram(X)
            best = orc.grid_best_margin_error(K, y, gamma)
            assert ours == best

    def test_all_labels_identical(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.5, 1.5, (12, 2))  # one halfspace
        data = TaskData(X=X, y=np.ones(12))
        pred = fit_single_task(linear_kernel(scale=0.25, bound_b=1.25), data,
                               MarginParams(gamma=0.1))
        assert empirical_margin_error(pred, data, 0.0) == 0.0

    def test_single_point_closed_form(self):
        for bw, gamma in ((1.0, 0.5), (1.0, 1.1)):
            k = rbf_kernel(bw)  # K(x, x) = 1
            data = TaskData(X=np.array([[0.3, -0.4]]), y=np.array([1.0]))
            pred = fit_single_task(k, data, MarginParams(gamma=gamma))
            err = empirical_margin_error(pred, data, gamma)
            assert err == (0.0 if 1.0 >= gamma**2 and gamma <= 1.0 else 1.0)

    def test_norm_feasible_on_random_problems(self, monkeypatch):
        # rbf, linear and poly kernels, each declared with its true bound on
        # [-1, 1]^3, fitted on one task in one call: 29 problems in stacks of
        # 4 end in a lone problem, which the scalar solver fits
        rng = np.random.default_rng(4)
        m, kerns = 20, []
        X = rng.uniform(-1, 1, (m, 3))
        sample = MultiTaskSample((TaskData(
            X=X, y=np.where(rng.random(m) < 0.5, 1.0, -1.0)),))
        for trial in range(29):
            scale = float(rng.uniform(0.1, 2.0))
            kind = trial % 3
            if kind == 0:
                k = rbf_kernel(float(rng.uniform(0.3, 2.0)))
            elif kind == 1:
                k = linear_kernel(scale=scale, bound_b=3.0 * scale)
            else:
                degree, coef0 = int(rng.integers(1, 4)), float(rng.uniform(0, 1))
                k = poly_kernel(degree=degree, scale=scale, coef0=coef0,
                                bound_b=(3.0 * scale + coef0) ** degree)
            kerns.append(k)
        monkeypatch.setattr(margin, "STACK_BYTES", 4 * 8 * m * m)
        sizes = []
        batch = _accel.hinge_pgd_batch

        def spy(K, *args):
            sizes.append(len(K))
            return batch(K, *args)

        monkeypatch.setattr(_accel, "hinge_pgd_batch", spy)
        fits = margin.fit_stack(kerns, sample, MarginParams(gamma=0.2))
        assert sizes == [4] * 7 + [1] and len(fits) == 29
        for (pred,) in fits:
            assert pred.norm_sq() <= 1.0 + 1e-8

    def test_objective_descent_prefix(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (16, 2))
        y = np.where(rng.random(16) < 0.5, 1.0, -1.0)
        K = rbf_kernel(0.6).gram(X)
        alpha0 = y / 16.0
        objs = []
        for iters in range(1, 25):
            _, obj, _, _ = _accel.hinge_pgd(K, y, 0.2, alpha0, iters, 0.0)
            objs.append(obj)
        assert all(a >= b - 1e-15 for a, b in zip(objs, objs[1:]))

    def test_indefinite_gram_raises(self):
        bad = custom_kernel(lambda a, b: 1.0 if a[0] != b[0] else 0.0, bound_b=1.0)
        data = TaskData(X=np.array([[0.0], [1.0]]), y=np.array([1.0, -1.0]))
        with pytest.raises(NumericError):
            fit_single_task(bad, data, MarginParams(gamma=0.2))

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(margin, "PGD_MAX_ITERS", 1)
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, (24, 2))
        y = np.where(rng.random(24) < 0.5, 1.0, -1.0)
        pred = fit_single_task(rbf_kernel(0.6), TaskData(X=X, y=y),
                               MarginParams(gamma=0.2))
        assert not pred.converged


class TestFitStack:
    def test_one_stack_of_grams_in_memory(self, monkeypatch):
        # m = 256 is one problem per stack; each task's Gram (512 KiB) is
        # built only after the last stack's is dropped, so the peak is that
        # Gram and the PSD check's copy of it, not a third
        monkeypatch.setattr(margin, "PGD_MAX_ITERS", 3)  # the solve is not tested
        rng = np.random.default_rng(13)
        sample = MultiTaskSample(tuple(
            TaskData(X=rng.uniform(-1, 1, (256, 2)), y=np.resize([1.0, -1.0], 256))
            for _ in range(3)))
        tracemalloc.start()
        try:
            margin.fit_stack([rbf_kernel(0.8)], sample, MarginParams(gamma=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * 256 ** 2

    def test_split_stacks_match_scalar_solver(self, monkeypatch):
        # 3 kernels on 3 tasks: 9 problems in stacks of 4, 4 and 1, two of
        # which span tasks; each fit must equal hinge_pgd on its own problem,
        # bit for bit
        rng = np.random.default_rng(12)
        m, params = 14, MarginParams(gamma=0.15)
        tasks = []
        for _ in range(3):
            X = rng.uniform(-1, 1, (m, 2))
            y = np.where(X[:, 0] + 0.4 * rng.standard_normal(m) >= 0, 1.0, -1.0)
            tasks.append(TaskData(X=X, y=y))
        kerns = [rbf_kernel(float(rng.uniform(0.3, 2.0))) for _ in range(3)]
        monkeypatch.setattr(margin, "STACK_BYTES", 4 * 8 * m * m + 7)
        sizes = []
        batch = _accel.hinge_pgd_batch

        def spy(K, *args):
            sizes.append(len(K))
            return batch(K, *args)

        monkeypatch.setattr(_accel, "hinge_pgd_batch", spy)
        fits = margin.fit_stack(kerns, MultiTaskSample(tuple(tasks)), params)
        assert sizes == [4, 4, 1]
        assert [len(f) for f in fits] == [3, 3, 3]
        for kernel, preds in zip(kerns, fits):
            for task, pred in zip(tasks, preds):
                alpha, _, _, converged = _accel.hinge_pgd(
                    kernel.gram(task.X), task.y, params.gamma,
                    task.y / (m * np.sqrt(kernel.bound_b)),
                    margin.PGD_MAX_ITERS, margin.PGD_TOL)
                assert pred.alphas.tobytes() == alpha.tobytes()
                assert pred.converged == converged
                assert pred.kernel is kernel and pred.support_sample is task.X

    @pytest.mark.parametrize("stack_bytes", [None, 8 * 2 * 2],
                             ids=["one_stack", "one_problem_per_stack"])
    @pytest.mark.parametrize("entry", [math.nan, math.inf, 2.0],
                             ids=["nan", "inf", "indefinite"])
    def test_failing_gram_named_by_index_m_and_defect(self, monkeypatch,
                                                      stack_bytes, entry):
        task = TaskData(X=np.array([[0.0], [1.0]]), y=np.array([1.0, -1.0]))
        bad = custom_kernel(lambda a, b: entry if a[0] != b[0] else 1.0,
                            bound_b=1.0)
        if stack_bytes is not None:
            monkeypatch.setattr(margin, "STACK_BYTES", stack_bytes)
        if math.isfinite(entry):
            defect = orc.psd_defect_reference([[1.0, entry], [entry, 1.0]])
            fault = f"is indefinite beyond tolerance: PSD defect {defect!r}"
        else:
            fault = "has a non-finite entry"
        solved = []
        batch = _accel.hinge_pgd_batch

        def spy(K, *args):
            solved.extend(K)
            return batch(K, *args)

        monkeypatch.setattr(_accel, "hinge_pgd_batch", spy)
        with pytest.raises(NumericError, match=re.escape(
                f"training Gram of kernel 2 on task 0 (m=2) {fault}")):
            margin.fit_stack([rbf_kernel(0.5), rbf_kernel(1.0), bad],
                             MultiTaskSample((task,)), MarginParams(gamma=0.2))
        assert all(np.isfinite(K).all() for K in solved)

    @pytest.mark.parametrize("stack_bytes", [None, 8 * 2 * 2],
                             ids=["one_stack", "one_problem_per_stack"])
    def test_fault_names_kernel_and_task_on_a_multi_task_sample(
            self, monkeypatch, stack_bytes):
        # the kernel at index 1 is non-finite only on task 2's points; five
        # problems (tasks 0 and 1, then kernel 0 on task 2) come before it
        def value(a, b):
            return math.nan if max(a[0], b[0]) > 1.5 else math.exp(-(a[0] - b[0]) ** 2)

        sample = MultiTaskSample(tuple(
            TaskData(X=np.array([[0.0], [x]]), y=np.array([1.0, -1.0]))
            for x in (0.5, 1.0, 2.0)))
        if stack_bytes is not None:
            monkeypatch.setattr(margin, "STACK_BYTES", stack_bytes)
        solved = []
        batch = _accel.hinge_pgd_batch

        def spy(K, *args):
            solved.extend(K)
            return batch(K, *args)

        monkeypatch.setattr(_accel, "hinge_pgd_batch", spy)
        with pytest.raises(NumericError, match=re.escape(
                "training Gram of kernel 1 on task 2 (m=2) has a non-finite entry")):
            margin.fit_stack([rbf_kernel(0.5), custom_kernel(value, bound_b=1.0)],
                             sample, MarginParams(gamma=0.2))
        assert len(solved) == (0 if stack_bytes is None else 5)

    @pytest.mark.parametrize("sizes,stack_bytes,needle", [
        ((), None, r"got \[\]"),
        ((3, 4), None, r"got \[3, 4\]"),
        ((4, 3, 4), 8 * 4 * 4, r"got \[3, 4\]"),  # one problem per stack
    ], ids=["empty", "mixed_in_one_stack", "mixed_across_stacks"])
    def test_input_checked_before_any_gram(self, monkeypatch, sizes,
                                           stack_bytes, needle):
        rng = np.random.default_rng(3)
        tasks = tuple(TaskData(X=rng.uniform(-1, 1, (m, 2)),
                               y=np.resize([1.0, -1.0], m)) for m in sizes)
        if stack_bytes is not None:
            monkeypatch.setattr(margin, "STACK_BYTES", stack_bytes)

        def no_gram(*args):
            raise AssertionError("a Gram was built")

        monkeypatch.setattr(Kernel, "gram", no_gram)
        with pytest.raises(InputError, match=needle):
            margin.fit_stack([rbf_kernel(0.5)], MultiTaskSample(tasks),
                             MarginParams(gamma=0.2))

    def test_one_problem_stack_solves_the_gram_it_built(self, monkeypatch):
        # a lone Gram goes to hinge_pgd as built, not copied into a stack
        built, solved = [], []
        gram, pgd = Kernel.gram, _accel.hinge_pgd

        def spy_gram(kernel, X):
            built.append(gram(kernel, X))
            return built[-1]

        def spy_pgd(K, *args):
            solved.append(K)
            return pgd(K, *args)

        monkeypatch.setattr(Kernel, "gram", spy_gram)
        monkeypatch.setattr(_accel, "hinge_pgd", spy_pgd)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (16, 2))
        fit_single_task(rbf_kernel(0.7), TaskData(X=X, y=np.sign(X[:, 0])),
                        MarginParams(gamma=0.1))
        assert len(built) == 1 and len(solved) == 1 and solved[0] is built[0]

    @pytest.mark.parametrize("stack_bytes", [None, 8 * 2 * 2],
                             ids=["one_stack", "one_problem_per_stack"])
    @pytest.mark.parametrize("bad,fault", [
        (math.nan, "has a non-finite coefficient"),
        (math.inf, "has a non-finite coefficient"),
        (2.0, "has RKHS norm² "),
    ], ids=["nan", "inf", "outside_ball"])
    def test_fit_outside_the_unit_ball_raises(self, monkeypatch, stack_bytes,
                                              bad, fault):
        # the solver's alphas for problem 1 are replaced: a NaN or an infinite
        # coefficient, or a scaling by 2 that puts norm² near 4
        task = TaskData(X=np.array([[0.0], [1.0]]), y=np.array([1.0, -1.0]))
        if stack_bytes is not None:
            monkeypatch.setattr(margin, "STACK_BYTES", stack_bytes)
        batch, seen = _accel.hinge_pgd_batch, [0]

        def planted(K, *args):
            alphas, *rest = batch(K, *args)
            for row in range(len(K)):
                if seen[0] == 1:
                    alphas[row] = (alphas[row] * bad if bad == 2.0
                                   else np.where([True, False], bad, alphas[row]))
                seen[0] += 1
            return (alphas, *rest)

        monkeypatch.setattr(_accel, "hinge_pgd_batch", planted)
        with pytest.raises(NumericError, match=re.escape(
                f"fit of kernel 1 on task 0 (m=2) {fault}")):
            margin.fit_stack([rbf_kernel(0.5), rbf_kernel(1.0), rbf_kernel(2.0)],
                             MultiTaskSample((task,)), MarginParams(gamma=0.9))

    @given(seed=st.integers(0, 2**32 - 1), n_kernels=st.integers(1, 4),
           n_tasks=st.integers(1, 3), m=st.integers(1, 16),
           per_stack=st.integers(1, 5), gamma=st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_every_fit_stays_in_its_unit_ball(self, seed, n_kernels, n_tasks,
                                              m, per_stack, gamma):
        # rbf, linear and poly kernels, each declared with its true bound on
        # [-1, 1]^3, on 1 to 12 problems in stacks of per_stack problems:
        # every norm² <= 1 + tol
        rng = np.random.default_rng(seed)
        kerns = []
        for _ in range(n_kernels):
            scale = float(rng.uniform(0.05, 3.0))
            kind = int(rng.integers(3))
            if kind == 0:
                k = rbf_kernel(float(rng.uniform(0.1, 3.0)))
            elif kind == 1:
                k = linear_kernel(scale=scale, bound_b=3.0 * scale)
            else:
                degree, coef0 = int(rng.integers(1, 5)), float(rng.uniform(0, 2))
                k = poly_kernel(degree=degree, scale=scale, coef0=coef0,
                                bound_b=(3.0 * scale + coef0) ** degree)
            kerns.append(k)
        sample = MultiTaskSample(tuple(
            TaskData(X=rng.uniform(-1, 1, (m, 3)),
                     y=np.where(rng.random(m) < 0.5, 1.0, -1.0))
            for _ in range(n_tasks)))
        stack_bytes = margin.STACK_BYTES
        try:
            margin.STACK_BYTES = per_stack * 8 * m * m
            fits = margin.fit_stack(kerns, sample, MarginParams(gamma=gamma))
        finally:
            margin.STACK_BYTES = stack_bytes
        assert [len(preds) for preds in fits] == [n_tasks] * n_kernels
        for pred in (p for preds in fits for p in preds):
            assert np.isfinite(pred.alphas).all()
            assert pred.norm_sq() <= 1.0 + margin.NORM_TOL


class TestGramFault:
    """The one check of a Gram before it is fitted: non-finite entries, then
    the diagonal against the declared bound, then the PSD defect."""

    @pytest.mark.parametrize("G,fault", [
        ([[1.0, 0.0], [0.0, 1.0]], None),
        ([[1.0, math.nan], [math.nan, 5.0]], "has a non-finite entry"),
        ([[1.0, 9.0], [9.0, 2.0]], "has diagonal entry 1 = 2.0 above B=1.5"),
        ([[1.0, 1.0 + 2**-20], [1.0 + 2**-20, 1.0]],
         "is indefinite beyond tolerance: PSD defect"),
    ], ids=["valid", "non_finite_first", "diagonal_before_psd", "psd"])
    def test_first_fault_in_order(self, G, fault):
        found = margin._gram_fault(np.array(G), 1.5)
        if fault is None:
            assert found is None
        else:
            assert found.startswith(fault)

    @pytest.mark.parametrize("share,ok", [(0.5e-9, True), (2e-9, False)])
    def test_diagonal_tolerance_is_relative(self, share, ok):
        G = np.array([[1.0, 0.0], [0.0, 4.0 * (1.0 + share)]])
        assert (margin._gram_fault(G, 4.0) is None) == ok

    def test_bound_violation_raises(self):
        k = gaussian_metric_kernel(np.eye(2))
        object.__setattr__(k, "bound_b", 0.5)
        with pytest.raises(NumericError, match=re.escape(
                "Gram matrix has diagonal entry 0 = 1.0 above B=0.5")):
            check_kernel_invariants(k, [[0.0, 0.0]])

    def test_non_finite_gram_fails_invariants(self):
        k = custom_kernel(lambda a, b: math.nan if a[0] != b[0] else 1.0,
                          bound_b=1.0)
        with pytest.raises(NumericError, match="non-finite"):
            check_kernel_invariants(k, [[0.0], [1.0]])

    def test_asymmetric_gram_fails_invariants(self):
        # a Gram whose lower triangle is the identity passes _gram_fault,
        # which reads the lower triangle, but is not exactly symmetric
        k = SimpleNamespace(gram=lambda X: np.array([[1.0, 0.5], [0.0, 1.0]]),
                            bound_b=1.0)
        assert margin._gram_fault(k.gram(None), 1.0) is None
        with pytest.raises(NumericError, match="not exactly symmetric"):
            check_kernel_invariants(k, [[0.0], [1.0]])

    @pytest.mark.parametrize("stack_bytes", [None, 8 * 4 * 4],
                             ids=["one_stack", "one_problem_per_stack"])
    def test_fit_refuses_diagonal_above_bound_before_its_stack_is_solved(
            self, monkeypatch, stack_bytes):
        # a linear kernel declared with bound 1 on points of squared norm up
        # to 2: the feasible start and the unit ball assume K(x, x) <= B
        X = np.array([[1.0, 1.0], [0.5, 0.0], [0.0, -0.5], [-1.0, 0.25]])
        task = TaskData(X=X, y=np.array([1.0, 1.0, -1.0, -1.0]))
        if stack_bytes is not None:
            monkeypatch.setattr(margin, "STACK_BYTES", stack_bytes)
        solved = []
        batch = _accel.hinge_pgd_batch

        def spy(K, *args):
            solved.extend(K)
            return batch(K, *args)

        monkeypatch.setattr(_accel, "hinge_pgd_batch", spy)
        with pytest.raises(NumericError, match=re.escape(
                "training Gram of kernel 1 on task 0 (m=4) has diagonal entry "
                "0 = 2.0 above B=1.0")):
            margin.fit_stack([linear_kernel(bound_b=2.0), linear_kernel(bound_b=1.0)],
                             MultiTaskSample((task,)), MarginParams(gamma=0.2))
        # only kernel 0, in a stack of its own, reaches the solver
        assert len(solved) == (0 if stack_bytes is None else 1)


class FixedScoreDistribution:
    """Labels equal sign(x_0) with an optional flip; inputs uniform."""

    def __init__(self, flip=0.0, gap=0.0):
        self.flip = flip
        self.gap = gap

    def sample(self, m, rng):
        X = rng.uniform(-1, 1, (m, 1))
        if self.gap:
            X = X[np.abs(X[:, 0]) >= self.gap]
            while len(X) < m:
                extra = rng.uniform(-1, 1, (m, 1))
                X = np.concatenate([X, extra[np.abs(extra[:, 0]) >= self.gap]])
            X = X[:m]
        y = np.where(X[:, 0] >= 0, 1.0, -1.0)
        if self.flip:
            y = np.where(rng.random(m) < self.flip, -y, y)
        return X, y


class TestTrueMarginError:
    def _identity_predictor(self):
        ident = custom_kernel(lambda a, b: float(a[0] * b[0]), bound_b=1.0)
        return Predictor(alphas=np.array([1.0]),
                         support_sample=np.array([[1.0]]), kernel=ident)

    def test_perfect_margin_construction(self):
        pred = self._identity_predictor()  # h(x) = x_0
        dist = FixedScoreDistribution(gap=0.4)
        assert avg_true_error([pred], [dist], 0.4, 20_000, seed=0) == 0.0

    def test_adversarial_flip(self):
        pred = self._identity_predictor()
        dist = FixedScoreDistribution(flip=1e-9, gap=0.4)
        # flip every label instead by negating the predictor
        neg = Predictor(alphas=np.array([-1.0]),
                        support_sample=np.array([[1.0]]), kernel=pred.kernel)
        assert avg_true_error([neg], [dist], 0.0, 20_000, seed=1) == \
            pytest.approx(1.0, abs=1e-3)

    def test_random_labels_near_half(self):
        pred = self._identity_predictor()
        dist = FixedScoreDistribution(flip=0.499999)
        est = avg_true_error([pred], [dist], 0.0, 40_000, seed=2)
        se = 0.5 / np.sqrt(40_000)
        assert abs(est - 0.5) <= 3 * se + 1e-6

    def test_deterministic_per_seed(self):
        pred = self._identity_predictor()
        dist = FixedScoreDistribution(flip=0.2)
        a = avg_true_error([pred], [dist], 0.1, 5_000, seed=42)
        b = avg_true_error([pred], [dist], 0.1, 5_000, seed=42)
        assert a == b

    def test_er_below_double_margin_on_shared_samples(self):
        pred = self._identity_predictor()
        dist = FixedScoreDistribution(flip=0.3)
        rng = np.random.default_rng(9)
        for trial in range(20):
            seed = int(rng.integers(0, 2**31))
            gamma = float(rng.uniform(0.01, 0.5))
            er0 = avg_true_error([pred], [dist], 0.0, 2_000, seed=seed)
            er2 = avg_true_error([pred], [dist], 2 * gamma, 2_000, seed=seed)
            assert er0 <= er2

    def test_score_at_margin_is_not_an_error(self):
        # h = 0.25 everywhere: at margin 0.25 a +1 label ties (no error) and
        # a -1 label scores -0.25 (an error), so the risk is the share of -1
        # labels among the draws
        const = custom_kernel(lambda a, b: 1.0, bound_b=1.0)
        pred = Predictor(alphas=np.array([0.25]),
                         support_sample=np.array([[0.0]]), kernel=const)
        dist = FixedScoreDistribution(flip=0.3)
        seed, draws = 5, 2_000
        stream = np.random.SeedSequence(seed).spawn(1)[0]
        _, y = dist.sample(draws, np.random.default_rng(stream))
        negative_share = float(np.mean(y < 0))
        assert 0.0 < negative_share < 1.0
        risk = avg_true_error([pred], [dist], 0.25, draws, seed=seed)
        assert risk == negative_share
        assert risk < 1.0

    def test_mc_samples_validated(self):
        with pytest.raises(InputError):
            avg_true_error([self._identity_predictor()],
                           [FixedScoreDistribution()], 0.1, 0, seed=0)


def test_evaluation_memory_stays_within_blocks():
    # one (32, 100k) RBF cross-Gram takes 25.6 MB per buffer; blocks of
    # EVAL_BLOCK points keep the peak to a few MB
    rng = np.random.default_rng(3)
    predictor = Predictor(alphas=rng.standard_normal(32),
                          support_sample=rng.uniform(-1, 1, (32, 4)),
                          kernel=rbf_kernel(0.6))
    X = rng.uniform(-1, 1, (100_000, 4))
    tracemalloc.start()
    try:
        predictor.evaluate(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_evaluation_makes_one_cross_call_per_block(monkeypatch):
    # the traced kernels.cross layer counts Monte Carlo scoring blocks: a lone
    # predictor's blocks each go through Kernel.cross once, never a shared path
    rng = np.random.default_rng(5)
    kernel = Kernel(terms=((0.25, rbf_kernel(0.6).terms[0][1]),
                           (0.75, rbf_kernel(1.2).terms[0][1])), bound_b=1.0)
    predictor = Predictor(alphas=rng.standard_normal(32),
                          support_sample=rng.uniform(-1, 1, (32, 4)),
                          kernel=kernel)
    X = rng.uniform(-1, 1, (100_000, 4))
    calls = []
    cross = Kernel.cross

    def spy(self, S, Z):
        calls.append(len(Z))
        return cross(self, S, Z)

    monkeypatch.setattr(Kernel, "cross", spy)
    scores = predictor.evaluate(X)
    block = kernels.EVAL_BLOCK
    assert calls == [min(block, len(X) - start)
                     for start in range(0, len(X), block)]
    assert scores.shape == (len(X),)
