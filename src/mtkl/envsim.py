"""Synthetic task environments and the Monte Carlo verification harness.

Tasks are built around planted unit-norm RKHS functions: a distribution
draws inputs from a bounded law (uniform cube by default, optionally a
Gaussian mixture), rejects points inside a margin gap around the planted
decision boundary, labels by the planted function's sign, and flips labels
independently at a fixed noise rate. The gap makes the planted predictor's
double-margin error controllably small; the flip rate plants irreducible
error.

An environment is a mixture of task clusters over a shared kernel
dictionary. Everything is seeded through ``numpy.random.SeedSequence``
spawning, so a trial is bitwise reproducible from its seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import BoundInputs, multitask_epsilon
from .errors import InputError, NumericError, require_keys
from .kernels import Kernel, KernelFamily, kernel_from_dict, pd_upper_bound
from .margin import MarginParams, Predictor, TaskData, fit_single_task
from .seeding import as_seed_sequence
# enumerate_candidates and fit_candidate are not called here: run_trial
# searches through erm_search. perfbench/tracer.py wraps these bindings.
from .erm import (LINEAR_COMBO_SCALES, MultiTaskSample, MultiTaskSolution,
                  SearchBudget, enumerate_candidates, erm_fit, erm_search,
                  fit_candidate)

MAX_REJECTION_ROUNDS = 1000


@dataclass(frozen=True, eq=False)
class InputLaw:
    """Sampleable law over the input space with bounded-support default."""

    kind: str = "uniform_cube"
    dim: int = 2
    low: float = -1.0
    high: float = 1.0
    means: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("uniform_cube", "gaussian_mixture"):
            raise InputError(f"unknown input law {self.kind!r}")
        if self.dim < 1:
            raise InputError("input dimension must be >= 1")
        if self.kind == "uniform_cube" and not self.low < self.high:
            raise InputError("uniform_cube requires low < high")
        if self.kind == "gaussian_mixture":
            if self.means is None:
                raise InputError("gaussian_mixture requires component means")
            means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
            k = means.shape[0]
            scales = np.ones(k) if self.scales is None else \
                np.asarray(self.scales, dtype=np.float64).ravel()
            weights = np.full(k, 1.0 / k) if self.weights is None else \
                np.asarray(self.weights, dtype=np.float64).ravel()
            if means.shape[1] != self.dim or len(scales) != k or len(weights) != k:
                raise InputError("inconsistent gaussian_mixture shapes")
            if np.any(scales <= 0) or np.any(weights < 0) or weights.sum() <= 0:
                raise InputError("mixture scales must be positive, weights nonnegative")
            object.__setattr__(self, "means", means)
            object.__setattr__(self, "scales", scales)
            object.__setattr__(self, "weights", weights / weights.sum())

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform_cube":
            return rng.uniform(self.low, self.high, size=(m, self.dim))
        comp = rng.choice(len(self.weights), size=m, p=self.weights)
        return self.means[comp] + self.scales[comp, None] * \
            rng.standard_normal((m, self.dim))


@dataclass(frozen=True, eq=False)
class Distribution:
    """A labeled-data distribution with a planted unit-norm decision rule."""

    input_law: InputLaw
    kernel: Kernel
    anchors: np.ndarray
    coeffs: np.ndarray  # unit K-norm over the anchors
    margin_gap: float = 0.0
    flip_rate: float = 0.0
    component: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_rate < 0.5:
            raise InputError("flip_rate must be in [0, 0.5)")
        if self.margin_gap < 0:
            raise InputError("margin_gap must be nonnegative")
        G = self.kernel.gram(self.anchors)
        norm_sq = float(self.coeffs @ G @ self.coeffs)
        if norm_sq > 1.0 + 1e-8:
            raise InputError(f"planted rule K-norm^2 = {norm_sq} exceeds 1")

    def planted_predictor(self) -> Predictor:
        return Predictor(alphas=self.coeffs, support_sample=self.anchors,
                         kernel=self.kernel)

    def decision_values(self, X) -> np.ndarray:
        return self.coeffs @ self.kernel.cross(self.anchors, X)

    def sample(self, m: int, rng: np.random.Generator):
        """Draw m labeled points; rejection keeps |h*(x)| >= margin_gap."""
        xs = []
        kept = 0
        for _ in range(MAX_REJECTION_ROUNDS):
            batch = self.input_law.sample(max(2 * m, 64), rng)
            vals = self.decision_values(batch)
            good = np.abs(vals) >= self.margin_gap
            if good.any():
                xs.append(batch[good])
                kept += int(good.sum())
            if kept >= m:
                break
        else:
            raise NumericError(
                f"margin gap {self.margin_gap} rejects nearly all inputs")
        X = np.concatenate(xs)[:m]
        vals = self.decision_values(X)
        y = np.where(vals >= 0.0, 1.0, -1.0)
        if self.flip_rate > 0.0:
            flips = rng.random(m) < self.flip_rate
            y = np.where(flips, -y, y)
        return X, y


def make_planted_distribution(input_law: InputLaw, kernel: Kernel, anchors,
                              coeffs, margin_gap: float = 0.0,
                              flip_rate: float = 0.0,
                              component: int = 0) -> Distribution:
    """Normalize ``coeffs`` to unit K-norm and build the distribution."""
    anchors = np.asarray(anchors, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    G = kernel.gram(anchors)
    norm_sq = float(coeffs @ G @ coeffs)
    if norm_sq <= 1e-14:
        raise InputError("planted coefficients have (near-)zero K-norm")
    return Distribution(input_law=input_law, kernel=kernel, anchors=anchors,
                        coeffs=coeffs / np.sqrt(norm_sq),
                        margin_gap=margin_gap, flip_rate=flip_rate,
                        component=component)


@dataclass(frozen=True)
class TaskCluster:
    """Law of one task type: planted-rule shape, noise, and label balance.

    ``balance_slack`` rejects drawn rules whose positive-label mass deviates
    from 1/2 by more than the slack (0.5 disables the check); without it,
    sign-biased planted rules yield near-constant labelings that any kernel
    fits trivially."""

    weight: float
    kernel_index: int
    n_anchors: int = 6
    margin_gap: float = 0.25
    flip_rate: float = 0.0
    balance_slack: float = 0.5

    def __post_init__(self):
        if self.weight <= 0:
            raise InputError("cluster weight must be positive")
        if self.n_anchors < 1:
            raise InputError("n_anchors must be >= 1")
        if not 0.0 < self.balance_slack <= 0.5:
            raise InputError("balance_slack must be in (0, 0.5]")


@dataclass(frozen=True, eq=False)
class TaskEnvironment:
    """A mixture of task clusters planted under a shared kernel dictionary.

    ``fixed_task`` makes the task law degenerate: every draw returns that
    one distribution (useful for reductions to the single-distribution case).
    """

    dictionary: tuple[Kernel, ...]
    input_law: InputLaw
    clusters: tuple[TaskCluster, ...] = (TaskCluster(weight=1.0, kernel_index=0),)
    fixed_task: Optional[Distribution] = None

    def __post_init__(self):
        if not self.dictionary:
            raise InputError("environment needs a kernel dictionary")
        for c in self.clusters:
            if not 0 <= c.kernel_index < len(self.dictionary):
                raise InputError(f"cluster kernel_index {c.kernel_index} out of range")

    @property
    def shared_kernel_index(self) -> int:
        indices = {c.kernel_index for c in self.clusters}
        if len(indices) != 1:
            raise InputError("clusters do not share one planted kernel")
        return next(iter(indices))

    def draw_task(self, rng: np.random.Generator) -> Distribution:
        if self.fixed_task is not None:
            return self.fixed_task
        weights = np.array([c.weight for c in self.clusters])
        idx = int(rng.choice(len(self.clusters), p=weights / weights.sum()))
        cluster = self.clusters[idx]
        kernel = self.dictionary[cluster.kernel_index]
        for _ in range(200):
            anchors = self.input_law.sample(cluster.n_anchors, rng)
            coeffs = rng.standard_normal(cluster.n_anchors)
            G = kernel.gram(anchors)
            if float(coeffs @ G @ coeffs) <= 1e-10:
                continue
            dist = make_planted_distribution(
                self.input_law, kernel, anchors, coeffs,
                margin_gap=cluster.margin_gap, flip_rate=cluster.flip_rate,
                component=idx)
            if cluster.balance_slack < 0.5:
                probe = self.input_law.sample(512, rng)
                vals = dist.decision_values(probe)
                kept = vals[np.abs(vals) >= cluster.margin_gap]
                if len(kept) < 64:
                    continue
                positive = float(np.mean(kept >= 0.0))
                if abs(positive - 0.5) > cluster.balance_slack:
                    continue
            return dist
        raise NumericError("could not draw a planted rule satisfying the cluster "
                           "constraints (norm / label balance)")


def sample_lifelong(env: TaskEnvironment, n: int, seed) -> list[Distribution]:
    """n i.i.d. task draws from the environment; deterministic per seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    streams = as_seed_sequence(seed).spawn(n)
    return [env.draw_task(np.random.default_rng(s)) for s in streams]


def sample_multitask(distributions: Sequence[Distribution], m: int,
                     seed) -> MultiTaskSample:
    """m i.i.d. draws per task with distinct per-task substreams."""
    if m < 1:
        raise InputError("m must be >= 1")
    streams = as_seed_sequence(seed).spawn(len(distributions))
    tasks = []
    for dist, stream in zip(distributions, streams):
        X, y = dist.sample(m, np.random.default_rng(stream))
        tasks.append(TaskData(X=X, y=y))
    return MultiTaskSample(tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# Trials.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    n: int
    m: int
    gamma: float
    er_hat: float
    er: float
    er_2gamma: float
    epsilon: float
    sandwich_ok: bool
    epsilon_valid: bool


@dataclass(frozen=True)
class ErmGuaranteeReport:
    n: int
    m: int
    gamma: float
    epsilon: float
    er_erm: float
    er_2gamma_best: float
    holds: bool
    epsilon_valid: bool


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    report: TrialReport
    guarantee: Optional[ErmGuaranteeReport]
    solution: MultiTaskSolution


def _mc_datasets(distributions, mc_samples, seed):
    streams = as_seed_sequence(seed).spawn(len(distributions))
    return [dist.sample(mc_samples, np.random.default_rng(s))
            for dist, s in zip(distributions, streams)]


def _mc_scores(predictors, mc_data):
    return [y * pred.evaluate(X) for pred, (X, y) in zip(predictors, mc_data)]


def _avg_error(scores, margin):
    return float(np.mean([np.mean(s < margin) for s in scores]))


def avg_true_error(solution: MultiTaskSolution, distributions: Sequence,
                   gamma: float, mc_samples: int, seed) -> float:
    """Mean over tasks of the Monte Carlo margin error at ``gamma``.

    Per-task sample streams are spawned from ``seed`` exactly as in
    ``run_trial``, so a trial's Monte Carlo seed reproduces its ``er`` and
    ``er_2gamma``, and calls with the same int seed and different margins
    share the exact same draws. Spawning advances a ``SeedSequence``, so
    repeating draws from one takes a fresh copy per call.
    """
    if len(distributions) != len(solution.predictors):
        raise InputError(
            f"{len(distributions)} distributions for {len(solution.predictors)} tasks")
    if mc_samples < 1:
        raise InputError("mc_samples must be >= 1")
    mc_data = _mc_datasets(distributions, mc_samples, seed)
    return _avg_error(_mc_scores(solution.predictors, mc_data), gamma)


def searched_family_bound(family: KernelFamily) -> float:
    """Kernel bound B over the family as searched by the ERM grid."""
    if family.variant in ("convex_combo", "sparse_combo"):
        return family.dictionary_bound
    if family.variant == "linear_combo":
        return max(LINEAR_COMBO_SCALES) * family.dictionary_bound
    return 1.0  # gaussian families


def run_trial(source: Union[TaskEnvironment, Sequence[Distribution]],
              family: KernelFamily, n: int, m: int, gamma: float, delta: float,
              seed, mc_samples: int = 100_000,
              budget: SearchBudget = SearchBudget(),
              fit_params: Optional[MarginParams] = None,
              evaluate_guarantee: bool = True) -> TrialOutcome:
    """One seeded end-to-end trial: sample tasks and data, run ERM (the same
    search as ``erm_fit``, budget included), Monte Carlo the true risks,
    evaluate the deviation bound, and check the two-sided sandwich (and
    optionally the ERM guarantee against the best grid candidate under the
    double-margin risk)."""
    root = as_seed_sequence(seed)
    ss_tasks, ss_data, ss_mc = root.spawn(3)
    if isinstance(source, TaskEnvironment):
        distributions = sample_lifelong(source, n, ss_tasks)
    else:
        distributions = list(source)
        if len(distributions) != n:
            raise InputError(f"got {len(distributions)} distributions for n={n}")
    sample = sample_multitask(distributions, m, ss_data)
    params = fit_params if fit_params is not None else MarginParams(gamma=gamma)
    if params.gamma != gamma:
        raise InputError("fit_params.gamma must match the trial margin")

    solution, _, grid_fits = erm_search(family, sample, params, budget)
    predictors = solution.predictors

    mc_data = _mc_datasets(distributions, mc_samples, ss_mc)
    chosen_scores = _mc_scores(predictors, mc_data)
    er = _avg_error(chosen_scores, 0.0)
    er_2g = _avg_error(chosen_scores, 2.0 * gamma)

    eps_res = multitask_epsilon(BoundInputs(
        n=n, m=m, d_phi=max(1.0, pd_upper_bound(family)),
        B=searched_family_bound(family), gamma=gamma, delta=delta))
    eps = eps_res.epsilon
    er_hat = solution.avg_empirical_margin_error
    report = TrialReport(
        n=n, m=m, gamma=gamma, er_hat=er_hat, er=er, er_2gamma=er_2g,
        epsilon=eps, sandwich_ok=bool(er_2g + eps >= er_hat >= er - eps),
        epsilon_valid=eps_res.valid)

    guarantee = None
    if evaluate_guarantee:
        # the grid argmin's predictors are the solution's own unless
        # refinement replaced them; its scores are then already known
        best_2g = min(
            er_2g if preds is predictors
            else _avg_error(_mc_scores(preds, mc_data), 2.0 * gamma)
            for preds, _ in grid_fits)
        guarantee = ErmGuaranteeReport(
            n=n, m=m, gamma=gamma, epsilon=eps, er_erm=er,
            er_2gamma_best=best_2g, holds=bool(er <= best_2g + 2.0 * eps),
            epsilon_valid=eps_res.valid)
    return TrialOutcome(report=report, guarantee=guarantee, solution=solution)


def run_sandwich_trial(source, family: KernelFamily, n: int, m: int,
                       gamma: float, delta: float, seed,
                       mc_samples: int = 100_000,
                       budget: SearchBudget = SearchBudget(),
                       fit_params: Optional[MarginParams] = None) -> TrialReport:
    """Fit, bound, and record the two-sided deviation check for one trial."""
    return run_trial(source, family, n, m, gamma, delta, seed,
                     mc_samples=mc_samples, budget=budget,
                     fit_params=fit_params, evaluate_guarantee=False).report


# ---------------------------------------------------------------------------
# Overhead curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadPoint:
    n: int
    trial: int
    erm_error: float
    oracle_error: float
    excess_error: float
    estimation_gap: float


def overhead_curve(env: TaskEnvironment, family: KernelFamily, m: int,
                   n_grid: Sequence[int], trials: int, seed, gamma: float,
                   mc_samples: int = 20_000,
                   budget: SearchBudget = SearchBudget(),
                   fit_params: Optional[MarginParams] = None) -> list[OverheadPoint]:
    """Excess error of the ERM learner over the true-kernel oracle learner,
    and its estimation gap, for each task count in ``n_grid``.

    The oracle learner fits the same per-task problems with the environment's
    planted kernel; its true errors are estimated on the same Monte Carlo
    draws as the ERM learner's, so the excess is a paired comparison.
    """
    if list(n_grid) != sorted(n_grid) or len(n_grid) == 0:
        raise InputError("n_grid must be a nondecreasing nonempty sequence")
    params = fit_params if fit_params is not None else MarginParams(gamma=gamma)
    oracle_kernel = env.dictionary[env.shared_kernel_index]
    root = as_seed_sequence(seed)
    points = []
    for n in n_grid:
        for trial in range(trials):
            ss_tasks, ss_data, ss_mc = root.spawn(3)
            distributions = sample_lifelong(env, n, ss_tasks)
            sample = sample_multitask(distributions, m, ss_data)
            solution = erm_fit(family, sample, params, budget)
            oracle_preds = tuple(fit_single_task(oracle_kernel, t, params)
                                 for t in sample.tasks)
            mc_data = _mc_datasets(distributions, mc_samples, ss_mc)
            erm_er = _avg_error(_mc_scores(solution.predictors, mc_data), 0.0)
            oracle_er = _avg_error(_mc_scores(oracle_preds, mc_data), 0.0)
            points.append(OverheadPoint(
                n=n, trial=trial, erm_error=erm_er, oracle_error=oracle_er,
                excess_error=erm_er - oracle_er,
                estimation_gap=abs(erm_er - solution.avg_empirical_margin_error)))
    return points


# ---------------------------------------------------------------------------
# Environment definition files (JSON; schema in FORMATS.md).
# ---------------------------------------------------------------------------


def environment_from_dict(spec: dict) -> TaskEnvironment:
    require_keys(spec, {"dictionary", "input_law", "clusters"}, "environment spec")
    for key in ("dictionary", "input_law", "clusters"):
        if key not in spec:
            raise InputError(f"environment spec requires {key!r}")
    law_spec = spec["input_law"]
    require_keys(law_spec, {"kind", "dim", "low", "high", "means", "scales",
                            "weights"}, "input_law spec")
    law = InputLaw(
        kind=law_spec.get("kind", "uniform_cube"), dim=law_spec["dim"],
        low=law_spec.get("low", -1.0), high=law_spec.get("high", 1.0),
        means=law_spec.get("means"), scales=law_spec.get("scales"),
        weights=law_spec.get("weights"))
    clusters = []
    for c in spec["clusters"]:
        require_keys(c, {"weight", "kernel_index", "n_anchors", "margin_gap",
                         "flip_rate", "balance_slack"}, "cluster spec")
        clusters.append(TaskCluster(
            weight=c.get("weight", 1.0), kernel_index=c["kernel_index"],
            n_anchors=c.get("n_anchors", 6), margin_gap=c.get("margin_gap", 0.25),
            flip_rate=c.get("flip_rate", 0.0),
            balance_slack=c.get("balance_slack", 0.5)))
    dictionary = tuple(kernel_from_dict(k) for k in spec["dictionary"])
    return TaskEnvironment(dictionary=dictionary, input_law=law,
                           clusters=tuple(clusters))


def load_environment(path) -> TaskEnvironment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read environment file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"environment file {path}: {exc}") from exc
    return environment_from_dict(spec)
