"""Single-task large-margin learning inside a kernel's unit ball.

The learner minimizes the hinge loss at margin gamma,

    (1/m) sum_j max(0, 1 - y_j h(x_j) / gamma),

over predictors ``h(x) = sum_j alpha_j K(x_j, x)`` constrained to the RKHS
unit ball ``alpha^T K alpha <= 1``, by projected subgradient descent with
monotone backtracking. The projection divides by the K-norm (the constraint
lives in the RKHS, not in coefficient space). Hinge is a surrogate: reported
errors are always the 0-1 margin error of the achieved iterate, which is all
the downstream deviation checks require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _accel
from .errors import InputError, NumericError
from .kernels import Kernel, as_points, psd_defect

NORM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class TaskData:
    """One task's labeled sample; labels must be -1/+1."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = as_points(self.X)
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if len(y) != X.shape[0]:
            raise InputError(f"{X.shape[0]} points but {len(y)} labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            bad = y[~np.isin(y, (-1.0, 1.0))][0]
            raise InputError(f"labels must be -1 or +1, got {bad!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class MarginParams:
    """Margin and optimizer controls; the surrogate is fixed to hinge-at-gamma."""

    gamma: float
    max_iters: int = 2000
    step_size: float = 1.0
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.gamma <= 0:
            raise InputError("gamma must be positive")
        if self.tolerance <= 0:
            raise InputError("tolerance must be positive")
        if self.max_iters < 1 or self.step_size <= 0:
            raise InputError("max_iters must be >= 1 and step_size positive")


@dataclass(frozen=True, eq=False)
class Predictor:
    """Unit-norm RKHS predictor in dual form: h(x) = sum_j alpha_j K(x_j, x)."""

    alphas: np.ndarray
    support_sample: np.ndarray
    kernel: Kernel
    converged: bool = True

    def evaluate(self, X) -> np.ndarray:
        return self.alphas @ self.kernel.cross(self.support_sample, as_points(X))

    def norm_sq(self) -> float:
        G = self.kernel.gram(self.support_sample)
        return float(self.alphas @ G @ self.alphas)


def empirical_margin_error(predictor: Predictor, data: TaskData, gamma: float) -> float:
    """Fraction of the sample with y h(x) < gamma (gamma=0 gives 0-1 error)."""
    if data.m == 0:
        raise InputError("empty sample")
    scores = data.y * predictor.evaluate(data.X)
    return float(np.mean(scores < gamma))


def margin_error_from_scores(scores: np.ndarray, gamma: float) -> float:
    return float(np.mean(scores < gamma))


def _training_problem(kernel: Kernel, data: TaskData):
    """The PSD-checked training Gram and a feasible start for the solver."""
    G = kernel.gram(data.X)
    if psd_defect(G) > 0:
        raise NumericError("training Gram matrix indefinite beyond tolerance")
    # feasible start: alpha^T K alpha <= B (sum_j |alpha_j|)^2 = 1
    return G, data.y / (data.m * np.sqrt(kernel.bound_b))


def fit_single_task(kernel: Kernel, data: TaskData, params: MarginParams) -> Predictor:
    """Minimize hinge-at-gamma over the kernel's unit ball.

    Raises NumericError when the Gram matrix is indefinite beyond tolerance.
    A run that exhausts max_iters while still improving returns the best
    iterate with ``converged=False``.
    """
    G, alpha0 = _training_problem(kernel, data)
    alpha, _obj, _iters, converged = _accel.hinge_pgd(
        G, data.y, params.gamma, alpha0, params.max_iters,
        params.tolerance, params.step_size)
    return Predictor(alphas=alpha, support_sample=data.X, kernel=kernel,
                     converged=bool(converged))


def fit_stack(problems: Sequence[tuple[Kernel, TaskData]],
              params: MarginParams) -> list[Predictor]:
    """``fit_single_task`` on every (kernel, task) pair, solved as one stack.

    The tasks must share one sample size. Each predictor is bit-identical to
    the one ``fit_single_task`` returns for its pair.
    """
    grams, starts = zip(*(_training_problem(kernel, task)
                          for kernel, task in problems))
    alphas, _obj, _iters, converged = _accel.hinge_pgd_batch(
        np.stack(grams), np.stack([task.y for _, task in problems]),
        params.gamma, np.stack(starts), params.max_iters, params.tolerance,
        params.step_size)
    return [Predictor(alphas=alpha, support_sample=task.X, kernel=kernel,
                      converged=bool(ok))
            for (kernel, task), alpha, ok in zip(problems, alphas, converged)]


def true_margin_error(predictor: Predictor, distribution, gamma: float,
                      mc_samples: int, seed) -> float:
    """Monte Carlo estimate of P(y h(x) < gamma); deterministic per seed.

    ``distribution`` is anything with ``sample(m, rng) -> (X, y)``. The
    standard error is at most 1/(2 sqrt(mc_samples)).
    """
    if mc_samples < 1:
        raise InputError("mc_samples must be >= 1")
    rng = np.random.default_rng(seed)
    X, y = distribution.sample(mc_samples, rng)
    scores = y * predictor.evaluate(X)
    return margin_error_from_scores(scores, gamma)
