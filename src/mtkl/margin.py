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
from .errors import InputError, NumericError, require_number
from .kernels import Kernel, as_points, psd_defect

# The solver stops at the first accepted step that gains less than PGD_TOL,
# or after PGD_MAX_ITERS steps.
PGD_TOL = 1e-6
PGD_MAX_ITERS = 2000


@dataclass(frozen=True, eq=False)
class TaskData:
    """One task's labeled sample; labels must be -1/+1."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = as_points(self.X)
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise InputError(f"point {int(np.argmin(finite))} has a non-finite feature")
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
    """The margin gamma; the surrogate is fixed to hinge-at-gamma."""

    gamma: float

    def __post_init__(self):
        require_number(self.gamma, "gamma", positive=True)


@dataclass(frozen=True, eq=False)
class Predictor:
    """Unit-norm RKHS predictor in dual form: h(x) = sum_j alpha_j K(x_j, x)."""

    alphas: np.ndarray
    support_sample: np.ndarray
    kernel: Kernel
    converged: bool = True

    def evaluate(self, X) -> np.ndarray:
        """h(x) at each row of X, scored in blocks by ``Kernel.expand``."""
        return self.kernel.expand(self.alphas, self.support_sample, X)

    def norm_sq(self) -> float:
        G = self.kernel.gram(self.support_sample)
        return float(self.alphas @ G @ self.alphas)


def empirical_margin_error(predictor: Predictor, data: TaskData, gamma: float) -> float:
    """Fraction of the sample with y h(x) < gamma (gamma=0 gives 0-1 error)."""
    if data.m == 0:
        raise InputError("empty sample")
    scores = data.y * predictor.evaluate(data.X)
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
    A run that exhausts ``PGD_MAX_ITERS`` while still improving returns the
    best iterate with ``converged=False``.
    """
    G, alpha0 = _training_problem(kernel, data)
    alpha, _obj, _iters, converged = _accel.hinge_pgd(
        G, data.y, params.gamma, alpha0, PGD_MAX_ITERS, PGD_TOL)
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
        params.gamma, np.stack(starts), PGD_MAX_ITERS, PGD_TOL)
    return [Predictor(alphas=alpha, support_sample=task.X, kernel=kernel,
                      converged=bool(ok))
            for (kernel, task), alpha, ok in zip(problems, alphas, converged)]

