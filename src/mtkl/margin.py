"""Single-task large-margin learning inside a kernel's unit ball.

The learner minimizes the hinge loss at margin gamma,

    (1/m) sum_j max(0, 1 - y_j h(x_j) / gamma),

over predictors ``h(x) = sum_j alpha_j K(x_j, x)`` constrained to the RKHS
unit ball ``alpha^T K alpha <= 1``, by projected subgradient descent with
monotone backtracking. The projection divides by the K-norm (the constraint
lives in the RKHS, not in coefficient space). Hinge is a surrogate: reported
errors are always the 0-1 margin error of the achieved iterate, which is all
the downstream deviation checks require.

``fit_stack`` is the one function that turns (kernel, task) pairs into
predictors; ``fit_single_task`` is its one-pair case.
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
# Largest Gram stack solved in lockstep. Stacking removes the per-call
# overhead of small problems: one matvec on a (64, 20, 20) stack took 8-13 us
# against 100-140 us for 64 separate ones (2-vCPU Xeon, one OpenBLAS thread).
# At m = 256 it saved under a tenth (190 against 205 us for 8 matvecs), while
# every stacked Gram adds 512 KiB to peak memory. At 256 KiB, problems with
# m <= 128 are stacked and larger ones are solved one at a time.
STACK_BYTES = 256 * 1024


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
    scores = data.y * predictor.evaluate(data.X)
    return float(np.mean(scores < gamma))


def fit_single_task(kernel: Kernel, data: TaskData, params: MarginParams) -> Predictor:
    """``fit_stack`` on one (kernel, task) pair."""
    return fit_stack([(kernel, data)], params)[0]


def fit_stack(problems: Sequence[tuple[Kernel, TaskData]],
              params: MarginParams) -> list[Predictor]:
    """Minimize hinge-at-gamma over each kernel's unit ball on its task.

    The tasks must share one sample size. The pairs are solved in lockstep,
    in stacks of at most ``STACK_BYTES`` of Gram; a predictor does not depend
    on its stack. Raises InputError, before any Gram is built, for no pairs
    or more than one sample size, and NumericError when a Gram matrix is
    indefinite beyond tolerance. A fit that exhausts ``PGD_MAX_ITERS`` while
    still improving returns the best iterate with ``converged=False``.
    """
    sizes = sorted({task.m for _, task in problems})
    if len(sizes) != 1:
        raise InputError(f"fit_stack needs tasks of one sample size, got {sizes}")
    per_stack = max(1, STACK_BYTES // (8 * sizes[0] ** 2))
    predictors: list[Predictor] = []
    for start in range(0, len(problems), per_stack):
        stack = problems[start:start + per_stack]
        # a list: hinge_pgd_batch stacks it only for two problems or more,
        # so a lone Gram is not held twice
        grams = [kernel.gram(task.X) for kernel, task in stack]
        if any(psd_defect(G) > 0 for G in grams):
            raise NumericError("training Gram matrix indefinite beyond tolerance")
        # feasible starts: alpha^T K alpha <= B (sum_j |alpha_j|)^2 = 1
        starts = np.stack([task.y / (task.m * np.sqrt(kernel.bound_b))
                           for kernel, task in stack])
        alphas, _obj, _iters, converged = _accel.hinge_pgd_batch(
            grams, np.stack([task.y for _, task in stack]), params.gamma,
            starts, PGD_MAX_ITERS, PGD_TOL)
        predictors.extend(
            Predictor(alphas=alpha, support_sample=task.X, kernel=kernel,
                      converged=bool(ok))
            for (kernel, task), alpha, ok in zip(stack, alphas, converged))
    return predictors
