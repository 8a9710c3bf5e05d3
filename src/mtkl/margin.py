"""Single-task large-margin learning inside a kernel's unit ball.

The learner minimizes the hinge loss at margin gamma,

    (1/m) sum_j max(0, 1 - y_j h(x_j) / gamma),

over predictors ``h(x) = sum_j alpha_j K(x_j, x)`` constrained to the RKHS
unit ball ``alpha^T K alpha <= 1``, by projected subgradient descent with
monotone backtracking. The projection divides by the K-norm (the constraint
lives in the RKHS, not in coefficient space). Hinge is a surrogate: reported
errors are always the 0-1 margin error of the achieved iterate, which is all
the downstream deviation checks require.

``fit_stack`` fits every kernel of a list on every task of a
``MultiTaskSample``; ``fit_single_task`` is its one-pair case. ``_gram_fault``
is the one check that a Gram can be fitted: ``fit_stack`` runs it on every
training Gram before solving, and ``check_kernel_invariants`` adds exact
symmetry. After solving, ``fit_stack`` checks that every fit is finite and
inside its unit ball up to ``NORM_TOL``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _accel
from .errors import InputError, NumericError, require_number
from .kernels import Kernel, as_points, grams, psd_defect

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
BOUND_REL_TOL = 1e-9  # share by which a Gram's diagonal may exceed bound_b
# Amount by which a fit's alpha^T K alpha may exceed 1. The feasible start
# may exceed 1 by BOUND_REL_TOL, from a diagonal that exceeds the bound by
# that share. The solver projects with the norm it tracks across steps,
# which drifts from a fresh alpha^T K alpha by rounding: the largest excess
# over the test suite and the benchmark workloads was 5.5e-14. So 1e-8 is
# ten times the first and over 10^5 times the second, and it is the bound
# that the benchmark checks predictors against.
NORM_TOL = 1e-8


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


@dataclass(frozen=True, eq=False)
class MultiTaskSample:
    """n tasks of m labeled examples each."""

    tasks: tuple[TaskData, ...]

    def __post_init__(self):
        sizes = sorted({t.m for t in self.tasks})
        if len(sizes) != 1:
            raise InputError(f"need one or more tasks of one sample size, got {sizes}")

    @property
    def n(self) -> int:
        return len(self.tasks)

    @property
    def m(self) -> int:
        return self.tasks[0].m


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


def margin_error_rate(margins: np.ndarray, gamma: float) -> float:
    """Share of the margins y h(x) below gamma: the one margin-error rule, in
    which a margin equal to gamma is no error (gamma=0 gives 0-1 error)."""
    return float(np.mean(margins < gamma))


def empirical_margin_error(predictor: Predictor, data: TaskData, gamma: float) -> float:
    """``margin_error_rate`` of the predictor on the sample."""
    return margin_error_rate(data.y * predictor.evaluate(data.X), gamma)


def _gram_fault(G, bound_b: float) -> Optional[str]:
    """The first fault of a Gram of a kernel declaring K(x, x) <= bound_b, or
    None: a non-finite entry, a diagonal entry above bound_b (by more than
    BOUND_REL_TOL), then a PSD defect beyond tolerance (``psd_defect``)."""
    defect = psd_defect(G)
    if defect == math.inf:
        return "has a non-finite entry"
    row = int(np.argmax(np.diagonal(G)))
    if G[row, row] > bound_b * (1.0 + BOUND_REL_TOL):
        return f"has diagonal entry {row} = {G[row, row]} above B={bound_b}"
    return (f"is indefinite beyond tolerance: PSD defect {defect!r}"
            if defect > 0 else None)


def check_kernel_invariants(kernel: Kernel, sample) -> None:
    """Raise NumericError on a ``_gram_fault`` or asymmetry of the kernel's Gram."""
    G = kernel.gram(sample)
    fault = _gram_fault(G, kernel.bound_b) or (
        None if np.array_equal(G, G.T) else "is not exactly symmetric")
    if fault:
        raise NumericError(f"Gram matrix {fault}")


def fit_single_task(kernel: Kernel, data: TaskData, params: MarginParams) -> Predictor:
    """``fit_stack`` of one kernel on one task."""
    return fit_stack([kernel], MultiTaskSample((data,)), params)[0][0]


def fit_stack(kernels: Sequence[Kernel], sample: MultiTaskSample,
              params: MarginParams) -> list[tuple[Predictor, ...]]:
    """Minimize hinge-at-gamma over each kernel's unit ball on each task:
    one tuple of predictors per kernel, in task order.

    The (kernel, task) problems are solved task by task, in lockstep, in
    stacks of at most ``STACK_BYTES`` of Gram; a predictor does not depend
    on its stack. Each task's Grams come from one lazy ``kernels.grams``, so
    each distinct base kernel's Gram of a task is built once.

    Raises NumericError naming the kernel's index in ``kernels`` and the
    task's index in ``sample``: before its stack is solved, for a
    ``_gram_fault``; after, for a fit with a non-finite coefficient or with
    alpha^T K alpha above 1 + ``NORM_TOL`` on the Gram it was solved on. A
    fit that exhausts ``PGD_MAX_ITERS`` while still improving returns the
    best iterate with ``converged=False``."""
    per_stack = max(1, STACK_BYTES // (8 * sample.m ** 2))
    problems = [(k, kernel, t, task) for t, task in enumerate(sample.tasks)
                for k, kernel in enumerate(kernels)]
    built = itertools.chain.from_iterable(
        grams(kernels, task.X) for task in sample.tasks)
    fits: list[list[Predictor]] = [[] for _ in kernels]
    stack_grams: list = []
    for start in range(0, len(problems), per_stack):
        stack = problems[start:start + per_stack]
        # a list, emptied before this stack's Grams are built: hinge_pgd_batch
        # stacks it only for two problems or more, so a lone Gram is not held twice
        stack_grams.clear()
        stack_grams.extend(itertools.islice(built, len(stack)))
        for (k, kernel, t, _), G in zip(stack, stack_grams):
            if fault := _gram_fault(G, kernel.bound_b):
                raise NumericError(
                    f"training Gram of kernel {k} on task {t} (m={len(G)}) {fault}")
        del G  # else it holds the stack's last Gram while the next is built
        # feasible starts: alpha^T K alpha <= B (sum_j |alpha_j|)^2 = 1
        starts = np.stack([task.y / (task.m * np.sqrt(kernel.bound_b))
                           for _, kernel, _, task in stack])
        alphas, _obj, _iters, converged = _accel.hinge_pgd_batch(
            stack_grams, np.stack([task.y for *_, task in stack]), params.gamma,
            starts, PGD_MAX_ITERS, PGD_TOL)
        finite = np.isfinite(alphas).all(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = [alpha @ G @ alpha for alpha, G in zip(alphas, stack_grams)]
        for (k, _, t, _), ok, norm_sq in zip(stack, finite, norms):
            if not ok or not norm_sq <= 1.0 + NORM_TOL:
                raise NumericError(
                    f"fit of kernel {k} on task {t} (m={sample.m}) " + (
                        f"has RKHS norm² {float(norm_sq)!r} above 1 + {NORM_TOL}"
                        if ok else "has a non-finite coefficient"))
        for (k, kernel, _, task), alpha, ok in zip(stack, alphas, converged):
            fits[k].append(Predictor(alphas=alpha, support_sample=task.X,
                                     kernel=kernel, converged=bool(ok)))
    return [tuple(f) for f in fits]
