"""Joint empirical risk minimization over a kernel family.

For a fixed kernel the multi-task objective decomposes over tasks, so the
search is: enumerate candidate kernels from the family in a canonical
deterministic order, fit every task independently for each candidate, and
keep the candidate with the lowest average empirical margin error (ties go
to the lowest candidate index).

Candidate enumeration is exhaustive for finite structures (dictionary
vertices, sparse-support subsets) and grid-based for continuous parameters
(simplex weights, Gaussian metrics), optionally followed by coordinate-
descent refinement. The family's guarantees hold for any returned member,
so grid suboptimality costs tightness, never correctness.
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, InputError
from .kernels import Kernel, KernelFamily, instantiate
from .margin import MarginParams, Predictor, TaskData, empirical_margin_error, \
    fit_single_task, fit_stack

LINEAR_COMBO_SCALES = (0.5, 1.0, 2.0)
GAUSSIAN_AXIS_BOOST = 4.0
# Largest Gram stack solved in lockstep. Stacking removes the per-call
# overhead of small problems: one matvec on a (64, 20, 20) stack took 8-13 us
# against 100-140 us for 64 separate ones (2-vCPU Xeon, one OpenBLAS thread).
# At m = 256 it saved under a tenth (190 against 205 us for 8 matvecs), while
# every stacked Gram adds 512 KiB to peak memory. At 256 KiB, problems with
# m <= 128 are stacked and larger ones are solved one at a time.
STACK_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class MultiTaskSample:
    """n tasks of m labeled examples each."""

    tasks: tuple[TaskData, ...]

    def __post_init__(self):
        if not self.tasks:
            raise InputError("need at least one task")
        sizes = {t.m for t in self.tasks}
        if len(sizes) != 1:
            raise InputError(f"tasks must share one sample size, got {sorted(sizes)}")

    @property
    def n(self) -> int:
        return len(self.tasks)

    @property
    def m(self) -> int:
        return self.tasks[0].m


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the kernel search.

    grid_resolution: simplex / scale grid fineness (resolution 1 keeps the
        dictionary vertices only).
    refine_rounds: coordinate-descent passes after the grid argmin.
    max_candidates: hard cap on the enumerated grid (exceeding it raises
        BudgetError rather than silently truncating).
    wall_clock_cap: seconds; when exceeded the best solution so far is
        returned with ``budget_exhausted=True``.
    """

    grid_resolution: int = 1
    refine_rounds: int = 0
    max_candidates: int = 4096
    wall_clock_cap: Optional[float] = None

    def __post_init__(self):
        if self.grid_resolution < 1:
            raise InputError("grid_resolution must be >= 1")
        if self.refine_rounds < 0 or self.max_candidates < 1:
            raise InputError("refine_rounds must be >= 0, max_candidates >= 1")


@dataclass(frozen=True, eq=False)
class Candidate:
    index: int
    params: object
    kernel: Kernel
    label: str


@dataclass(eq=False)
class MultiTaskSolution:
    kernel_params: object
    kernel: Kernel
    predictors: tuple[Predictor, ...]
    avg_empirical_margin_error: float
    per_task_errors: tuple[float, ...]
    candidate_index: int
    candidate_label: str
    budget_exhausted: bool = False

    @property
    def nonconverged_fits(self) -> int:
        """How many of the selected per-task fits hit max_iters unconverged."""
        return sum(not p.converged for p in self.predictors)


def _simplex_counts(n_dims: int, total: int):
    if n_dims == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _simplex_counts(n_dims - 1, total - first):
            yield (first,) + rest


def _simplex_grid(n_dims: int, resolution: int):
    """All weight vectors with entries i/resolution summing to 1; mass moves
    from the first coordinate outward, so vertex j is the j-th candidate."""
    for counts in _simplex_counts(n_dims, resolution):
        yield np.array(counts, dtype=np.float64) / resolution


def _combo_candidates(family: KernelFamily, budget: SearchBudget):
    n_dict = len(family.dictionary)
    res = budget.grid_resolution
    if family.variant == "sparse_combo":
        seen = set()
        for size in range(1, family.sparsity + 1):
            for support in itertools.combinations(range(n_dict), size):
                for w_local in _simplex_grid(size, res):
                    w = np.zeros(n_dict)
                    w[list(support)] = w_local
                    key = tuple(np.round(w * res).astype(int))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield w, f"sparse{list(support)}w={np.round(w, 6).tolist()}"
        return
    if family.variant == "convex_combo":
        for w in _simplex_grid(n_dict, res):
            yield w, f"convex w={np.round(w, 6).tolist()}"
        return
    # linear_combo: simplex directions at a few documented overall scales
    for scale in LINEAR_COMBO_SCALES:
        for w in _simplex_grid(n_dict, res):
            yield scale * w, f"linear x{scale} w={np.round(w, 6).tolist()}"


def _gaussian_candidates(family: KernelFamily, budget: SearchBudget):
    ell = family.dimension
    scales = np.geomspace(0.25, 4.0, 2 * budget.grid_resolution + 1)
    if family.variant == "gaussian_covariance":
        for s in scales:
            yield s * np.eye(ell), f"iso s={s:.6g}"
        for axis in range(ell):
            for s in scales:
                M = s * np.eye(ell)
                M[axis, axis] *= GAUSSIAN_AXIS_BOOST
                yield M, f"axis{axis} s={s:.6g}"
        return
    # gaussian_low_rank: axis-aligned factors of every rank up to max_rank
    for rank in range(1, family.max_rank + 1):
        for axes in itertools.combinations(range(ell), rank):
            for s in scales:
                A = np.zeros((rank, ell))
                for r, axis in enumerate(axes):
                    A[r, axis] = np.sqrt(s)
                yield A, f"rank{rank} axes={list(axes)} s={s:.6g}"


def enumerate_candidates(family: KernelFamily, budget: SearchBudget) -> list[Candidate]:
    """Canonically ordered candidate kernels for the family under the budget."""
    if family.variant in ("linear_combo", "convex_combo", "sparse_combo"):
        raw = _combo_candidates(family, budget)
    else:
        raw = _gaussian_candidates(family, budget)
    out = []
    for index, (params, label) in enumerate(raw):
        if index >= budget.max_candidates:
            raise BudgetError(
                f"candidate grid exceeds max_candidates={budget.max_candidates}; "
                "lower grid_resolution or raise the cap")
        out.append(Candidate(index=index, params=params,
                             kernel=instantiate(family, params), label=label))
    if not out:
        raise InputError("empty search grid")
    return out


def fit_candidates(kernels: Sequence[Kernel], sample: MultiTaskSample,
                   params: MarginParams, deadline: Optional[float] = None
                   ) -> list[tuple[tuple[Predictor, ...], tuple[float, ...]]]:
    """Fit all tasks independently for each kernel: one (predictors, errors)
    pair per kernel, in order.

    The (kernel, task) problems are solved as stacks whose Grams take at
    most STACK_BYTES; a stack of one problem goes to ``fit_single_task``.
    After ``deadline`` (a ``time.monotonic()`` value) no further stack
    starts once one kernel is complete, and only complete kernels are
    returned.
    """
    problems = [(kernel, task) for kernel in kernels for task in sample.tasks]
    per_stack = max(1, STACK_BYTES // (8 * sample.m ** 2))
    predictors: list[Predictor] = []
    for start in range(0, len(problems), per_stack):
        if deadline is not None and len(predictors) >= sample.n \
                and time.monotonic() > deadline:
            break
        stack = problems[start:start + per_stack]
        if len(stack) == 1:
            predictors.append(fit_single_task(*stack[0], params))
        else:
            predictors.extend(fit_stack(stack, params))
    fits = []
    for k in range(len(predictors) // sample.n):
        preds = tuple(predictors[k * sample.n:(k + 1) * sample.n])
        errors = tuple(empirical_margin_error(p, t, params.gamma)
                       for p, t in zip(preds, sample.tasks))
        fits.append((preds, errors))
    return fits


def fit_candidate(kernel: Kernel, sample: MultiTaskSample,
                  params: MarginParams) -> tuple[tuple[Predictor, ...], tuple[float, ...]]:
    """Fit all tasks independently for one fixed kernel."""
    return fit_candidates([kernel], sample, params)[0]


def _refine_weights(family, sample, params, budget, best_w, best_err, deadline):
    """Coordinate-descent mass moves on the simplex around the grid argmin."""
    res = budget.grid_resolution
    w = np.asarray(best_w, dtype=np.float64).copy()
    err = best_err
    predictors = None
    for round_idx in range(budget.refine_rounds):
        step = 1.0 / (res * 2 ** (round_idx + 1))
        improved = False
        for i, j in itertools.permutations(range(len(w)), 2):
            if deadline is not None and time.monotonic() > deadline:
                return w, err, predictors, True
            if w[j] < step:
                continue
            w_try = w.copy()
            w_try[i] += step
            w_try[j] -= step
            if family.variant == "sparse_combo" and \
                    np.count_nonzero(w_try) > family.sparsity:
                continue
            kern = instantiate(family, w_try)
            preds, errs = fit_candidate(kern, sample, params)
            avg = float(np.mean(errs))
            if avg < err - 1e-15:
                w, err, predictors, improved = w_try, avg, (preds, errs), True
        if not improved:
            break
    return w, err, predictors, False


def erm_search(family: KernelFamily, sample: MultiTaskSample,
               params: MarginParams, budget: SearchBudget = SearchBudget()
               ) -> tuple[MultiTaskSolution, list[Candidate], list]:
    """``erm_fit`` together with its grid: returns (solution, candidates,
    fits), where ``fits[k]`` is candidate k's (predictors, errors). When the
    wall-clock cap cuts the grid short, ``fits`` covers a prefix of the
    candidates."""
    candidates = enumerate_candidates(family, budget)
    deadline = None
    if budget.wall_clock_cap is not None:
        deadline = time.monotonic() + budget.wall_clock_cap
    fits = fit_candidates([c.kernel for c in candidates], sample, params,
                          deadline)
    exhausted = len(fits) < len(candidates)
    averages = [float(np.mean(errors)) for _, errors in fits]
    pick = int(np.argmin(averages))  # ties go to the lowest index
    cand = candidates[pick]
    predictors, errors = fits[pick]
    avg_err, kernel, cand_params, label = \
        averages[pick], cand.kernel, cand.params, cand.label

    weight_family = family.variant in ("linear_combo", "convex_combo", "sparse_combo")
    if budget.refine_rounds > 0 and weight_family and not exhausted:
        w, err, refined, hit_cap = _refine_weights(
            family, sample, params, budget, cand.params, avg_err, deadline)
        exhausted = hit_cap
        if refined is not None:
            cand_params, avg_err = w, err
            kernel = instantiate(family, w)
            predictors, errors = refined
            label = f"refined w={np.round(w, 6).tolist()}"

    solution = MultiTaskSolution(
        kernel_params=cand_params,
        kernel=kernel,
        predictors=predictors,
        avg_empirical_margin_error=avg_err,
        per_task_errors=errors,
        candidate_index=cand.index,
        candidate_label=label,
        budget_exhausted=exhausted,
    )
    return solution, candidates, fits


def erm_fit(family: KernelFamily, sample: MultiTaskSample, params: MarginParams,
            budget: SearchBudget = SearchBudget()) -> MultiTaskSolution:
    """ERM over the family x per-task predictors.

    Deterministic: candidates are enumerated canonically, per-task fits are
    seed-free, and ties break to the lowest candidate index. Invariant to
    task ordering up to the ordering of ``predictors``.
    """
    return erm_search(family, sample, params, budget)[0]


def load_multitask_sample(path) -> MultiTaskSample:
    """Read a delimited labeled-sample file: task_id, x_1..x_d, label per row.

    Tasks are grouped by id in order of first appearance; '#' lines are
    comments. See FORMATS.md.
    """
    groups: dict[str, list[list[float]]] = {}
    order: list[str] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            task_id = row[0].strip()
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise InputError(f"non-numeric field in data row {row!r}") from exc
            if len(values) < 2:
                raise InputError(f"data row needs features and a label: {row!r}")
            if task_id not in groups:
                groups[task_id] = []
                order.append(task_id)
            groups[task_id].append(values)
    if not order:
        raise InputError(f"no data rows in {path}")
    tasks = []
    for task_id in order:
        arr = np.asarray(groups[task_id], dtype=np.float64)
        tasks.append(TaskData(X=arr[:, :-1], y=arr[:, -1]))
    return MultiTaskSample(tasks=tuple(tasks))
