"""Joint empirical risk minimization over a kernel family.

For a fixed kernel the multi-task objective decomposes over tasks, so the
search is: enumerate candidate kernels from the family in a canonical
deterministic order, fit every task independently for each candidate, and
keep the candidate with the lowest average empirical margin error (ties go
to the lowest candidate index). One ``margin.fit_stack`` call fits every
candidate on every task and decides how that grid is stacked.

Candidate enumeration is exhaustive for finite structures (dictionary
vertices, sparse-support subsets) and grid-based for continuous parameters
(simplex weights, Gaussian metrics), optionally followed by coordinate-
descent refinement. The family's guarantees hold for any returned member,
so grid suboptimality costs tightness, never correctness.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError, InputError, require_int
from .kernels import COMBO_VARIANTS, Kernel, KernelFamily, expand_each, instantiate
# fit_single_task is not called here: every fit goes through fit_stack.
# perfbench/tracer.py wraps this binding.
from .margin import MarginParams, MultiTaskSample, Predictor, TaskData, \
    fit_single_task, fit_stack, margin_error_rate

LINEAR_COMBO_SCALES = (0.5, 1.0, 2.0)
GAUSSIAN_AXIS_BOOST = 4.0


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the kernel search.

    grid_resolution: simplex / scale grid fineness (resolution 1 keeps the
        dictionary vertices only).
    refine_rounds: coordinate-descent passes after the grid argmin.
    max_candidates: hard cap on the enumerated grid (exceeding it raises
        BudgetError rather than silently truncating).
    """

    grid_resolution: int = 1
    refine_rounds: int = 0
    max_candidates: int = 4096

    def __post_init__(self):
        require_int(self.grid_resolution, "grid_resolution", 1)
        require_int(self.refine_rounds, "refine_rounds", 0)
        require_int(self.max_candidates, "max_candidates", 1)


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

    @property
    def nonconverged_fits(self) -> int:
        """How many selected per-task fits hit PGD_MAX_ITERS unconverged."""
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
        # each weight vector once, under its own support: its positive counts
        # are counts summing to res - size, plus one each
        for size in range(1, family.sparsity + 1):
            for support in itertools.combinations(range(n_dict), size):
                for counts in _simplex_counts(size, res - size):
                    w = np.zeros(n_dict)
                    w[list(support)] = (np.array(counts) + 1.0) / res
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
    if family.variant in COMBO_VARIANTS:
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


def searched_family_bound(family: KernelFamily) -> float:
    """The largest ``bound_b`` of the candidates the grid above builds."""
    if family.variant in ("convex_combo", "sparse_combo"):
        return family.dictionary_bound
    if family.variant == "linear_combo":
        return max(LINEAR_COMBO_SCALES) * family.dictionary_bound
    return 1.0  # gaussian families


def fit_candidates(kernels: Sequence[Kernel], sample: MultiTaskSample,
                   params: MarginParams
                   ) -> list[tuple[tuple[Predictor, ...], tuple[float, ...]]]:
    """Fit all tasks independently for each kernel, in one ``fit_stack``
    call: one (predictors, errors) pair per kernel, in order. Each task's
    training scores share base cross-Grams (``expand_each``)."""
    fits = fit_stack(kernels, sample, params)
    errors = [[margin_error_rate(task.y * h, params.gamma) for h in expand_each(
                  [(p.kernel, p.alphas) for p in task_fits], task.X, task.X)]
              for task, task_fits in zip(sample.tasks, zip(*fits))]
    return list(zip(fits, zip(*errors)))


def fit_candidate(kernel: Kernel, sample: MultiTaskSample,
                  params: MarginParams) -> tuple[tuple[Predictor, ...], tuple[float, ...]]:
    """Fit all tasks independently for one fixed kernel."""
    return fit_candidates([kernel], sample, params)[0]


def _refine_weights(family, sample, params, budget, incumbent):
    """Coordinate-descent mass moves on the simplex around the grid argmin,
    in integer counts over ``grid_resolution * 2**refine_rounds`` (exact for
    the grid's weights), so a weight moved to zero is exactly zero. The
    incumbent, taken and returned, is (weights, kernel, label, average
    error, (predictors, errors)); zero rounds return it as it is."""
    denom = budget.grid_resolution * 2 ** budget.refine_rounds
    counts = np.rint(np.asarray(incumbent[0]) * denom).astype(np.int64)
    for round_idx in range(budget.refine_rounds):
        step = 2 ** (budget.refine_rounds - round_idx - 1)
        improved = False
        for i, j in itertools.permutations(range(len(counts)), 2):
            if counts[j] < step:
                continue
            c_try = counts.copy()
            c_try[i] += step
            c_try[j] -= step
            if family.variant == "sparse_combo" and \
                    np.count_nonzero(c_try) > family.sparsity:
                continue
            w = c_try / denom
            kern = instantiate(family, w)
            fit = fit_candidate(kern, sample, params)
            avg = float(np.mean(fit[1]))
            if avg < incumbent[3] - 1e-15:
                counts, improved = c_try, True
                incumbent = (w, kern, f"refined w={np.round(w, 6).tolist()}", avg, fit)
        if not improved:
            break
    return incumbent


def erm_search(family: KernelFamily, sample: MultiTaskSample,
               params: MarginParams, budget: SearchBudget = SearchBudget()
               ) -> tuple[MultiTaskSolution, list]:
    """``erm_fit`` together with its grid: returns (solution, fits), where
    ``fits[k]`` is candidate k's (predictors, errors). Refinement moves
    weights: a Gaussian family with ``refine_rounds > 0`` is an InputError."""
    if budget.refine_rounds > 0 and family.variant not in COMBO_VARIANTS:
        raise InputError(f"refine_rounds must be 0 for a {family.variant} "
                         "family: refinement moves combination weights")
    candidates = enumerate_candidates(family, budget)
    fits = fit_candidates([c.kernel for c in candidates], sample, params)
    averages = [float(np.mean(errors)) for _, errors in fits]
    pick = int(np.argmin(averages))  # ties go to the lowest index
    cand = candidates[pick]
    incumbent = (cand.params, cand.kernel, cand.label, averages[pick], fits[pick])
    kernel_params, kernel, label, avg_err, (predictors, errors) = _refine_weights(
        family, sample, params, budget, incumbent)
    solution = MultiTaskSolution(
        kernel_params=kernel_params, kernel=kernel, predictors=predictors,
        avg_empirical_margin_error=avg_err, per_task_errors=errors,
        candidate_index=cand.index, candidate_label=label)
    return solution, fits


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
    comments; every data row has the first data row's width. See FORMATS.md.
    """
    groups: dict[str, list[list[float]]] = {}
    order: list[str] = []
    width = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"data file {path} is not UTF-8 text: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        width = width or len(row)
        if len(row) != width:
            raise InputError(
                f"{path} line {reader.line_num}: {len(row)} fields, but "
                f"the first data row has {width}")
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
